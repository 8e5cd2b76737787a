// Test-flow optimization walkthrough (paper Section V / Table III):
// generate the optimized March m-LZ flow from the electrical
// characterization and apply it to healthy and defective devices.
//
// With `--resume <journal>` the defect-characterization matrix behind the
// flow runs as a durable campaign: Ctrl-C / SIGTERM drains gracefully and a
// rerun of the same command resumes from the journal.
#include <cstdio>
#include <cstring>
#include <memory>

#include "lpsram/core/test_flow_generator.hpp"
#include "lpsram/testflow/report.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/signal_cancel.hpp"

using namespace lpsram;

namespace {

int run(int argc, char** argv) {
  const Technology tech = Technology::lp40nm();

  std::unique_ptr<Campaign> campaign;
  CancelToken stop;
  if (argc == 3 && std::strcmp(argv[1], "--resume") == 0) {
    campaign = std::make_unique<Campaign>(std::string(argv[2]));
    std::printf("campaign journal %s: %zu task(s) already journaled%s\n",
                argv[2], campaign->completed_tasks(),
                campaign->resumed_from_torn_tail() ? " (torn tail truncated)"
                                                   : "");
    install_cancel_on_signal(stop);
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--resume <journal-file>]\n", argv[0]);
    return 2;
  }

  // Generate the flow for the DRF-causing defect set.
  FlowOptimizer::Options options;  // fs corner, 125 C, 1 ms DS — paper setup
  options.campaign = campaign.get();
  options.cancel = campaign ? &stop : nullptr;
  const TestFlowGenerator generator(tech, options);
  const GeneratedTestFlow flow = generator.generate();
  if (stop.cancelled()) {
    std::printf("interrupted — journal retains %zu completed task(s); rerun "
                "this command to resume.\n",
                campaign->completed_tasks());
    return 130;
  }

  std::printf("generated flow for %s (worst-case DRV %.0f mV):\n\n",
              flow.test.name.c_str(), flow.worst_drv * 1e3);
  std::fputs(table3_report(flow.flow, flow.test, 4096, 10e-9).c_str(), stdout);

  // Apply it to devices.
  auto make_device = [&](bool defective) {
    SramConfig config;
    config.words = 4096;
    config.bits = 64;
    config.corner = Corner::FastNSlowP;
    config.temp_c = 125.0;
    auto sram = std::make_unique<LowPowerSram>(config);
    CellVariation worst;
    worst.mpcc1 = -6;
    worst.mncc1 = -6;
    worst.mpcc2 = +6;
    worst.mncc2 = +6;
    worst.mncc3 = -6;
    worst.mncc4 = +6;
    sram->add_weak_cell(2048, 31, worst);
    if (defective) sram->inject_regulator_defect(16, 50e3);
    return sram;
  };

  std::printf("\napplying the flow:\n");
  {
    auto healthy = make_device(false);
    const FlowRunResult run = run_flow(*healthy, flow);
    std::printf("  healthy device: %s (%zu iterations, %.2f ms tester "
                "time)\n",
                run.any_failure ? "FAIL (unexpected!)" : "PASS",
                run.iterations.size(), run.total_test_time * 1e3);
  }
  {
    auto faulty = make_device(true);
    const FlowRunResult run = run_flow(*faulty, flow);
    std::printf("  Df16 = 50 kOhm: %s", run.any_failure ? "DETECTED" : "missed");
    for (std::size_t i = 0; i < run.iterations.size(); ++i) {
      std::printf(" | iter %zu: %llu failures", i + 1,
                  static_cast<unsigned long long>(
                      run.iterations[i].total_failures));
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    // Bad input (say, a corrupt or foreign --resume journal) is a usage
    // error: report it instead of aborting on an uncaught exception.
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
