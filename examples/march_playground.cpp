// March playground: parse a March test from the command line, run it on a
// low-power SRAM with optional injected faults, and report coverage of the
// classic fault lists.
//
// Usage:
//   march_playground                          # run March m-LZ, all fault lists
//   march_playground "{ any(w0); up(r0,w1); down(r1,w0) }"
//   march_playground "{ any(w1); DSM; WUP; up(r1) }" 5e8
//     (second argument: regulator defect Df7 resistance in ohms)
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "lpsram/faults/coverage.hpp"
#include "lpsram/march/executor.hpp"
#include "lpsram/march/library.hpp"
#include "lpsram/march/parser.hpp"
#include "lpsram/util/error.hpp"

using namespace lpsram;

namespace {

int play(int argc, char** argv) {
  MarchTest test = march::march_m_lz();
  if (argc > 1) {
    try {
      test = parse_march(argv[1], "user test");
    } catch (const Error& e) {
      std::fprintf(stderr, "cannot parse march test: %s\n", e.what());
      return 2;
    }
  }
  double ohms = 0.0;
  if (argc > 2) {
    char* end = nullptr;
    ohms = std::strtod(argv[2], &end);
    if (end == argv[2] || *end != '\0' || !std::isfinite(ohms) ||
        !(ohms > 0.0)) {
      std::fprintf(stderr,
                   "Df7 resistance must be a finite number of ohms > 0, "
                   "got '%s'\n",
                   argv[2]);
      return 2;
    }
  }

  std::printf("test: %s  %s  (complexity %s)\n", test.name.c_str(),
              test.notation().c_str(), test.complexity().c_str());

  SramConfig config;
  config.words = 256;
  config.bits = 16;
  config.corner = Corner::FastNSlowP;
  config.vdd = 1.0;
  config.vref = VrefLevel::V074;
  config.temp_c = 125.0;
  LowPowerSram sram(config);

  if (argc > 2) {
    CellVariation worst;
    worst.mpcc1 = -6;
    worst.mncc1 = -6;
    worst.mpcc2 = +6;
    worst.mncc2 = +6;
    worst.mncc3 = -6;
    worst.mncc4 = +6;
    sram.add_weak_cell(100, 7, worst);
    sram.inject_regulator_defect(7, ohms);
    std::printf("injected Df7 = %s ohm; DS-mode Vreg = %.3f V\n", argv[2],
                sram.vreg_ds());
  }

  MarchExecutorOptions options;
  options.ds_time = 1e-3;
  MarchExecutor executor(sram, options);
  const MarchRunResult run = executor.run(test);
  std::printf("functional run: %s (%llu ops, %llu failures)\n",
              run.passed ? "PASS" : "FAIL",
              static_cast<unsigned long long>(run.operations),
              static_cast<unsigned long long>(run.total_failures));
  for (std::size_t i = 0; i < run.failures.size() && i < 5; ++i) {
    const MarchFailure& f = run.failures[i];
    std::printf("  failure: element %s, address %zu, got %04llx expected "
                "%04llx\n",
                test.elements[f.element].str().c_str(), f.address,
                static_cast<unsigned long long>(f.actual),
                static_cast<unsigned long long>(f.expected));
  }

  // Classic-fault coverage of the chosen test.
  FaultListOptions list_options;
  list_options.max_cells = 16;
  list_options.retention_time = 1e-5;
  FaultSimulator sim(sram, options);
  const FaultSimResult result =
      sim.simulate(test, generate_all(sram, list_options));
  std::printf("\nclassic fault coverage:\n%s",
              coverage_table(summarize(result)).c_str());
  return run.passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return play(argc, argv);
  } catch (const Error& e) {
    // Bad input is a usage error: report it instead of aborting on an
    // uncaught exception.
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
