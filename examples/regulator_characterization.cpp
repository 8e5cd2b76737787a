// Regulator characterization walkthrough (paper Section IV): reference taps,
// regulation across conditions, Vreg-vs-defect-resistance curves for the
// main defect families, and the deep-sleep entry transient with a delayed
// activation defect.
//
// With `--resume <journal>` the binary instead runs the regulation-metrics
// sweep as a durable campaign: probe points are journaled as they solve, and
// rerunning the same command after an interruption (Ctrl-C, OOM kill, ...)
// replays the finished points from the journal and solves only the rest —
// with results bit-identical to an uninterrupted run. Inspect the journal
// with tools/journal_inspect.py.
#include <cstdio>
#include <cstring>

#include "lpsram/regulator/characterize.hpp"
#include "lpsram/runtime/campaign.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/signal_cancel.hpp"

using namespace lpsram;

namespace {

int run_durable(const Technology& tech, const char* journal) {
  Campaign campaign{std::string(journal)};
  const std::size_t already = campaign.completed_tasks();
  std::printf("campaign journal %s: %zu task(s) already journaled%s\n",
              journal, already,
              campaign.resumed_from_torn_tail() ? " (torn tail truncated)"
                                                : "");
  // Ctrl-C / SIGTERM drains instead of killing: in-flight probes wind down,
  // everything journaled so far survives, and this same command resumes.
  CancelToken stop;
  install_cancel_on_signal(stop);
  for (const Corner corner : {Corner::Typical, Corner::FastNSlowP,
                              Corner::SlowNFastP}) {
    SweepReport report;
    SweepTelemetry telemetry;
    const RegulationMetrics m =
        measure_regulation(tech, corner, VrefLevel::V070, &report, &telemetry,
                           /*threads=*/0, &campaign, &stop);
    if (stop.cancelled()) break;
    std::printf("%-4s line error %7.4f V | load reg %9.3e V/A | temp drift "
                "%7.4f V   [%s]\n",
                corner_name(corner).c_str(), m.line_error, m.load_regulation,
                m.temp_drift, report.summary().c_str());
  }
  if (stop.cancelled()) {
    std::printf("interrupted — journal retains %zu completed task(s); rerun "
                "this command to resume.\n",
                campaign.completed_tasks());
    return 130;
  }
  // Keep the journal compact for the next resume.
  campaign.compact();
  std::printf("journal now holds %zu completed task(s); rerun this command "
              "to resume/replay.\n",
              campaign.completed_tasks());
  return 0;
}

int run(int argc, char** argv) {
  const Technology tech = Technology::lp40nm();

  if (argc == 3 && std::strcmp(argv[1], "--resume") == 0)
    return run_durable(tech, argv[2]);
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--resume <journal-file>]\n", argv[0]);
    return 2;
  }

  // Reference source taps (voltage divider of Fig. 5).
  {
    VoltageRegulator reg(tech, Corner::Typical);
    reg.set_vdd(1.1);
    reg.select_vref(VrefLevel::V070);
    const DcResult dc = reg.solve_dc(25.0);
    std::printf("reference taps at VDD = 1.1 V:\n");
    for (const char* tap : {"vref78", "vref74", "vref70", "vref64", "vbias52"}) {
      const NodeId node = reg.netlist().node(tap);
      std::printf("  %-7s = %.4f V\n", tap,
                  dc.node_v[static_cast<std::size_t>(node)]);
    }
  }

  // Regulation across the 12 VDD x Vref conditions.
  std::printf("\nregulation (tt/25C): condition -> Vreg (expected)\n");
  RegulatorCharacterizer ch(tech, ArrayLoadModel::Options{});
  for (const double vdd : tech.vdd_levels()) {
    for (const VrefLevel level : kAllVrefLevels) {
      DsCondition c;
      c.vdd = vdd;
      c.vref = level;
      std::printf("  %.1fV %-9s -> %.4f (%.3f)\n", vdd,
                  vref_name(level).c_str(), ch.vreg_healthy(c),
                  c.expected_vreg());
    }
  }

  // Vreg vs defect resistance for one defect of each behaviour family.
  DsCondition hot;
  hot.vdd = 1.0;
  hot.vref = VrefLevel::V074;
  hot.temp_c = 125.0;
  hot.corner = Corner::FastNSlowP;
  std::printf("\n# Vreg vs defect resistance at %s: R, Df1(divider), "
              "Df7(bias), Df19(output), Df6(power), Df24(gate)\n",
              ds_condition_name(hot).c_str());
  for (double r = 1e2; r <= 1e9; r *= 10.0) {
    std::printf("%.0e, %.4f, %.4f, %.4f, %.4f, %.4f\n", r,
                ch.vreg(hot, 1, r), ch.vreg(hot, 7, r), ch.vreg(hot, 19, r),
                ch.vreg(hot, 6, r), ch.vreg(hot, 24, r));
  }

  // Static power vs defect: the category-1 signature.
  std::printf("\nstatic power in DS mode (tt/25C): healthy %.3e W, with Df6 "
              "at 100 MOhm %.3e W\n",
              ch.static_power(DsCondition{}, 0, 1.0),
              ch.static_power(DsCondition{}, 6, 100e6));

  // DS-entry transient: healthy vs delayed activation (Df8).
  std::printf("\n# DS entry waveform (fs/125C): t_us, vddcc_healthy, "
              "vddcc_Df8_400M\n");
  {
    ArrayLoadModel::Options load;  // full 256K-cell array
    VoltageRegulator healthy(tech, Corner::FastNSlowP, load);
    healthy.set_vdd(1.0);
    healthy.select_vref(VrefLevel::V074);
    VoltageRegulator faulty(tech, Corner::FastNSlowP, load);
    faulty.set_vdd(1.0);
    faulty.select_vref(VrefLevel::V074);
    faulty.inject_defect(8, 400e6);

    TransientOptions topts;
    topts.dt_max = 0.3e-6;
    const Waveform base = healthy.simulate_ds_entry(30e-6, 125.0, &topts);
    const Waveform df8 = faulty.simulate_ds_entry(30e-6, 125.0, &topts);
    for (double t = 0.0; t <= 30e-6; t += 1e-6) {
      std::printf("%5.1f, %.4f, %.4f\n", t * 1e6, base.at(0, t), df8.at(0, t));
    }
    std::printf("# healthy min %.3f V | Df8 min %.3f V (droop while the "
                "regulator stays off)\n",
                base.min_value(0), df8.min_value(0));
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
