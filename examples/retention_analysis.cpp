// Retention analysis walkthrough (paper Section III): butterfly curves,
// SNM vs supply, DRV per variation pattern, and the DS-time/temperature
// trade-off of the flip model. Emits gnuplot-ready CSV blocks to stdout.
//
// With `--resume <journal>` the binary instead runs the Fig. 4 DRV sweep as
// a durable campaign: Ctrl-C / SIGTERM drains gracefully, and rerunning the
// same command replays finished points and solves only the rest, with
// results bit-identical to an uninterrupted run.
#include <cstdio>
#include <cstring>

#include "lpsram/cell/flip_time.hpp"
#include "lpsram/cell/vtc.hpp"
#include "lpsram/core/retention_analyzer.hpp"
#include "lpsram/testflow/report.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/signal_cancel.hpp"

using namespace lpsram;

namespace {

int run_durable(const Technology& tech, const char* journal) {
  const RetentionAnalyzer analyzer(tech);
  Campaign campaign{std::string(journal)};
  std::printf("campaign journal %s: %zu task(s) already journaled%s\n",
              journal, campaign.completed_tasks(),
              campaign.resumed_from_torn_tail() ? " (torn tail truncated)"
                                                : "");
  CancelToken stop;
  install_cancel_on_signal(stop);

  const double sigmas[] = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  SweepReport report;
  SweepTelemetry telemetry;
  const std::vector<Fig4Point> points =
      analyzer.fig4_sweep(sigmas, {}, {}, &report, &telemetry,
                          /*threads=*/0, &campaign, &stop);
  if (stop.cancelled()) {
    std::printf("interrupted — journal retains %zu completed task(s); rerun "
                "this command to resume.\n",
                campaign.completed_tasks());
    return 130;
  }
  std::fputs(fig4_report(points).c_str(), stdout);
  std::printf("[%s]\n", report.summary().c_str());
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

  const RetentionAnalyzer analyzer(tech);

  // Butterfly raw data at two supplies: healthy margins at 1.1 V, collapsing
  // lobes near the DRV.
  CellVariation weak;
  weak.mpcc1 = -3;
  weak.mncc1 = -3;
  const CoreCell cell(tech, weak);
  const HoldVtc vtc(cell);
  for (const double vdd : {1.1, 0.45}) {
    std::printf("# butterfly (CS2 cell) VDD_CC = %.2f V: v_in, inv_S(v), "
                "inv_SB(v)\n",
                vdd);
    for (int i = 0; i <= 40; ++i) {
      const double x = vdd * i / 40;
      std::printf("%.4f, %.4f, %.4f\n", x, vtc.inverter_s(x, vdd, 25.0),
                  vtc.inverter_sb(x, vdd, 25.0));
    }
    const SnmPair snm = hold_snm_pair(cell, vdd, 25.0);
    std::printf("# SNM_DS1 = %.1f mV, SNM_DS0 = %.1f mV\n\n", snm.snm1 * 1e3,
                snm.snm0 * 1e3);
  }

  // SNM vs supply: the margin the regulator trades for leakage savings.
  std::printf("# SNM vs VDD_CC (symmetric cell, tt/25C): v, snm1_mV\n");
  CellVariation none;
  const CoreCell sym(tech, none);
  for (double v = 1.1; v >= 0.1; v -= 0.1) {
    std::printf("%.2f, %.1f\n", v, hold_snm(sym, StoredBit::One, v, 25.0) * 1e3);
  }

  // DRV for a few variation strengths.
  std::printf("\n# DRV_DS1 vs variation strength on MPcc1/MNcc1 (worst PVT): "
              "sigma, drv_mV\n");
  for (const double s : {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    CellVariation v;
    v.mpcc1 = -s;
    v.mncc1 = -s;
    const PvtDrvResult worst = analyzer.drv_worst(v);
    std::printf("%.1f, %.1f\n", s, worst.drv.drv1 * 1e3);
  }

  // Flip-time model: how long below DRV before data is lost.
  const FlipTimeModel flip;
  std::printf("\n# time-to-flip vs deficit below DRV: deficit_mV, t25_s, "
              "t125_s\n");
  for (const double d : {0.002, 0.005, 0.01, 0.02, 0.05, 0.1}) {
    std::printf("%.0f, %.2e, %.2e\n", d * 1e3,
                flip.time_to_flip(0.72 - d, 0.72, 25.0),
                flip.time_to_flip(0.72 - d, 0.72, 125.0));
  }
  std::printf("# -> the paper's 'at least 1 ms in DS mode' and 'test at high "
              "temperature' rules\n");
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
