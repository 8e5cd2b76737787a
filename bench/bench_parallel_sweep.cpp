// PAR: serial-vs-parallel comparison of the Table II sweep executor — the
// machinery behind every sweep driver (DefectCharacterizer, FlowOptimizer,
// RetentionAnalyzer, regulator characterization).
//
// Two runs of the same reduced-grid Table II slice, each task warm-starting
// from its own operating-point chain:
//   1. serial   (baseline);
//   2. parallel (the production configuration).
// Verifies both produce bit-identical minimal resistances (the executor's
// determinism contract), reports the chain's hit rate, then writes the
// measurements to BENCH_parallel.json.
//
// Usage: bench_parallel_sweep [--threads N] [--full]
//   --threads N: worker count of the parallel run (default: LPSRAM_THREADS
//                env, else hardware concurrency — on a 1-CPU host the
//                "parallel" run degenerates to serial and speedup ~1).
//   --full:      all 17 DRF-causing defects on a 9-point grid instead of the
//                5-defect 2-point slice.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "build_type_warning.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/testflow/defect_characterization.hpp"
#include "lpsram/util/units.hpp"

using namespace lpsram;

namespace {

struct RunResult {
  std::vector<std::vector<DefectCsResult>> rows;
  SweepTelemetry telemetry;
};

RunResult run(const Technology& tech, const DefectCharacterizationOptions& base,
              std::span<const DefectId> defects,
              std::span<const CaseStudy> case_studies, int threads) {
  DefectCharacterizationOptions options = base;
  options.threads = threads;
  const DefectCharacterizer characterizer(tech, options);
  RunResult result;
  result.rows = characterizer.table(defects, case_studies, &result.telemetry);
  return result;
}

bool bit_identical(const RunResult& a, const RunResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    for (std::size_t j = 0; j < a.rows[i].size(); ++j) {
      const DefectCsResult& x = a.rows[i][j];
      const DefectCsResult& y = b.rows[i][j];
      if (x.min_resistance != y.min_resistance || x.open_only != y.open_only ||
          x.vref_at_worst != y.vref_at_worst ||
          x.worst_pvt.corner != y.worst_pvt.corner ||
          x.worst_pvt.vdd != y.worst_pvt.vdd ||
          x.sweep.completed() != y.sweep.completed())
        return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  lpsram::bench::warn_if_debug_build();
  bool full = false;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0)
      full = true;
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = std::atoi(argv[++i]);
  }
  if (threads == 0) threads = SweepExecutor::default_threads();

  const Technology tech = Technology::lp40nm();

  DefectCharacterizationOptions options;
  options.rel_tolerance = 1.10;
  if (full) {
    for (const Corner corner :
         {Corner::FastNSlowP, Corner::SlowNFastP, Corner::Typical})
      for (const double vdd : tech.vdd_levels())
        options.pvt.push_back(PvtPoint{corner, vdd, 125.0});
  } else {
    options.pvt = {PvtPoint{Corner::FastNSlowP, 1.0, 125.0},
                   PvtPoint{Corner::Typical, 1.1, 125.0}};
  }

  std::vector<DefectId> defects;
  if (full)
    defects.assign(table2_defects().begin(), table2_defects().end());
  else
    defects = {7, 16, 19, 23, 29};
  const std::vector<CaseStudy> case_studies = {case_study(1, true)};

  std::printf("PAR — sweep executor on the Table II slice "
              "(%zu defects x %zu PVT points, %d workers)\n\n",
              defects.size(), options.pvt.size(), threads);

  const RunResult serial = run(tech, options, defects, case_studies, 1);
  std::printf("serial  : %s\n", serial.telemetry.summary().c_str());

  const RunResult parallel =
      run(tech, options, defects, case_studies, threads);
  std::printf("parallel: %s\n", parallel.telemetry.summary().c_str());

  const bool identical = bit_identical(serial, parallel);
  const double speedup = parallel.telemetry.wall_s > 0.0
                             ? serial.telemetry.wall_s / parallel.telemetry.wall_s
                             : 0.0;

  std::printf("\nserial -> parallel speedup: %.2fx at %d workers\n", speedup,
              threads);
  std::printf("cache hit rate:             %.1f%%\n",
              100.0 * parallel.telemetry.cache_hit_rate());
  std::printf("parallel bit-identical to serial: %s\n",
              identical ? "yes" : "NO (BUG)");

  FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n"
                 "  \"tasks\": %zu,\n"
                 "  \"threads\": %d,\n"
                 "  \"serial_wall_s\": %.6f,\n"
                 "  \"parallel_wall_s\": %.6f,\n"
                 "  \"speedup\": %.4f,\n"
                 "  \"cache_hit_rate\": %.4f,\n"
                 "  \"solves\": %llu,\n"
                 "  \"bit_identical\": %s\n"
                 "}\n",
                 parallel.telemetry.tasks, threads, serial.telemetry.wall_s,
                 parallel.telemetry.wall_s, speedup,
                 parallel.telemetry.cache_hit_rate(),
                 static_cast<unsigned long long>(
                     parallel.telemetry.solves.solves),
                 identical ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_parallel.json\n");
  }
  return identical ? 0 : 1;
}
