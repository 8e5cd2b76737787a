// Test-flow optimization (paper Section V, Table III).
//
// The naive flow runs March m-LZ at all 12 combinations of VDD (1.0/1.1/1.2)
// and Vref (4 levels). The optimizer builds a detection matrix — minimal
// DRF-causing resistance per defect under each *valid* condition (expected
// Vreg not below the worst-case DRV, otherwise a healthy SRAM would fail) —
// and greedily picks the smallest set of conditions such that every defect
// is exercised at (or near) its most detectable condition. The paper's
// result: 3 iterations, a 75% test-time reduction.
#pragma once

#include <span>
#include <vector>

#include "lpsram/march/executor.hpp"
#include "lpsram/testflow/defect_characterization.hpp"

namespace lpsram {

// One candidate test condition = one potential iteration of the flow.
struct TestCondition {
  double vdd = 1.1;
  VrefLevel vref = VrefLevel::V070;
  double ds_time = 1e-3;

  double expected_vreg() const noexcept { return vdd * vref_fraction(vref); }
  std::string str() const;
};

// All 12 VDD x Vref combinations.
std::vector<TestCondition> all_test_conditions(const Technology& tech);

// Minimal DRF-causing resistance per (condition, defect).
struct DetectionMatrix {
  std::vector<TestCondition> conditions;
  std::vector<DefectId> defects;
  // rmin[c][d]; values > r_high mean "not detectable under this condition".
  std::vector<std::vector<double>> rmin;
  double r_high = 500e6;
  // Solve accounting for the probed (condition, defect) entries: quarantined
  // entries read as "not detectable" in rmin and are listed here so the
  // optimized flow states what fraction of the matrix it trusts.
  SweepReport sweep;
  // Executor/chain/solve telemetry of the matrix build.
  SweepTelemetry telemetry;
};

struct FlowIteration {
  TestCondition condition;
  // Defects whose detection this iteration maximizes (within margin of the
  // globally smallest Rmin).
  std::vector<DefectId> maximized;
  // Every defect this iteration can detect at all.
  std::vector<DefectId> detected;
};

struct OptimizedFlow {
  std::vector<FlowIteration> iterations;
  std::size_t naive_iterations = 12;
  // Defects undetectable under every valid condition (e.g. pure gate
  // defects) — excluded from the coverage requirement.
  std::vector<DefectId> undetectable;

  // Test-time reduction vs the naive flow, e.g. 0.75 for 3 of 12.
  double time_reduction(const MarchTest& test, std::size_t words,
                        double cycle_time) const;
};

// How to turn the detection matrix into a flow.
enum class FlowStrategy {
  // The paper's Table III construction: one iteration per VDD level, each
  // using the lowest Vref whose expected Vreg still clears the worst-case
  // DRV — the supply itself is a test condition, so every VDD corner is
  // exercised once. Yields 3 iterations (75% reduction vs 12).
  PaperPerVddLevel,
  // Unconstrained greedy set cover: the smallest set of conditions such
  // that every detectable defect is exercised at (or near) its most
  // detectable condition. May beat the paper's iteration count when defect
  // optima coincide.
  GreedyMinimal,
};

struct FlowOptimizerOptions {
  double worst_drv = 0.0;    // 0 = computed from CS1
  double guard = 0.0;        // extra margin above worst_drv for validity
  double best_margin = 2.0;  // "maximized" = rmin <= margin * global best
  Corner corner = Corner::FastNSlowP;  // matrix characterization corner
  double temp_c = 125.0;               // paper: test at high temperature
  double ds_time = 1e-3;
  double r_low = 1.0;
  double r_high = 500e6;
  double rel_tolerance = 1.05;
  FlowStrategy strategy = FlowStrategy::PaperPerVddLevel;
  FlipTimeModel flip{};
  // Quarantine failing matrix entries instead of aborting the build (the
  // entry then reads "not detectable"); false = fail-fast.
  bool quarantine = true;
  // Executor worker count for the (condition x defect) probe grid: 0 =
  // automatic. Results are bit-identical at any thread count: each entry's
  // bisection warm-starts from the operating points its task has solved.
  int threads = 0;
  // Durable campaign (non-owning, may be null): completed (condition x
  // defect) entries are journaled as they finish; a resumed build_matrix
  // replays them and produces a matrix bit-identical to an uninterrupted
  // run. The journal must carry the same options (manifest fingerprint).
  Campaign* campaign = nullptr;
  // Cooperative cancellation for every probe solve (non-owning, may be
  // null): polled per Newton iteration; cancelled entries quarantine as
  // SolveTimeout.
  const CancelToken* cancel = nullptr;
};

class FlowOptimizer {
 public:
  using Options = FlowOptimizerOptions;

  explicit FlowOptimizer(const Technology& tech, Options options = {});

  // Builds the detection matrix for the given defects, judging retention of
  // the CS1 worst-case cell. Each valid (condition, defect) entry is an
  // independent executor task; the reduction runs in (condition, defect)
  // order, so the matrix is bit-identical at any thread count.
  DetectionMatrix build_matrix(std::span<const DefectId> defects) const;

  // Builds the flow per the configured strategy.
  OptimizedFlow optimize(const DetectionMatrix& matrix) const;
  // The two strategies, invokable directly.
  OptimizedFlow optimize_paper(const DetectionMatrix& matrix) const;
  OptimizedFlow optimize_greedy(const DetectionMatrix& matrix) const;

  double worst_drv() const noexcept { return worst_drv_; }
  const Options& options() const noexcept { return options_; }

 private:
  bool condition_valid(const TestCondition& condition) const noexcept;

  Technology tech_;
  Options options_;
  double worst_drv_ = 0.0;
};

}  // namespace lpsram
