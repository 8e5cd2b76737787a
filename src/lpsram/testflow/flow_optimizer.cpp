#include "lpsram/testflow/flow_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "lpsram/runtime/sweep.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/rootfind.hpp"

namespace lpsram {

std::string TestCondition::str() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "VDD=%.1fV, Vref=%s (Vreg=%.3fV)", vdd,
                vref_name(vref).c_str(), expected_vreg());
  return buf;
}

std::vector<TestCondition> all_test_conditions(const Technology& tech) {
  std::vector<TestCondition> conditions;
  for (const double vdd : tech.vdd_levels()) {
    for (const VrefLevel level : kAllVrefLevels) {
      conditions.push_back(TestCondition{vdd, level, 1e-3});
    }
  }
  return conditions;
}

double OptimizedFlow::time_reduction(const MarchTest& test, std::size_t words,
                                     double cycle_time) const {
  const double per_run =
      march_test_time(test, words, cycle_time, iterations.empty()
                                                   ? 1e-3
                                                   : iterations[0].condition.ds_time);
  const double optimized =
      per_run * static_cast<double>(iterations.size());
  const double naive = per_run * static_cast<double>(naive_iterations);
  return naive > 0.0 ? 1.0 - optimized / naive : 0.0;
}

FlowOptimizer::FlowOptimizer(const Technology& tech, Options options)
    : tech_(tech), options_(options) {
  // A bad option throws here, once, rather than in (and quarantining)
  // every entry of the matrix.
  check_log_bisection(options_.r_low, options_.r_high, options_.rel_tolerance,
                      "FlowOptimizerOptions");
  if (!(options_.ds_time > 0.0) || !std::isfinite(options_.ds_time))
    throw InvalidArgument("FlowOptimizerOptions: need a finite ds_time > 0");
  if (!(options_.worst_drv >= 0.0) || !std::isfinite(options_.worst_drv))
    throw InvalidArgument("FlowOptimizerOptions: need a finite worst_drv >= 0");
  for (const double v : {options_.temp_c, options_.guard, options_.best_margin})
    if (!std::isfinite(v))
      throw InvalidArgument(
          "FlowOptimizerOptions: temp_c, guard and best_margin must be finite");
  worst_drv_ = options_.worst_drv;
  if (worst_drv_ <= 0.0)
    worst_drv_ = characterize_case_study(tech_, case_study(1, true)).drv_ds();
}

bool FlowOptimizer::condition_valid(const TestCondition& condition) const noexcept {
  // A healthy SRAM must pass: the regulated voltage may not sit below the
  // worst-case DRV.
  return condition.expected_vreg() >= worst_drv_ + options_.guard;
}

DetectionMatrix FlowOptimizer::build_matrix(
    std::span<const DefectId> defects) const {
  DetectionMatrix matrix;
  matrix.conditions = all_test_conditions(tech_);
  matrix.defects.assign(defects.begin(), defects.end());
  matrix.r_high = options_.r_high;

  // Retention is judged on the CS1 worst-case cell at the matrix corner.
  const CaseStudy cs1 = case_study(1, true);
  const CoreCell cell(tech_, cs1.variation, options_.corner);
  const double drv = drv_hold(cell, cs1.attacked_bit(), options_.temp_c);

  // One executor task per valid (condition, defect) entry; invalid
  // conditions are never probed (a healthy SRAM would fail there) and keep
  // the "not detectable" sentinel.
  struct Task {
    std::size_t ci = 0;
    std::size_t di = 0;
  };
  std::vector<Task> tasks;
  matrix.rmin.resize(matrix.conditions.size());
  for (std::size_t ci = 0; ci < matrix.conditions.size(); ++ci) {
    matrix.rmin[ci].assign(matrix.defects.size(), options_.r_high * 2.0);
    if (!condition_valid(matrix.conditions[ci])) continue;
    for (std::size_t di = 0; di < matrix.defects.size(); ++di)
      tasks.push_back({ci, di});
  }

  constexpr std::uint64_t kSalt = 0x7461626c653349ULL;  // "table3I"
  SweepPlan plan;
  plan.salt = kSalt;
  plan.count = tasks.size();
  // Stable task identity (condition index x defect) — also the campaign
  // journal key for the entry.
  plan.key_of = [&](std::size_t t) {
    return fold_key(fold_key(kSalt, tasks[t].ci),
                    static_cast<std::uint64_t>(matrix.defects[tasks[t].di]));
  };

  // Campaign manifest: the condition grid, defect list and every knob that
  // shapes an entry. A journal recorded under different options is refused.
  std::uint64_t fp = fold_key(kSalt, tasks.size());
  for (const TestCondition& tc : matrix.conditions) {
    fp = fold_key(fp, key_bits(tc.vdd));
    fp = fold_key(fp, static_cast<std::uint64_t>(tc.vref));
    fp = fold_key(fp, key_bits(tc.ds_time));
  }
  for (const DefectId id : matrix.defects)
    fp = fold_key(fp, static_cast<std::uint64_t>(id));
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.corner));
  for (const double v : {options_.temp_c, options_.r_low, options_.r_high,
                         options_.rel_tolerance, worst_drv_, options_.guard,
                         drv})
    fp = fold_key(fp, key_bits(v));
  plan.fingerprint = fp;

  SweepRunner runner(options_.threads);
  // One characterizer per worker slot: instances carry mutable solve state
  // and must not be shared across concurrent tasks.
  std::vector<std::unique_ptr<RegulatorCharacterizer>> workers(
      static_cast<std::size_t>(runner.threads()));
  ArrayLoadModel::Options load;
  load.total_cells = 256 * 1024;

  // Payload: the entry's Rmin.
  plan.task = [&](SweepTask& sweep_task) {
    const Task& task = tasks[sweep_task.index];
    const TestCondition& tc = matrix.conditions[task.ci];
    const DefectId id = matrix.defects[task.di];

    auto& characterizer = workers[static_cast<std::size_t>(sweep_task.worker)];
    if (!characterizer) {
      characterizer =
          std::make_unique<RegulatorCharacterizer>(tech_, load, options_.flip);
      characterizer->set_cancel(options_.cancel);
    }
    characterizer->start_task(&sweep_task.chain);
    sweep_task.count_solves(
        [&characterizer] { return characterizer->solve_telemetry(); });

    DsCondition condition;
    condition.corner = options_.corner;
    condition.vdd = tc.vdd;
    condition.vref = tc.vref;
    condition.temp_c = options_.temp_c;
    condition.ds_time = tc.ds_time;
    PayloadWriter out;
    out.f64(monotone_threshold_log(
        [&](double ohms) {
          return characterizer->causes_drf(condition, id, ohms, drv);
        },
        options_.r_low, options_.r_high, options_.rel_tolerance));
    return out.take();
  };
  plan.context = [&](std::size_t t) {
    return matrix.conditions[tasks[t].ci].str() + " x Df" +
           std::to_string(matrix.defects[tasks[t].di]);
  };
  plan.quarantine = options_.quarantine;
  plan.cancel = options_.cancel;
  plan.cancel_label = "FlowOptimizer";
  const SweepRun run = runner.run(plan, options_.campaign);

  // (condition, defect)-ordered reduction, matching the serial loop. A
  // quarantined entry keeps the "not detectable" sentinel and stays in the
  // coverage accounting.
  matrix.sweep = run.report;
  matrix.telemetry = run.telemetry;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (run.tasks[t].quarantined) continue;
    PayloadReader in(run.tasks[t].payload);
    matrix.rmin[tasks[t].ci][tasks[t].di] = in.f64();
  }
  return matrix;
}

OptimizedFlow FlowOptimizer::optimize(const DetectionMatrix& matrix) const {
  return options_.strategy == FlowStrategy::PaperPerVddLevel
             ? optimize_paper(matrix)
             : optimize_greedy(matrix);
}

namespace {

// Per-defect global best Rmin over all conditions of the matrix.
std::vector<double> global_best(const DetectionMatrix& matrix) {
  std::vector<double> best(matrix.defects.size(), matrix.r_high * 2.0);
  for (const auto& row : matrix.rmin)
    for (std::size_t di = 0; di < best.size(); ++di)
      best[di] = std::min(best[di], row[di]);
  return best;
}

}  // namespace

OptimizedFlow FlowOptimizer::optimize_paper(const DetectionMatrix& matrix) const {
  OptimizedFlow flow;
  flow.naive_iterations = matrix.conditions.size();

  const std::vector<double> best = global_best(matrix);
  for (std::size_t di = 0; di < matrix.defects.size(); ++di)
    if (best[di] > matrix.r_high)
      flow.undetectable.push_back(matrix.defects[di]);

  // Collect the distinct VDD levels present in the matrix, ascending.
  std::vector<double> vdds;
  for (const TestCondition& tc : matrix.conditions)
    if (std::find(vdds.begin(), vdds.end(), tc.vdd) == vdds.end())
      vdds.push_back(tc.vdd);
  std::sort(vdds.begin(), vdds.end());

  for (const double vdd : vdds) {
    // The paper's setup rule: for this supply, the valid condition whose
    // expected Vreg sits closest above the worst-case DRV.
    std::size_t chosen = matrix.conditions.size();
    double chosen_vreg = 1e9;
    for (std::size_t ci = 0; ci < matrix.conditions.size(); ++ci) {
      const TestCondition& tc = matrix.conditions[ci];
      if (tc.vdd != vdd || !condition_valid(tc)) continue;
      if (tc.expected_vreg() < chosen_vreg) {
        chosen_vreg = tc.expected_vreg();
        chosen = ci;
      }
    }
    if (chosen == matrix.conditions.size()) continue;  // no valid Vref here

    FlowIteration iteration;
    iteration.condition = matrix.conditions[chosen];
    for (std::size_t di = 0; di < matrix.defects.size(); ++di) {
      const double r = matrix.rmin[chosen][di];
      if (r <= matrix.r_high) iteration.detected.push_back(matrix.defects[di]);
      if (r <= matrix.r_high && r <= options_.best_margin * best[di])
        iteration.maximized.push_back(matrix.defects[di]);
    }
    flow.iterations.push_back(std::move(iteration));
  }

  if (flow.iterations.empty())
    throw Error("FlowOptimizer: no valid test condition at any VDD level");
  return flow;
}

OptimizedFlow FlowOptimizer::optimize_greedy(const DetectionMatrix& matrix) const {
  OptimizedFlow flow;

  const std::size_t n_cond = matrix.conditions.size();
  const std::size_t n_def = matrix.defects.size();

  // Global best Rmin per defect over valid conditions.
  std::vector<double> best(n_def, matrix.r_high * 2.0);
  for (std::size_t ci = 0; ci < n_cond; ++ci)
    for (std::size_t di = 0; di < n_def; ++di)
      best[di] = std::min(best[di], matrix.rmin[ci][di]);

  // Coverage sets: condition ci covers defect di if it detects it near its
  // global best.
  std::vector<std::vector<bool>> covers(n_cond, std::vector<bool>(n_def));
  for (std::size_t ci = 0; ci < n_cond; ++ci)
    for (std::size_t di = 0; di < n_def; ++di)
      covers[ci][di] = matrix.rmin[ci][di] <= matrix.r_high &&
                       matrix.rmin[ci][di] <= options_.best_margin * best[di];

  std::vector<bool> needed(n_def, true);
  for (std::size_t di = 0; di < n_def; ++di) {
    if (best[di] > matrix.r_high) {
      needed[di] = false;  // undetectable everywhere
      flow.undetectable.push_back(matrix.defects[di]);
    }
  }

  // Greedy set cover; ties broken toward the condition with the lowest
  // expected Vreg (closest to the worst-case DRV — most sensitive).
  std::vector<bool> used(n_cond, false);
  while (true) {
    std::size_t remaining = 0;
    for (std::size_t di = 0; di < n_def; ++di)
      if (needed[di]) ++remaining;
    if (remaining == 0) break;

    std::size_t best_ci = n_cond;
    std::size_t best_gain = 0;
    double best_vreg = 1e9;
    for (std::size_t ci = 0; ci < n_cond; ++ci) {
      if (used[ci]) continue;
      std::size_t gain = 0;
      for (std::size_t di = 0; di < n_def; ++di)
        if (needed[di] && covers[ci][di]) ++gain;
      const double vreg = matrix.conditions[ci].expected_vreg();
      if (gain > best_gain || (gain == best_gain && gain > 0 && vreg < best_vreg)) {
        best_gain = gain;
        best_ci = ci;
        best_vreg = vreg;
      }
    }
    if (best_ci == n_cond || best_gain == 0)
      throw Error("FlowOptimizer: cannot cover all detectable defects");

    used[best_ci] = true;
    FlowIteration iteration;
    iteration.condition = matrix.conditions[best_ci];
    for (std::size_t di = 0; di < n_def; ++di) {
      if (covers[best_ci][di]) {
        iteration.maximized.push_back(matrix.defects[di]);
        needed[di] = false;
      }
      if (matrix.rmin[best_ci][di] <= matrix.r_high)
        iteration.detected.push_back(matrix.defects[di]);
    }
    flow.iterations.push_back(std::move(iteration));
  }

  flow.naive_iterations = n_cond;
  return flow;
}

}  // namespace lpsram
