#include "lpsram/testflow/defect_characterization.hpp"

#include <algorithm>
#include <cmath>

#include "lpsram/runtime/sweep.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/rootfind.hpp"

namespace lpsram {

VrefLevel vref_for_vdd(double vdd, double worst_drv) {
  // Lowest Vref whose expected Vreg still clears the worst-case DRV.
  VrefLevel best = VrefLevel::V078;
  double best_vreg = vdd * vref_fraction(best);
  for (const VrefLevel level : kAllVrefLevels) {
    const double vreg = vdd * vref_fraction(level);
    if (vreg >= worst_drv && vreg < best_vreg) {
      best = level;
      best_vreg = vreg;
    }
  }
  return best;
}

DefectCharacterizer::DefectCharacterizer(const Technology& tech,
                                         DefectCharacterizationOptions options)
    : tech_(tech), options_(std::move(options)) {
  // A bad option throws here, once, rather than in (and quarantining)
  // every task of the sweep.
  check_log_bisection(options_.r_low, options_.r_high, options_.rel_tolerance,
                      "DefectCharacterizationOptions");
  if (!(options_.ds_time > 0.0) || !std::isfinite(options_.ds_time))
    throw InvalidArgument(
        "DefectCharacterizationOptions: need a finite ds_time > 0");
  if (!(options_.worst_drv >= 0.0) || !std::isfinite(options_.worst_drv))
    throw InvalidArgument(
        "DefectCharacterizationOptions: need a finite worst_drv >= 0");
  if (options_.pvt.empty()) options_.pvt = full_pvt_grid(tech_);
  worst_drv_ = options_.worst_drv;
  if (worst_drv_ <= 0.0) {
    const CaseStudyDrv cs1 = characterize_case_study(tech_, case_study(1, true));
    worst_drv_ = cs1.drv_ds();
  }
}

double DefectCharacterizer::cs_drv(const CaseStudy& cs, Corner corner,
                                   double temp_c) const {
  const auto key =
      std::make_tuple(cs.index, static_cast<int>(corner), key_bits(temp_c));
  // Computed under the lock: the DRV search is deterministic and observer-
  // free, and holding the lock avoids duplicate work when two tasks race to
  // the same (cs, corner, temp) entry.
  const std::lock_guard<std::mutex> lock(drv_mutex_);
  const auto found = drv_cache_.find(key);
  if (found != drv_cache_.end()) return found->second;

  const CoreCell cell(tech_, cs.variation, corner);
  const double drv = drv_hold(cell, cs.attacked_bit(), temp_c);
  drv_cache_.emplace(key, drv);
  return drv;
}

std::vector<std::vector<DefectCsResult>> DefectCharacterizer::table(
    std::span<const DefectId> defects, std::span<const CaseStudy> case_studies,
    SweepTelemetry* total) const {
  // One task per (defect, case study, PVT point); each task bisects the
  // whole resistance range independently. (PR 1's early-skip against the
  // running minimum was inherently order-dependent and is gone: tasks must
  // not observe each other's results for the parallel reduction to be
  // bit-identical to the serial one.)
  struct Task {
    std::size_t cell = 0;       // row-major index into (defects x cs)
    DefectId id = 0;
    const CaseStudy* cs = nullptr;
    std::size_t pvt_index = 0;
  };
  const std::size_t grid = options_.pvt.size();
  std::vector<Task> tasks;
  tasks.reserve(defects.size() * case_studies.size() * grid);
  for (std::size_t d = 0; d < defects.size(); ++d)
    for (std::size_t c = 0; c < case_studies.size(); ++c)
      for (std::size_t p = 0; p < grid; ++p)
        tasks.push_back(
            {d * case_studies.size() + c, defects[d], &case_studies[c], p});

  SweepRunner runner(options_.threads);

  // Worker-slot-private characterizers, one per case study actually touched
  // (the weak cells of the case study load the regulator, so instances
  // cannot be shared across case studies — nor across workers, as they
  // carry mutable solve state).
  struct WorkerState {
    std::map<int, std::unique_ptr<RegulatorCharacterizer>> chars;
  };
  std::vector<WorkerState> workers(static_cast<std::size_t>(runner.threads()));

  const auto characterizer_for = [&](int worker,
                                     const CaseStudy& cs) -> RegulatorCharacterizer& {
    auto& chars = workers[static_cast<std::size_t>(worker)].chars;
    auto found = chars.find(cs.index);
    if (found == chars.end()) {
      ArrayLoadModel::Options load;
      load.total_cells = 256 * 1024;
      load.weak_cells = cs.cell_count > 1 ? cs.cell_count : 0;
      if (load.weak_cells > 0) {
        // Weak-cell DRV for the load model: typical-corner hot value.
        load.weak_drv = cs_drv(cs, Corner::Typical, 125.0);
      }
      found = chars
                  .emplace(cs.index, std::make_unique<RegulatorCharacterizer>(
                                         tech_, load, options_.flip))
                  .first;
      found->second->set_cancel(options_.cancel);
    }
    return *found->second;
  };

  constexpr std::uint64_t kSalt = 0x7461626c653249ULL;  // "table2I"
  SweepPlan plan;
  plan.salt = kSalt;
  plan.count = tasks.size();
  // Task identity: a pure function of what the task computes, shared by
  // characterize() and table() so both produce identical cells — and stable
  // across runs, which is what lets a campaign journal replay it.
  plan.key_of = [&tasks](std::size_t t) {
    const Task& task = tasks[t];
    return fold_key(
        fold_key(fold_key(fold_key(kSalt, static_cast<std::uint64_t>(task.id)),
                          static_cast<std::uint64_t>(task.cs->index)),
                 task.cs->degrades_one ? 1u : 0u),
        task.pvt_index);
  };

  // Campaign manifest: everything that shapes a task's result. Resuming a
  // journal recorded with a different grid or tolerance must be refused,
  // not silently mixed.
  std::uint64_t fp = fold_key(kSalt, tasks.size());
  for (const DefectId id : defects)
    fp = fold_key(fp, static_cast<std::uint64_t>(id));
  for (const CaseStudy& cs : case_studies)
    fp = fold_key(fold_key(fp, static_cast<std::uint64_t>(cs.index)),
                  cs.degrades_one ? 1u : 0u);
  for (const PvtPoint& pvt : options_.pvt) {
    fp = fold_key(fp, static_cast<std::uint64_t>(pvt.corner));
    fp = fold_key(fp, key_bits(pvt.vdd));
    fp = fold_key(fp, key_bits(pvt.temp_c));
  }
  for (const double v :
       {options_.r_low, options_.r_high, options_.rel_tolerance,
        options_.ds_time, worst_drv_})
    fp = fold_key(fp, key_bits(v));
  plan.fingerprint = fp;

  // Payload: the threshold and its Vref when a DRF fires below r_high,
  // nothing when the point stays open.
  plan.task = [&](SweepTask& sweep_task) {
    const Task& task = tasks[sweep_task.index];
    const PvtPoint& pvt = options_.pvt[task.pvt_index];
    RegulatorCharacterizer& characterizer =
        characterizer_for(sweep_task.worker, *task.cs);
    characterizer.start_task(&sweep_task.chain);
    sweep_task.count_solves(
        [&characterizer] { return characterizer.solve_telemetry(); });

    DsCondition condition;
    condition.corner = pvt.corner;
    condition.vdd = pvt.vdd;
    condition.vref = vref_for_vdd(pvt.vdd, worst_drv_);
    condition.temp_c = pvt.temp_c;
    condition.ds_time = options_.ds_time;

    const double drv = cs_drv(*task.cs, pvt.corner, pvt.temp_c);
    // Gate-site defects batch each bisection round's speculative probes
    // into one lockstep transient run (characterize.hpp); everything else
    // is the scalar monotone_threshold_log over causes_drf.
    const double r = characterizer.drf_threshold(
        condition, task.id, options_.r_low, options_.r_high,
        options_.rel_tolerance, drv);
    PayloadWriter out;
    if (r <= options_.r_high) {
      out.f64(r);
      out.u8(static_cast<std::uint8_t>(condition.vref));
    }
    return out.take();
  };
  plan.context = [&](std::size_t t) {
    const Task& task = tasks[t];
    return "Df" + std::to_string(task.id) + " x " + task.cs->name() + " @ " +
           pvt_name(options_.pvt[task.pvt_index]);
  };
  plan.quarantine = options_.quarantine;
  plan.cancel = options_.cancel;
  plan.cancel_label = "DefectCharacterizer";
  const SweepRun run = runner.run(plan, options_.campaign);

  // Index-ordered reduction: PVT-grid order within each cell, exactly the
  // order the serial loop used.
  std::vector<std::vector<DefectCsResult>> rows(defects.size());
  for (std::size_t d = 0; d < defects.size(); ++d) {
    rows[d].resize(case_studies.size());
    for (std::size_t c = 0; c < case_studies.size(); ++c) {
      DefectCsResult& result = rows[d][c];
      result.id = defects[d];
      result.cs_name = case_studies[c].name();
      result.min_resistance = options_.r_high * 2.0;
      result.open_only = true;
      result.telemetry.tasks = grid;
      result.telemetry.threads = runner.threads();
    }
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const Task& task = tasks[t];
    const SweepResult& outcome = run.tasks[t];
    DefectCsResult& result = rows[task.cell / case_studies.size()]
                                 [task.cell % case_studies.size()];
    result.telemetry.solves.merge(outcome.solves);
    result.telemetry.cpu_s += outcome.wall_s;

    if (outcome.quarantined) {
      // Partial results beat none: record the point as untrusted and keep
      // the rest of the grid.
      result.sweep.quarantine(*outcome.quarantined);
      continue;
    }
    result.sweep.add_success();
    PayloadReader in(outcome.payload);
    if (in.done()) continue;  // no DRF below r_high at this point
    const double threshold = in.f64();
    const auto vref = static_cast<VrefLevel>(in.u8());
    if (threshold < result.min_resistance) {
      result.min_resistance = threshold;
      result.open_only = false;
      result.worst_pvt = options_.pvt[task.pvt_index];
      result.vref_at_worst = vref;
    }
  }
  for (auto& row : rows)
    for (DefectCsResult& result : row)
      if (result.open_only) result.min_resistance = options_.r_high;

  if (total) *total = run.telemetry;
  return rows;
}

DefectCsResult DefectCharacterizer::characterize(DefectId id,
                                                 const CaseStudy& cs) const {
  SweepTelemetry total;
  std::vector<std::vector<DefectCsResult>> rows =
      table({&id, 1}, {&cs, 1}, &total);
  DefectCsResult result = std::move(rows[0][0]);
  result.telemetry.wall_s = total.wall_s;  // single cell: sweep == cell
  return result;
}

}  // namespace lpsram
