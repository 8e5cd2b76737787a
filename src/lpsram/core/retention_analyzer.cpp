#include "lpsram/core/retention_analyzer.hpp"

#include <cstdio>

#include "lpsram/runtime/sweep.hpp"
#include "lpsram/testflow/case_studies.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram {

SnmPair RetentionAnalyzer::snm(const CellVariation& variation, double vdd_cc,
                               Corner corner, double temp_c) const {
  const CoreCell cell(tech_, variation, corner);
  return hold_snm_pair(cell, vdd_cc, temp_c);
}

DrvResult RetentionAnalyzer::drv(const CellVariation& variation, Corner corner,
                                 double temp_c) const {
  const CoreCell cell(tech_, variation, corner);
  return drv_ds(cell, temp_c);
}

PvtDrvResult RetentionAnalyzer::drv_worst(const CellVariation& variation) const {
  return drv_ds_worst(tech_, variation);
}

std::vector<Fig4Point> RetentionAnalyzer::fig4_sweep(
    std::span<const double> sigmas, std::span<const Corner> corners,
    std::span<const double> temps, SweepReport* report,
    SweepTelemetry* telemetry, int threads, Campaign* campaign,
    const CancelToken* cancel) const {
  const std::span<const Corner> corner_grid =
      corners.empty() ? std::span<const Corner>(kAllCorners) : corners;
  const std::span<const double> temp_grid =
      temps.empty() ? std::span<const double>(tech_.temperatures()) : temps;

  // One executor task per (transistor, sigma) point, enumerated in the
  // serial order; quarantined points are skipped during the index-ordered
  // collection below, so the surviving points keep their relative order.
  struct Task {
    CellTransistor transistor;
    double sigma = 0.0;
  };
  std::vector<Task> tasks;
  tasks.reserve(sigmas.size() * kAllCellTransistors.size());
  for (const CellTransistor t : kAllCellTransistors)
    for (const double sigma : sigmas) tasks.push_back({t, sigma});

  constexpr std::uint64_t kSalt = 0x66696734ULL;  // "fig4"
  SweepPlan plan;
  plan.salt = kSalt;
  plan.count = tasks.size();
  // Stable task identity — also the campaign journal key for the point.
  plan.key_of = [&tasks](std::size_t i) {
    return fold_key(
        fold_key(kSalt, static_cast<std::uint64_t>(tasks[i].transistor)), i);
  };

  // Campaign manifest: sigma list and the PVT grid the worst case is taken
  // over. Resuming a journal recorded for a different grid is refused.
  std::uint64_t fp = fold_key(kSalt, tasks.size());
  for (const double sigma : sigmas) fp = fold_key(fp, key_bits(sigma));
  for (const Corner corner : corner_grid)
    fp = fold_key(fp, static_cast<std::uint64_t>(corner));
  for (const double temp : temp_grid) fp = fold_key(fp, key_bits(temp));
  plan.fingerprint = fp;

  // Payload: the DRV pair (transistor and sigma are re-derived from the task
  // index in the collection below). The DRV search is observer-free
  // cell-layer code; the runner scopes the task anyway, since no executor
  // task may share a session observer instance with a concurrent one.
  plan.task = [&](SweepTask& sweep_task) {
    const Task& task = tasks[sweep_task.index];
    CellVariation variation;
    variation.set(task.transistor, task.sigma);
    const PvtDrvResult worst =
        drv_ds_worst(tech_, variation, corner_grid, temp_grid);
    PayloadWriter out;
    out.f64(worst.drv.drv1);
    out.f64(worst.drv.drv0);
    return out.take();
  };
  plan.context = [&tasks](std::size_t i) {
    char context[64];
    std::snprintf(context, sizeof(context), "%s @ %+.1f sigma",
                  cell_transistor_name(tasks[i].transistor).c_str(),
                  tasks[i].sigma);
    return std::string(context);
  };
  plan.quarantine = report != nullptr;
  plan.cancel = cancel;
  plan.cancel_label = "fig4_sweep";
  const SweepRun run = SweepRunner(threads).run(plan, campaign);

  // Index-ordered collection.
  std::vector<Fig4Point> points;
  points.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (run.tasks[i].quarantined) continue;
    PayloadReader in(run.tasks[i].payload);
    const double drv1 = in.f64();
    points.push_back(
        Fig4Point{tasks[i].transistor, tasks[i].sigma, drv1, in.f64()});
  }
  if (report) report->merge(run.report);
  if (telemetry) *telemetry = run.telemetry;
  return points;
}

double RetentionAnalyzer::worst_case_drv() const {
  return characterize_case_study(tech_, case_study(1, true)).drv_ds();
}

}  // namespace lpsram
