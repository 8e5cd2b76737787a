#include "lpsram/regulator/characterize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "lpsram/runtime/sweep.hpp"
#include "lpsram/spice/batch_transient.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/rootfind.hpp"
#include "lpsram/util/units.hpp"

namespace lpsram {
namespace {

// Transient window used to judge gate-line (delay/undershoot) defects. The
// regulator settles well within this at every PVT point; the remaining DS
// time is extrapolated from the final value.
constexpr double kDsEntryWindow = 30e-6;

// Deficit over the full DS window from a DS-entry waveform: the transient
// integral over the simulated window plus the settled tail extrapolated
// from the final value.
double ds_entry_deficit(const Waveform& wave, double ds_time, double drv) {
  const double transient_deficit = wave.deficit_integral(0, drv);
  const double v_end = wave.values[0].back();
  const double remaining =
      std::max(0.0, ds_time - kDsEntryWindow) * std::max(0.0, drv - v_end);
  return transient_deficit + remaining;
}

}  // namespace

std::string ds_condition_name(const DsCondition& condition) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s, %.1fV, %.0fC",
                corner_name(condition.corner).c_str(), condition.vdd,
                condition.temp_c);
  return buf;
}

RegulationMetrics measure_regulation(const Technology& tech, Corner corner,
                                     VrefLevel vref, SweepReport* report,
                                     SweepTelemetry* telemetry, int threads,
                                     Campaign* campaign,
                                     const CancelToken* cancel) {
  // Probe points: one task per supply level (line regulation), one for the
  // load step, one per temperature (drift). Each task builds and configures
  // its own regulator — the executor contract forbids shared mutable solve
  // state — and all reduction happens afterwards in index order, so the
  // metrics are bit-identical at any thread count.
  enum class Kind { Line, Load, Temp };
  struct Probe {
    Kind kind;
    double value = 0.0;  // vdd for Line, temperature for Temp
    std::string context;
  };
  std::vector<Probe> probes;
  for (const double vdd : tech.vdd_levels()) {
    char context[48];
    std::snprintf(context, sizeof(context), "line regulation @ %.1fV", vdd);
    probes.push_back({Kind::Line, vdd, context});
  }
  probes.push_back({Kind::Load, 0.0, "load regulation @ nominal VDD"});
  for (const double temp : tech.temperatures()) {
    char context[48];
    std::snprintf(context, sizeof(context), "temp drift @ %.0fC", temp);
    probes.push_back({Kind::Temp, temp, context});
  }

  SweepPlan plan;
  // Task identity for chaos forking and the journal: a pure function of
  // (sweep, corner, vref, probe index) — never of scheduling.
  plan.salt = fold_key(fold_key(0x6d656173757265ULL,  // "measure"
                                static_cast<std::uint64_t>(corner)),
                       static_cast<std::uint64_t>(vref));
  plan.count = probes.size();
  plan.key_of = [salt = plan.salt](std::size_t i) { return fold_key(salt, i); };

  // Campaign manifest: the probe grid is the configuration — resuming
  // against a journal recorded for different supply/temperature lists would
  // silently mis-key tasks.
  std::uint64_t fingerprint = fold_key(plan.salt, probes.size());
  for (const double vdd : tech.vdd_levels())
    fingerprint = fold_key(fingerprint, key_bits(vdd));
  for (const double temp : tech.temperatures())
    fingerprint = fold_key(fingerprint, key_bits(temp));
  plan.fingerprint = fingerprint;

  // A task's regulator lives in its worker's slot until the slot's next
  // task replaces it, so its solve counters stay readable after a failure.
  SweepRunner runner(threads);
  std::vector<std::optional<VoltageRegulator>> regulators(
      static_cast<std::size_t>(runner.threads()));

  // Payload: the probe's measured value.
  plan.task = [&](SweepTask& task) {
    const Probe& probe = probes[task.index];
    VoltageRegulator& reg =
        regulators[static_cast<std::size_t>(task.worker)].emplace(tech, corner);
    reg.start_task(&task.chain);
    task.count_solves([&reg] { return reg.solve_telemetry(); });
    reg.set_cancel(cancel);
    reg.select_vref(vref);
    reg.set_regon(true);
    reg.set_power_switch(false);
    double measured = 0.0;
    switch (probe.kind) {
      case Kind::Line: {
        reg.set_vdd(probe.value);
        reg.set_regon(true);
        reg.set_power_switch(false);
        measured = std::fabs(reg.vreg_dc(25.0) - reg.expected_vreg());
        break;
      }
      case Kind::Load: {
        reg.set_vdd(tech.vdd_nominal());
        reg.set_regon(true);
        reg.set_power_switch(false);
        const double v0 = reg.vreg_dc(25.0);
        constexpr double kLoadStep = 100e-6;
        reg.set_test_load(kLoadStep);
        const double v1 = reg.vreg_dc(25.0);
        reg.set_test_load(0.0);
        measured = (v0 - v1) / kLoadStep;
        break;
      }
      case Kind::Temp: {
        const double v25 = reg.vreg_dc(25.0);
        measured = std::fabs(reg.vreg_dc(probe.value) - v25);
        break;
      }
    }
    PayloadWriter out;
    out.f64(measured);
    return out.take();
  };
  plan.context = [&probes](std::size_t i) { return probes[i].context; };
  plan.quarantine = report != nullptr;  // no collector: fail the sweep
  // No task-start cancel poll: the token reaches every Newton iteration.
  const SweepRun run = runner.run(plan, campaign);

  // Index-ordered reduction.
  RegulationMetrics metrics;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (run.tasks[i].quarantined) continue;
    PayloadReader in(run.tasks[i].payload);
    const double measured = in.f64();
    switch (probes[i].kind) {
      case Kind::Line:
        metrics.line_error = std::max(metrics.line_error, measured);
        break;
      case Kind::Load:
        metrics.load_regulation = measured;
        break;
      case Kind::Temp:
        metrics.temp_drift = std::max(metrics.temp_drift, measured);
        break;
    }
  }
  if (report) report->merge(run.report);
  if (telemetry) *telemetry = run.telemetry;
  return metrics;
}

RegulatorCharacterizer::RegulatorCharacterizer(
    const Technology& tech, const ArrayLoadModel::Options& load_options,
    const FlipTimeModel& flip)
    : tech_(tech), load_options_(load_options), flip_(flip) {}

VoltageRegulator& RegulatorCharacterizer::regulator_for(Corner corner) const {
  auto found = regulators_.find(corner);
  if (found == regulators_.end()) {
    found = regulators_
                .emplace(corner, std::make_unique<VoltageRegulator>(
                                     tech_, corner, load_options_))
                .first;
    found->second->start_task(chain_);
    found->second->set_cancel(cancel_);
  }
  return *found->second;
}

void RegulatorCharacterizer::set_cancel(const CancelToken* cancel) {
  cancel_ = cancel;
  for (auto& [corner, reg] : regulators_) reg->set_cancel(cancel);
}

void RegulatorCharacterizer::start_task(OperatingPointChain* chain) {
  chain_ = chain;
  for (auto& [corner, reg] : regulators_) reg->start_task(chain);
}

SolveTelemetry RegulatorCharacterizer::solve_telemetry() const {
  SolveTelemetry total;
  for (const auto& [corner, reg] : regulators_)
    total.merge(reg->solve_telemetry());
  return total;
}

double RegulatorCharacterizer::vreg(const DsCondition& condition, DefectId id,
                                    double ohms) const {
  VoltageRegulator& reg = regulator_for(condition.corner);
  reg.clear_all_defects();
  if (id != 0) reg.inject_defect(id, ohms);
  reg.set_vdd(condition.vdd);
  reg.select_vref(condition.vref);
  reg.set_regon(true);
  reg.set_power_switch(false);
  return reg.vreg_dc(condition.temp_c);
}

double RegulatorCharacterizer::vreg_healthy(const DsCondition& condition) const {
  return vreg(condition, 0, VoltageRegulator::healthy_resistance());
}

double RegulatorCharacterizer::static_power(const DsCondition& condition,
                                            DefectId id, double ohms) const {
  VoltageRegulator& reg = regulator_for(condition.corner);
  reg.clear_all_defects();
  if (id != 0) reg.inject_defect(id, ohms);
  reg.set_vdd(condition.vdd);
  reg.select_vref(condition.vref);
  reg.set_regon(true);
  reg.set_power_switch(false);
  return reg.static_power_dc(condition.temp_c);
}

double RegulatorCharacterizer::retention_deficit(const DsCondition& condition,
                                                 DefectId id, double ohms,
                                                 double drv) const {
  VoltageRegulator& reg = regulator_for(condition.corner);
  reg.clear_all_defects();
  if (id != 0) reg.inject_defect(id, ohms);
  reg.set_vdd(condition.vdd);
  reg.select_vref(condition.vref);

  if (id != 0 && is_gate_site(id)) {
    // Delay/undershoot mechanisms: simulate the actual DS entry.
    TransientOptions topts;
    topts.dt_max = kDsEntryWindow / 100.0;
    Waveform wave =
        reg.simulate_ds_entry(kDsEntryWindow, condition.temp_c, &topts);
    return ds_entry_deficit(wave, condition.ds_time, drv);
  }

  reg.set_regon(true);
  reg.set_power_switch(false);
  const double v = reg.vreg_dc(condition.temp_c);
  return condition.ds_time * std::max(0.0, drv - v);
}

std::vector<double> RegulatorCharacterizer::retention_deficits(
    const DsCondition& condition, DefectId id, std::span<const double> ohms,
    double drv) const {
  std::vector<double> out(ohms.size());
  if (id == 0 || !is_gate_site(id) ||
      kernel_config().transient == Kernel::Reference) {
    // Scalar oracle: the exact per-probe path, one at a time.
    for (std::size_t i = 0; i < ohms.size(); ++i)
      out[i] = retention_deficit(condition, id, ohms[i], drv);
    return out;
  }

  VoltageRegulator& reg = regulator_for(condition.corner);
  reg.clear_all_defects();
  reg.set_vdd(condition.vdd);
  reg.select_vref(condition.vref);
  TransientOptions topts;
  topts.dt_max = kDsEntryWindow / 100.0;
  const std::vector<Waveform> waves = reg.simulate_ds_entry_lanes(
      id, ohms, kDsEntryWindow, condition.temp_c, &topts);
  for (std::size_t i = 0; i < ohms.size(); ++i)
    out[i] = ds_entry_deficit(waves[i], condition.ds_time, drv);
  return out;
}

double RegulatorCharacterizer::drf_threshold(const DsCondition& condition,
                                             DefectId id, double r_lo,
                                             double r_hi, double rel_tolerance,
                                             double drv) const {
  check_log_bisection(r_lo, r_hi, rel_tolerance, "drf_threshold");
  if (id == 0 || !is_gate_site(id) ||
      kernel_config().transient == Kernel::Reference) {
    return monotone_threshold_log(
        [&](double ohms) { return causes_drf(condition, id, ohms, drv); },
        r_lo, r_hi, rel_tolerance);
  }

  const double flip = flip_.flip_threshold(condition.temp_c);

  // Endpoint probes, batched pairwise.
  {
    const double ends[2] = {r_lo, r_hi};
    const std::vector<double> d = retention_deficits(condition, id, ends, drv);
    if (d[0] >= flip) return r_lo;
    if (!(d[1] >= flip)) return r_hi * 2.0;
  }

  // Invariant: drf(lo) == false, drf(hi) == true — the scalar bisection's.
  double lo = r_lo;
  double hi = r_hi;
  while (hi / lo > rel_tolerance) {
    // Speculative probe tree: the 7 midpoints the scalar schedule could
    // visit over its next three rounds, each computed by the same nested
    // sqrt it would use, evaluated in one lockstep batch. The descent then
    // replays the scalar decisions, so bracket and result match the scalar
    // schedule probe-for-probe (at the cost of evaluating branches not
    // taken, which ride along in the same batch).
    double probes[7];
    probes[3] = std::sqrt(lo * hi);
    probes[1] = std::sqrt(lo * probes[3]);
    probes[5] = std::sqrt(probes[3] * hi);
    probes[0] = std::sqrt(lo * probes[1]);
    probes[2] = std::sqrt(probes[1] * probes[3]);
    probes[4] = std::sqrt(probes[3] * probes[5]);
    probes[6] = std::sqrt(probes[5] * hi);
    const std::vector<double> d =
        retention_deficits(condition, id, probes, drv);
    int idx = 3;
    int step = 2;
    for (int round = 0; round < 3 && hi / lo > rel_tolerance; ++round) {
      if (d[static_cast<std::size_t>(idx)] >= flip) {
        hi = probes[idx];
        idx -= step;
      } else {
        lo = probes[idx];
        idx += step;
      }
      step /= 2;
    }
  }
  return hi;
}

bool RegulatorCharacterizer::causes_drf(const DsCondition& condition,
                                        DefectId id, double ohms,
                                        double drv) const {
  return retention_deficit(condition, id, ohms, drv) >=
         flip_.flip_threshold(condition.temp_c);
}

}  // namespace lpsram
