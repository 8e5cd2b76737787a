// Regulator-level characterization queries: steady-state Vreg, static power
// and the "does this defect cause a retention fault" predicate that the
// Table II engine (testflow/defect_characterization) bisects over.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "lpsram/cell/flip_time.hpp"
#include "lpsram/regulator/regulator.hpp"
#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/runtime/quarantine.hpp"
#include "lpsram/util/cancel.hpp"

namespace lpsram {

// One deep-sleep test condition (what a Table II cell or a Table III test
// iteration fixes).
struct DsCondition {
  Corner corner = Corner::Typical;
  double vdd = 1.1;
  VrefLevel vref = VrefLevel::V070;
  double temp_c = 25.0;
  double ds_time = 1e-3;  // time spent in deep-sleep [s]

  // Ideal regulated voltage for this condition.
  double expected_vreg() const noexcept { return vdd * vref_fraction(vref); }
};

std::string ds_condition_name(const DsCondition& condition);

// Classic analog acceptance metrics of the (healthy) regulator.
struct RegulationMetrics {
  // Worst deviation of Vreg from the ideal fraction*VDD across the supply
  // range [V].
  double line_error = 0.0;
  // Output droop per ampere of extra DC load [V/A] (small-signal, measured
  // with a 100 uA step).
  double load_regulation = 0.0;
  // Vreg drift across the temperature range, relative to 25 C [V].
  double temp_drift = 0.0;
};

// Measures the metrics at one corner / reference setting. When `report` is
// given, individual supply/temperature points that fail to solve are
// quarantined into it (the metrics then cover the surviving points only);
// without it the first failure propagates. The probe points run on the
// parallel sweep executor (`threads` as in SweepExecutorOptions; results are
// bit-identical at any thread count) and aggregate sweep telemetry lands in
// `*telemetry` when given. With a `campaign`, completed probes are journaled
// as they finish and a resumed call skips them (results bit-identical to an
// uninterrupted run); `cancel` threads a CancelToken into every solve.
RegulationMetrics measure_regulation(const Technology& tech, Corner corner,
                                     VrefLevel vref,
                                     SweepReport* report = nullptr,
                                     SweepTelemetry* telemetry = nullptr,
                                     int threads = 1,
                                     Campaign* campaign = nullptr,
                                     const CancelToken* cancel = nullptr);

// Not thread-safe: the characterizer owns per-corner VoltageRegulator
// instances and reconfigures them per query. Parallel sweep drivers create
// one characterizer per executor worker slot (a slot runs one task at a
// time), never sharing an instance across concurrent tasks.
class RegulatorCharacterizer {
 public:
  // `load_options` describes the array hanging on VDD_CC (including the weak
  // cells of the active case study); `flip` is the retention flip model.
  RegulatorCharacterizer(const Technology& tech,
                         const ArrayLoadModel::Options& load_options,
                         const FlipTimeModel& flip = FlipTimeModel{});

  // Steady-state DS-mode Vreg with one defect injected (id may be 0 for the
  // defect-free circuit).
  double vreg(const DsCondition& condition, DefectId id, double ohms) const;

  // Defect-free steady-state Vreg.
  double vreg_healthy(const DsCondition& condition) const;

  // Static power in DS mode with the defect injected [W].
  double static_power(const DsCondition& condition, DefectId id,
                      double ohms) const;

  // True if the defect at this resistance makes cells of the given DRV lose
  // their data during the DS window. Gate-line defects are judged on the
  // DS-entry transient (delay/undershoot mechanisms); all others on the DC
  // operating point held for ds_time.
  bool causes_drf(const DsCondition& condition, DefectId id, double ohms,
                  double drv) const;

  // Retention deficit integral [V*s] accumulated over the DS window for the
  // given DRV (diagnostic / used by causes_drf).
  double retention_deficit(const DsCondition& condition, DefectId id,
                           double ohms, double drv) const;

  // Retention deficits for several resistance values of one defect, in
  // `ohms` order. For gate-site defects under the production transient
  // kernel (KernelConfig::transient) the DS-entry transients run as one
  // lane batch (VoltageRegulator::simulate_ds_entry_lanes); otherwise this
  // loops the scalar retention_deficit — the runtime-selectable oracle.
  std::vector<double> retention_deficits(const DsCondition& condition,
                                         DefectId id,
                                         std::span<const double> ohms,
                                         double drv) const;

  // Minimum defect resistance causing a DRF: the monotone_threshold_log
  // bisection over causes_drf. Gate-site defects under the production
  // transient kernel evaluate each bisection round as a
  // speculative probe tree — the 7 midpoints the scalar schedule could
  // visit over its next three rounds, computed by the same nested-sqrt
  // recipe and batched into one lockstep run — so the probe points (and the
  // returned bracket) are exactly the scalar schedule's.
  double drf_threshold(const DsCondition& condition, DefectId id, double r_lo,
                       double r_hi, double rel_tolerance, double drv) const;

  const FlipTimeModel& flip_model() const noexcept { return flip_; }

  // Starts a sweep task (VoltageRegulator::start_task) on the existing and
  // every future per-corner regulator: their solves borrow the task's
  // operating-point chain (nullptr: none). Sweep drivers call this at the
  // start of each task body.
  void start_task(OperatingPointChain* chain);

  // Hands a cancel token (VoltageRegulator::set_cancel) to the existing and
  // every future per-corner regulator — how sweep drivers thread a
  // CancelToken down into the Newton loops.
  void set_cancel(const CancelToken* cancel);

  // Solve counters summed over the per-corner regulators. Sweep drivers
  // snapshot this before/after a task to attribute solves to it.
  SolveTelemetry solve_telemetry() const;

 private:
  VoltageRegulator& regulator_for(Corner corner) const;

  Technology tech_;
  ArrayLoadModel::Options load_options_;
  FlipTimeModel flip_;
  OperatingPointChain* chain_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  // One regulator instance per corner, built lazily and reconfigured per
  // query (warm-started DC solves make sweeps cheap).
  mutable std::map<Corner, std::unique_ptr<VoltageRegulator>> regulators_;
};

}  // namespace lpsram
