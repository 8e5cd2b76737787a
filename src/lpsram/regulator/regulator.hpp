// Electrical model of the embedded voltage regulator (paper Fig. 2 / Fig. 5)
// plus its load: the core-cell array hanging on VDD_CC.
//
// Structure reproduced from the paper:
//  * voltage source: polysilicon divider R1..R6 producing taps at
//    0.78/0.74/0.70/0.64 * VDD (Vref candidates) and 0.52 * VDD (Vbias);
//  * Vref/Vbias selector driven by VrefSel<1:0> and REGON: when the regulator
//    is on, Vref = selected tap and Vbias = Vbias52; when off, Vref = VDD and
//    Vbias = 0 V;
//  * error amplifier: PMOS current mirror MPreg3/MPreg4 over NMOS
//    differential pair MNreg2 (gate = Vref) / MNreg3 (gate = Vreg feedback),
//    biased by tail transistor MNreg1 (gate = Vbias);
//  * output stage MPreg1 driving Vreg, with pull-up MPreg2 that parks the
//    MPreg1 gate at VDD when the regulator is off;
//  * all 32 resistive-open defect sites of defects.hpp, instantiated as
//    series resistors (1 ohm when healthy).
//
// A power-switch shunt from VDD to VDD_CC stands in for the PS network so the
// deep-sleep *entry* transient (PS off + REGON on at t=0) can be simulated
// end-to-end, including the Df8 delayed-activation droop.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "lpsram/regulator/array_load.hpp"
#include "lpsram/regulator/defects.hpp"
#include "lpsram/runtime/retry_ladder.hpp"
#include "lpsram/spice/transient.hpp"

namespace lpsram {

class SolveCache;  // runtime/parallel.hpp

// The four selectable reference levels (paper Section II.B).
enum class VrefLevel { V078, V074, V070, V064 };

inline constexpr std::array<VrefLevel, 4> kAllVrefLevels = {
    VrefLevel::V078, VrefLevel::V074, VrefLevel::V070, VrefLevel::V064};

// Fraction of VDD the level denotes (0.78, 0.74, 0.70, 0.64).
double vref_fraction(VrefLevel level) noexcept;
// Display name, e.g. "0.74*VDD".
std::string vref_name(VrefLevel level);

// Not thread-safe: a VoltageRegulator carries mutable solve state (netlist
// element values, warm start, telemetry) and must be driven by one thread at
// a time. Parallel sweeps use one instance per executor worker slot; a
// release-mode guard in solve_dc_outcome() throws on concurrent entry rather
// than corrupting the solve.
class VoltageRegulator {
 public:
  VoltageRegulator(const Technology& tech, Corner corner,
                   const ArrayLoadModel::Options& load_options = {});

  // --- configuration ------------------------------------------------------
  void set_vdd(double vdd);
  double vdd() const noexcept { return vdd_; }
  void select_vref(VrefLevel level);
  VrefLevel vref_level() const noexcept { return vref_level_; }
  // REGON: true = regulator active (deep-sleep), false = off.
  void set_regon(bool on);
  bool regon() const noexcept { return regon_; }
  // Power-switch network between VDD and VDD_CC (on in ACT mode).
  void set_power_switch(bool on);
  bool power_switch() const noexcept { return ps_on_; }

  // --- defect injection ----------------------------------------------------
  void inject_defect(DefectId id, double ohms);
  void clear_defect(DefectId id);
  void clear_all_defects();
  // Currently injected defect resistance (healthy short value if none).
  double defect_resistance(DefectId id) const;

  // --- analyses ------------------------------------------------------------
  // DC operating point in the current configuration. Warm-started across
  // calls, which makes resistance sweeps cheap. Runs the resilient retry
  // ladder; throws RetryExhausted / SolveTimeout (both ConvergenceError)
  // when every rung fails. Every solve — including warm-start fallbacks
  // that used to be swallowed silently — is recorded in solve_telemetry().
  DcResult solve_dc(double temp_c) const;
  // Structured variant: never throws for convergence trouble; inspect
  // outcome.status. Telemetry is recorded either way.
  SolveOutcome solve_dc_outcome(double temp_c) const;

  // Retry-ladder policy for this regulator's solves (deadline, budgets,
  // strategy order).
  void set_solve_policy(RetryLadderOptions policy) {
    solve_policy_ = std::move(policy);
  }
  const RetryLadderOptions& solve_policy() const noexcept {
    return solve_policy_;
  }
  // Running solve counters: warm hits, fallbacks, degradations, failures,
  // per-rung attempts and (when a cache is attached) cache traffic.
  const SolveTelemetry& solve_telemetry() const noexcept { return telemetry_; }
  void reset_solve_telemetry() { telemetry_.reset(); }

  // Attaches a shared operating-point cache (nullptr detaches). When the
  // regulator would otherwise cold-start a solve, it seeds the warm-start
  // rung from the nearest cached neighbour instead — during a defect
  // bisection every probe after the first finds a nearby point. `task_key`
  // scopes this regulator's lookups to one sweep task so parallel sweeps
  // stay deterministic (see runtime/parallel.hpp). The cache itself is
  // thread-safe; this setter is not.
  void set_solve_cache(SolveCache* cache, std::uint64_t task_key = 0) {
    solve_cache_ = cache;
    cache_task_key_ = task_key;
  }
  SolveCache* solve_cache() const noexcept { return solve_cache_; }
  // Regulated output voltage (VDD_CC) at DC.
  double vreg_dc(double temp_c) const;
  // Current drawn from the main VDD rail at DC [A].
  double supply_current_dc(double temp_c) const;
  // Static power consumption at DC [W].
  double static_power_dc(double temp_c) const;

  // Deep-sleep entry transient: starts from the ACT operating point
  // (PS on, REGON off), then at t=0 opens the power switch and asserts
  // REGON. Returns the VDD_CC waveform (probe 0) and the MPreg1 gate
  // waveform (probe 1). Leaves the regulator configured in DS mode.
  Waveform simulate_ds_entry(double duration, double temp_c,
                             const TransientOptions* options = nullptr);

  // Lane-batched DS-entry: one transient per resistance value of the same
  // defect site, marched together by the lockstep batch engine
  // (spice/batch_transient.hpp) — the ACT operating points are solved
  // serially per lane, the DS transients share assembly and factorization.
  // Waveforms are returned in `ohms` order with the same probes as
  // simulate_ds_entry. Under the serial transient reference (or for a
  // single lane under the scalar SIMD reference) each waveform is the
  // serial path's, bit-for-bit. Leaves the regulator in DS mode with the
  // *last* lane's resistance injected and no warm start.
  std::vector<Waveform> simulate_ds_entry_lanes(
      DefectId id, std::span<const double> ohms, double duration,
      double temp_c, const TransientOptions* options = nullptr);

  // Expected (defect-free, ideal) Vreg for a configuration.
  double expected_vreg() const noexcept { return vdd_ * vref_fraction(vref_level_); }

  Netlist& netlist() noexcept { return netlist_; }
  const Netlist& netlist() const noexcept { return netlist_; }
  NodeId vddcc_node() const noexcept { return n_vddcc_; }
  NodeId gate_node() const noexcept { return n_mpreg1_gate_; }

  // Extra DC test load drawn from VDD_CC (load-regulation measurements) [A].
  void set_test_load(double amps);
  double test_load() const noexcept;

  // Healthy (non-injected) series resistance of a defect site [ohm].
  static constexpr double healthy_resistance() noexcept { return 1.0; }

 private:
  void build(const Technology& tech, Corner corner,
             const ArrayLoadModel::Options& load_options);
  void apply_mode();

  Netlist netlist_;
  double vdd_ = 1.1;
  VrefLevel vref_level_ = VrefLevel::V070;
  bool regon_ = true;
  bool ps_on_ = false;

  // Element handles.
  ElementId e_vdd_src_ = -1;
  ElementId e_regonb_src_ = -1;
  ElementId e_ps_ = -1;
  // Test-load magnitude, shared with the netlist's saturating load element.
  std::shared_ptr<double> test_load_amps_;
  std::array<ElementId, 4> e_sel_sw_{};  // tap switches, index = VrefLevel
  ElementId e_sel_vdd_sw_ = -1;          // Vref-to-VDD switch (REGON = 0)
  ElementId e_bias_on_sw_ = -1;          // Vbias-to-tap switch (REGON = 1)
  ElementId e_bias_gnd_sw_ = -1;         // Vbias-to-ground switch (REGON = 0)
  std::array<ElementId, kDefectCount> e_defect_{};

  NodeId n_vddcc_ = kGround;
  NodeId n_mpreg1_gate_ = kGround;

  mutable std::vector<double> warm_start_;
  // Long-lived sparse-kernel workspace handed to every DC solve via
  // DcOptions::shared_workspace: the stamp-plan binding and the sparse LU's
  // pivot order survive across solves (and across the whole defect ladder
  // of a sweep task), so only the first solve of a regulator's life pays
  // the symbolic analysis. Guarded by the same single-thread contract as
  // the rest of the mutable solve state.
  mutable NewtonWorkspace newton_ws_;
  RetryLadderOptions solve_policy_;
  mutable SolveTelemetry telemetry_;

  // Operating-point cache plumbing (see set_solve_cache). The injected
  // defect is tracked so cache keys can exclude the swept resistance from
  // the circuit signature and use it as the nearest-neighbour axis instead.
  SolveCache* solve_cache_ = nullptr;
  std::uint64_t cache_task_key_ = 0;
  DefectId cache_defect_id_ = 0;    // 0 = no defect injected
  double cache_defect_ohms_ = 1.0;  // resistance of the tracked defect

  // Concurrent-entry guard (cheap enough for release builds): set for the
  // duration of solve_dc_outcome, throws instead of racing.
  mutable std::atomic<bool> solving_{false};

  static constexpr double kSwitchOn = 2e3;    // selector on-resistance [ohm]
  static constexpr double kSwitchOff = 1e12;  // selector off-resistance [ohm]
};

}  // namespace lpsram
