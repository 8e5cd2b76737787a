#include "lpsram/regulator/regulator.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "lpsram/runtime/parallel.hpp"
#include "lpsram/spice/batch_transient.hpp"
#include "lpsram/spice/hooks.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram {
namespace {

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t out;
  static_assert(sizeof(out) == sizeof(v));
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// RAII over the concurrent-entry guard.
class SolveGuard {
 public:
  explicit SolveGuard(std::atomic<bool>& flag) : flag_(flag) {
    bool expected = false;
    if (!flag_.compare_exchange_strong(expected, true,
                                       std::memory_order_acquire))
      throw Error(
          "VoltageRegulator: concurrent solve detected — instances are not "
          "thread-safe; use one regulator per sweep worker");
  }
  ~SolveGuard() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool>& flag_;
};

}  // namespace

double vref_fraction(VrefLevel level) noexcept {
  switch (level) {
    case VrefLevel::V078: return 0.78;
    case VrefLevel::V074: return 0.74;
    case VrefLevel::V070: return 0.70;
    case VrefLevel::V064: return 0.64;
  }
  return 0.0;
}

std::string vref_name(VrefLevel level) {
  switch (level) {
    case VrefLevel::V078: return "0.78*VDD";
    case VrefLevel::V074: return "0.74*VDD";
    case VrefLevel::V070: return "0.70*VDD";
    case VrefLevel::V064: return "0.64*VDD";
  }
  return "?";
}

VoltageRegulator::VoltageRegulator(const Technology& tech, Corner corner,
                                   const ArrayLoadModel::Options& load_options) {
  build(tech, corner, load_options);
  apply_mode();

  // Canonical sparse-LU analysis (see canonical_lu_). Regulators are built
  // inside sweep tasks, so the solve runs with the task's observers
  // silenced: chaos injection cannot change the analysis. It leaves no warm
  // start and no telemetry behind.
  {
    const ScopedObserverSilence silence;
    DcOptions dc_options;
    dc_options.shared_workspace = &newton_ws_;
    try {
      DcSolver(netlist_, 25.0, dc_options).solve();
    } catch (const ConvergenceError&) {
      // Whatever analysis the failed attempts left is canonical too.
    }
  }
  canonical_lu_ = newton_ws_.lu;
}

void VoltageRegulator::build(const Technology& tech, Corner corner,
                             const ArrayLoadModel::Options& load_options) {
  Netlist& nl = netlist_;

  // ---- nodes --------------------------------------------------------------
  const NodeId vdd = nl.add_node("vdd");
  // Divider chain nodes: defect entry points (div_*) and taps.
  const NodeId div_a = nl.add_node("div_a");
  const NodeId vref78 = nl.add_node("vref78");
  const NodeId div_b = nl.add_node("div_b");
  const NodeId vref74 = nl.add_node("vref74");
  const NodeId div_c = nl.add_node("div_c");
  const NodeId vref70 = nl.add_node("vref70");
  const NodeId div_d = nl.add_node("div_d");
  const NodeId vref64 = nl.add_node("vref64");
  const NodeId div_e = nl.add_node("div_e");
  const NodeId vbias52 = nl.add_node("vbias52");
  const NodeId div_f = nl.add_node("div_f");
  const NodeId div_gnd = nl.add_node("div_gnd");
  // Selector outputs and gate lines.
  const NodeId vref_sel = nl.add_node("vref_sel");
  const NodeId vref = nl.add_node("vref");
  const NodeId mnreg2_gate = nl.add_node("mnreg2_gate");
  const NodeId vbias_sel = nl.add_node("vbias_sel");
  const NodeId mnreg1_gate = nl.add_node("mnreg1_gate");
  const NodeId regon_b = nl.add_node("regon_b");
  const NodeId mpreg2_gate = nl.add_node("mpreg2_gate");
  // Amplifier internals.
  const NodeId vdd_amp = nl.add_node("vdd_amp");
  const NodeId mpreg3_src = nl.add_node("mpreg3_src");
  const NodeId mpreg4_src = nl.add_node("mpreg4_src");
  const NodeId mpreg1_src = nl.add_node("mpreg1_src");
  const NodeId mpreg2_src = nl.add_node("mpreg2_src");
  const NodeId mpreg3_drn = nl.add_node("mpreg3_drn");
  const NodeId mnreg3_drn = nl.add_node("mnreg3_drn");
  const NodeId mirror_diode = nl.add_node("mirror_diode");
  const NodeId mirror_gate = nl.add_node("mirror_gate");
  const NodeId mpreg3_gate = nl.add_node("mpreg3_gate");
  const NodeId mpreg4_gate = nl.add_node("mpreg4_gate");
  const NodeId mpreg4_drn = nl.add_node("mpreg4_drn");
  const NodeId mnreg2_drn = nl.add_node("mnreg2_drn");
  const NodeId mnreg2_src = nl.add_node("mnreg2_src");
  const NodeId mnreg3_src = nl.add_node("mnreg3_src");
  const NodeId mnreg3_gate = nl.add_node("mnreg3_gate");
  const NodeId tail = nl.add_node("tail");
  const NodeId mnreg1_drn = nl.add_node("mnreg1_drn");
  const NodeId mnreg1_src = nl.add_node("mnreg1_src");
  const NodeId amp_out = nl.add_node("amp_out");
  const NodeId mpreg1_gate = nl.add_node("mpreg1_gate");
  const NodeId mpreg2_drn = nl.add_node("mpreg2_drn");
  const NodeId mpreg1_drn = nl.add_node("mpreg1_drn");
  const NodeId vregi = nl.add_node("vregi");
  const NodeId vddcc = nl.add_node("vddcc");

  n_vddcc_ = vddcc;
  n_mpreg1_gate_ = mpreg1_gate;

  // ---- sources ------------------------------------------------------------
  e_vdd_src_ = nl.add_vsource("Vdd", vdd, kGround, vdd_);
  e_regonb_src_ = nl.add_vsource("Vregonb", regon_b, kGround, 0.0);

  // ---- defect sites (healthy = 1 ohm shorts) -------------------------------
  auto df = [&](DefectId id, NodeId a, NodeId b) {
    e_defect_[static_cast<std::size_t>(id - 1)] =
        nl.add_resistor(defect_name(id), a, b, healthy_resistance());
  };

  // ---- voltage divider ------------------------------------------------------
  const double r_total = tech.divider_total_resistance();
  df(1, vdd, div_a);
  nl.add_resistor("R1", div_a, vref78, 0.22 * r_total);
  df(2, vref78, div_b);
  nl.add_resistor("R2", div_b, vref74, 0.04 * r_total);
  df(3, vref74, div_c);
  nl.add_resistor("R3", div_c, vref70, 0.04 * r_total);
  df(4, vref70, div_d);
  nl.add_resistor("R4", div_d, vref64, 0.06 * r_total);
  df(5, vref64, div_e);
  nl.add_resistor("R5", div_e, vbias52, 0.12 * r_total);
  df(6, vbias52, div_f);
  nl.add_resistor("R6", div_f, div_gnd, 0.52 * r_total);
  df(31, div_gnd, kGround);

  // ---- Vref / Vbias selector -------------------------------------------------
  e_sel_sw_[0] = nl.add_resistor("SW78", vref78, vref_sel, kSwitchOff);
  e_sel_sw_[1] = nl.add_resistor("SW74", vref74, vref_sel, kSwitchOff);
  e_sel_sw_[2] = nl.add_resistor("SW70", vref70, vref_sel, kSwitchOff);
  e_sel_sw_[3] = nl.add_resistor("SW64", vref64, vref_sel, kSwitchOff);
  e_sel_vdd_sw_ = nl.add_resistor("SWvdd", vdd, vref_sel, kSwitchOff);
  df(30, vref_sel, vref);
  // Selector routing + switch junction capacitance on the reference line.
  nl.add_capacitor("Cvref", vref, kGround, 200e-15);
  // Feedback-sense gate capacitance: with a series open (Df11) the MNreg2
  // gate lags the falling Vreg at DS entry, the amplifier sees a stale high
  // reading and under-drives the output stage — the paper's "undershoot ...
  // stabilizes at Vref after a time interval" behaviour.
  nl.add_capacitor("Cg_mnreg2", mnreg2_gate, kGround, 200e-15);

  e_bias_on_sw_ = nl.add_resistor("SWbias", vbias52, vbias_sel, kSwitchOff);
  e_bias_gnd_sw_ = nl.add_resistor("SWbias0", vbias_sel, kGround, kSwitchOn);
  df(8, vbias_sel, mnreg1_gate);
  nl.add_capacitor("Cvbias", vbias_sel, kGround, 100e-15);
  nl.add_capacitor("Cg_mnreg1", mnreg1_gate, kGround, 300e-15);

  df(18, regon_b, mpreg2_gate);
  nl.add_capacitor("Cg_mpreg2", mpreg2_gate, kGround, 2e-15);

  // ---- supply distribution ----------------------------------------------------
  df(29, vdd, vdd_amp);
  df(28, vdd_amp, mpreg3_src);
  df(15, vdd_amp, mpreg4_src);
  df(16, vdd_amp, mpreg1_src);
  df(20, vdd, mpreg2_src);

  // ---- error amplifier ---------------------------------------------------------
  auto corner_params = [&](MosfetParams p) {
    return Technology::apply_corner(std::move(p), corner);
  };
  nl.add_mosfet("MPreg3", corner_params(tech.reg_mirror_pmos()), mpreg3_gate,
                mpreg3_drn, mpreg3_src);
  nl.add_mosfet("MPreg4", corner_params(tech.reg_mirror_pmos()), mpreg4_gate,
                mpreg4_drn, mpreg4_src);
  // Mirror diode chain: the gate line taps at the MNreg2 drain, so a
  // resistive open anywhere along the diode branch (Df23 or Df26) lowers the
  // mirror gate level by the branch current times the defect resistance —
  // the paper's "increases the conductivity of MPreg3/MPreg4" mechanism.
  df(23, mpreg3_drn, mirror_diode);
  df(26, mirror_diode, mnreg2_drn);
  df(25, mnreg2_drn, mirror_gate);
  df(21, mirror_gate, mpreg3_gate);
  df(14, mirror_gate, mpreg4_gate);
  nl.add_capacitor("Cmirror", mirror_gate, kGround, 8e-15);

  // MNreg2 is the feedback input (gate senses Vreg, drain feeds the mirror
  // diode); MNreg3 is the reference input (gate at Vref, drain at the
  // amplifier output). With the inverting MPreg1 stage this closes the loop
  // with negative feedback: Vreg up -> diode node down -> mirror gate down ->
  // MPreg4 stronger -> MPreg1 gate up -> Vreg down.
  nl.add_mosfet("MNreg2", corner_params(tech.reg_diffpair_nmos()), mnreg2_gate,
                mnreg2_drn, mnreg2_src);
  nl.add_mosfet("MNreg3", corner_params(tech.reg_diffpair_nmos()), mnreg3_gate,
                mnreg3_drn, mnreg3_src);
  df(27, mpreg4_drn, amp_out);
  df(10, amp_out, mnreg3_drn);
  df(12, mnreg3_src, tail);
  df(13, mnreg2_src, tail);
  df(11, vregi, mnreg2_gate);
  df(24, vref, mnreg3_gate);
  nl.add_capacitor("Cg_mnreg3", mnreg3_gate, kGround, 20e-15);

  nl.add_mosfet("MNreg1", corner_params(tech.reg_tail_nmos()), mnreg1_gate,
                mnreg1_drn, mnreg1_src);
  df(7, mnreg1_drn, tail);
  df(9, mnreg1_src, kGround);

  // ---- output stage --------------------------------------------------------------
  nl.add_mosfet("MPreg1", corner_params(tech.reg_output_pmos()), mpreg1_gate,
                mpreg1_drn, mpreg1_src);
  nl.add_mosfet("MPreg2", corner_params(tech.reg_pullup_pmos()), mpreg2_gate,
                mpreg2_drn, mpreg2_src);
  df(17, amp_out, mpreg1_gate);
  df(22, mpreg2_drn, amp_out);
  nl.add_capacitor("Cout", mpreg1_gate, kGround, 60e-15);
  df(19, mpreg1_drn, vregi);
  df(32, vregi, vddcc);

  // ---- VDD_CC load and power switch -----------------------------------------------
  const ArrayLoadModel load(tech, corner, load_options);
  nl.add_current_load("ArrayLoad", vddcc, load.load_function());
  nl.add_capacitor("Cvddcc", vddcc, kGround, tech.vddcc_capacitance());
  e_ps_ = nl.add_resistor("PS", vdd, vddcc, kSwitchOff);
  // Load-regulation test sink: behaves as a current source above ~50 mV and
  // collapses linearly to zero at the rail (a physical sink cannot pull the
  // node below ground, and an ideal source would wreck DC homotopy).
  test_load_amps_ = std::make_shared<double>(0.0);
  {
    auto amps = test_load_amps_;
    nl.add_current_load("Itest", vddcc, [amps](double v, double) {
      constexpr double kKnee = 0.05;
      if (v <= 0.0) return std::make_pair(0.0, *amps / kKnee);
      if (v >= kKnee) return std::make_pair(*amps, 0.0);
      return std::make_pair(*amps * v / kKnee, *amps / kKnee);
    });
  }
}

void VoltageRegulator::apply_mode() {
  Netlist& nl = netlist_;
  nl.set_source_voltage(e_vdd_src_, vdd_);
  // MPreg2 gate: VDD when the regulator runs (pull-up off), 0 when idle.
  nl.set_source_voltage(e_regonb_src_, regon_ ? vdd_ : 0.0);

  for (std::size_t i = 0; i < e_sel_sw_.size(); ++i) {
    const bool selected =
        regon_ && static_cast<std::size_t>(vref_level_) == i;
    nl.set_resistance(e_sel_sw_[i], selected ? kSwitchOn : kSwitchOff);
  }
  nl.set_resistance(e_sel_vdd_sw_, regon_ ? kSwitchOff : kSwitchOn);
  nl.set_resistance(e_bias_on_sw_, regon_ ? kSwitchOn : kSwitchOff);
  nl.set_resistance(e_bias_gnd_sw_, regon_ ? kSwitchOff : kSwitchOn);
  nl.set_resistance(e_ps_, ps_on_ ? 10.0 : kSwitchOff);

  warm_start_.clear();  // configuration changed; old solution may mislead
}

void VoltageRegulator::set_vdd(double vdd) {
  if (!(vdd > 0.0)) throw InvalidArgument("VoltageRegulator: vdd must be > 0");
  vdd_ = vdd;
  apply_mode();
}

void VoltageRegulator::select_vref(VrefLevel level) {
  vref_level_ = level;
  apply_mode();
}

void VoltageRegulator::set_regon(bool on) {
  regon_ = on;
  apply_mode();
}

void VoltageRegulator::set_power_switch(bool on) {
  ps_on_ = on;
  apply_mode();
}

void VoltageRegulator::inject_defect(DefectId id, double ohms) {
  if (!(ohms >= healthy_resistance()))
    throw InvalidArgument("inject_defect: resistance below healthy value");
  netlist_.set_resistance(e_defect_[static_cast<std::size_t>(
                              defect_site(id).id - 1)],
                          ohms);
  swept_defect_ = defect_site(id).id;
  swept_ohms_ = ohms;
  warm_start_.clear();
}

void VoltageRegulator::clear_defect(DefectId id) {
  netlist_.set_resistance(
      e_defect_[static_cast<std::size_t>(defect_site(id).id - 1)],
      healthy_resistance());
  if (swept_defect_ == defect_site(id).id) {
    swept_defect_ = 0;
    swept_ohms_ = healthy_resistance();
  }
  warm_start_.clear();
}

void VoltageRegulator::clear_all_defects() {
  for (ElementId e : e_defect_) netlist_.set_resistance(e, healthy_resistance());
  swept_defect_ = 0;
  swept_ohms_ = healthy_resistance();
  warm_start_.clear();
}

void VoltageRegulator::set_test_load(double amps) {
  *test_load_amps_ = amps;
  warm_start_.clear();
}

double VoltageRegulator::test_load() const noexcept {
  return *test_load_amps_;
}

double VoltageRegulator::defect_resistance(DefectId id) const {
  return netlist_.resistance(
      e_defect_[static_cast<std::size_t>(defect_site(id).id - 1)]);
}

SolveOutcome VoltageRegulator::solve_dc_outcome(double temp_c) const {
  const SolveGuard guard(solving_);
  // Hand the ladder the regulator's long-lived sparse workspace so repeated
  // solves (defect ladders, PVT grids, warm restarts) reuse one symbolic
  // analysis instead of redoing it per DcSolver.
  DcOptions dc_options;
  dc_options.shared_workspace = &newton_ws_;
  dc_options.cancel = cancel_;

  // Cold start with a task's chain lent: seed the warm-start rung from the
  // nearest solved point along the defect-resistance axis. The key
  // fingerprints everything else that shapes the operating point: netlist
  // state minus the swept resistance, temperature and test load.
  OperatingPointChain::Key chain_key;
  if (chain_ != nullptr) {
    const ElementId exclude =
        swept_defect_ > 0
            ? e_defect_[static_cast<std::size_t>(swept_defect_ - 1)]
            : -1;
    chain_key.circuit =
        fold_key(fold_key(netlist_.state_signature(exclude), double_bits(temp_c)),
                 double_bits(*test_load_amps_));
    chain_key.defect = static_cast<std::int32_t>(swept_defect_);
    if (warm_start_.empty()) {
      if (const std::vector<double>* seed =
              chain_->nearest(chain_key, swept_ohms_)) {
        ++telemetry_.cache_hits;
        warm_start_ = *seed;
      } else {
        ++telemetry_.cache_misses;
      }
    }
  }

  const std::vector<double>* warm = warm_start_.empty() ? nullptr : &warm_start_;
  SolveOutcome outcome = solve_dc_resilient(netlist_, temp_c, dc_options, warm);
  // Every fallback (a warm start that failed and was rescued by a later
  // rung) is now visible in the telemetry instead of being swallowed.
  telemetry_.record(outcome);
  if (outcome.ok()) {
    warm_start_ = outcome.result.x;
    if (chain_ != nullptr) {
      chain_->store(chain_key, swept_ohms_, outcome.result.x);
      ++telemetry_.cache_stores;
    }
  } else {
    warm_start_.clear();  // a stale guess near a failure point misleads
  }
  return outcome;
}

DcResult VoltageRegulator::solve_dc(double temp_c) const {
  SolveOutcome outcome = solve_dc_outcome(temp_c);
  if (!outcome.ok()) throw_outcome(outcome);
  return std::move(outcome.result);
}

double VoltageRegulator::vreg_dc(double temp_c) const {
  return solve_dc(temp_c).node_v[static_cast<std::size_t>(n_vddcc_)];
}

double VoltageRegulator::supply_current_dc(double temp_c) const {
  const DcResult result = solve_dc(temp_c);
  const DcSolver solver(netlist_, temp_c);
  // Positive current delivered by the source into the circuit is -i_branch
  // in the MNA convention used by the assembler.
  return -solver.source_current(result, e_vdd_src_);
}

double VoltageRegulator::static_power_dc(double temp_c) const {
  return vdd_ * supply_current_dc(temp_c);
}

namespace {

// The segmented power switch network releases progressively at DS entry
// (its effective resistance ramps geometrically over ~8 us) so the rail
// hands over to the regulator without the instantaneous droop an ideal
// cut-off would cause — the sequencing real PM control logic implements.
Stimulus staged_release_stimulus(ElementId ps, double switch_off) {
  return [ps, switch_off](double t, Netlist& nl) {
    constexpr double kRonStart = 10.0;      // all segments on
    constexpr double kDecadeTime = 0.8e-6;  // one decade of R per 0.8 us
    const double r =
        std::min(kRonStart * std::pow(10.0, t / kDecadeTime), switch_off);
    nl.set_resistance(ps, r);
  };
}

}  // namespace

Waveform VoltageRegulator::simulate_ds_entry(double duration, double temp_c,
                                             const TransientOptions* options) {
  // Initial state: ACT mode (power switch closed, regulator off).
  set_power_switch(true);
  set_regon(false);
  const DcResult act = solve_dc(temp_c);

  // Switch to DS at t = 0: REGON asserts immediately; the PS network
  // releases through the staged ramp.
  set_power_switch(false);
  set_regon(true);
  const Stimulus staged_release = staged_release_stimulus(e_ps_, kSwitchOff);

  TransientOptions opts;
  if (options) opts = *options;
  opts.t_stop = duration;
  if (!opts.dc.cancel) opts.dc.cancel = cancel_;

  TransientSolver solver(netlist_, temp_c, opts);
  Waveform wave =
      solver.run({n_vddcc_, n_mpreg1_gate_}, staged_release, &act.x);
  warm_start_ = solver.final_state();
  return wave;
}

std::vector<Waveform> VoltageRegulator::simulate_ds_entry_lanes(
    DefectId id, std::span<const double> ohms, double duration, double temp_c,
    const TransientOptions* options) {
  const std::size_t site = static_cast<std::size_t>(defect_site(id).id - 1);

  // Per-lane ACT operating points, solved serially: each lane replays the
  // serial recipe (inject the defect, configure ACT, solve DC). Neighbouring
  // lanes of a resistance ladder sit at nearby operating points, so each
  // solve is seeded from the previous lane's solution — the setters clear
  // the warm start as a configuration change, and the seed is re-planted
  // after them. A seed that misleads is rescued by the resilient ladder, so
  // every lane still lands on the same operating point (to Newton tolerance)
  // a cold standalone simulate_ds_entry would reach.
  std::vector<TransientLane> lanes(ohms.size());
  for (std::size_t l = 0; l < ohms.size(); ++l) {
    inject_defect(id, ohms[l]);
    set_power_switch(true);
    set_regon(false);
    if (l > 0) warm_start_ = lanes[l - 1].initial_x;
    DcResult act = solve_dc(temp_c);
    lanes[l].element = e_defect_[site];
    lanes[l].ohms = ohms[l];
    lanes[l].initial_x = std::move(act.x);
  }

  // One shared DS configuration for the transient; the batch engine applies
  // each lane's defect resistance as its override.
  set_power_switch(false);
  set_regon(true);
  const Stimulus staged_release = staged_release_stimulus(e_ps_, kSwitchOff);

  TransientOptions opts;
  if (options) opts = *options;
  opts.t_stop = duration;
  if (!opts.dc.cancel) opts.dc.cancel = cancel_;

  BatchTransientSolver solver(netlist_, temp_c, opts);
  std::vector<Waveform> waves =
      solver.run(lanes, {n_vddcc_, n_mpreg1_gate_}, staged_release);
  // Lane-batched entries do not chain a warm start: the final states belong
  // to different defect values, and the next caller reconfigures anyway.
  warm_start_.clear();
  return waves;
}

}  // namespace lpsram
