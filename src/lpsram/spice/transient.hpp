// Backward-Euler transient solver with adaptive step control.
//
// Used for the defect behaviours that have no DC signature: Df8 (series
// resistance on the biasing transistor's gate delays regulator activation)
// and Df11 (undershoot on the reference input of the error amplifier), plus
// the deep-sleep entry droop of VDD_CC in general.
#pragma once

#include <functional>
#include <vector>

#include "lpsram/spice/dc_solver.hpp"

namespace lpsram {

// Stimulus callback: invoked before each accepted step with the time of the
// step being computed; may mutate source values in the netlist (topology must
// stay fixed).
using Stimulus = std::function<void(double t, Netlist& netlist)>;

struct TransientOptions {
  double t_stop = 1e-3;    // [s]
  double dt_initial = 1e-8;
  double dt_min = 1e-12;
  double dt_max = 1e-5;
  DcOptions dc;            // Newton settings reused per step
};

// Recorded waveform of selected probe nodes.
struct Waveform {
  std::vector<double> time;                 // [s], one entry per accepted step
  std::vector<std::vector<double>> values;  // values[p][k] = probe p at time k

  // Minimum recorded value of probe p.
  double min_value(std::size_t p) const;
  // Value of probe p at (or interpolated around) time t.
  double at(std::size_t p, double t) const;
  // Time integral of max(0, threshold - v_p(t)) over the record — the
  // "retention deficit" used by the flip model.
  double deficit_integral(std::size_t p, double threshold) const;
};

class TransientSolver {
 public:
  // `netlist` must outlive the solver. Probes are node ids whose voltages get
  // recorded at every accepted step.
  TransientSolver(Netlist& netlist, double temp_c,
                  TransientOptions options = {});

  // Runs from t=0 to t_stop. The initial state is the DC operating point of
  // the netlist as configured after `stimulus(0, netlist)` has been applied,
  // unless `initial_x` (raw unknown vector) is provided.
  Waveform run(const std::vector<NodeId>& probes, const Stimulus& stimulus = {},
               const std::vector<double>* initial_x = nullptr);

  // Raw final solution vector of the last run (usable as a warm start).
  const std::vector<double>& final_state() const noexcept { return x_; }

 private:
  // One backward-Euler step of size dt from state x_; returns success.
  // Dispatches to the sparse or dense Newton kernel per
  // KernelConfig::linear_solver.
  bool step(double dt, std::vector<double>& x_next);
  bool step_sparse(double dt, std::vector<double>& x_next);
  bool step_dense(double dt, std::vector<double>& x_next);

  Netlist& netlist_;
  double temp_c_;
  TransientOptions options_;
  SystemAssembler assembler_;
  std::vector<double> x_;
  // Sparse-path scratch, reused across all steps of a run (the stamp plan
  // and LU pattern are per-topology, so nothing is rebuilt between steps).
  NewtonWorkspace ws_;
};

}  // namespace lpsram
