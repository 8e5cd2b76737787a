// Lane-batched backward-Euler transient engine for defect sweeps.
//
// The Df1..Df32 characterization transients (regulator deep-sleep entry with
// an injected defect resistance) share one topology: lanes differ only in
// the value of one resistor and in their initial operating point. This
// engine marches K such transients together. Each lane keeps its own
// adaptive time step, Newton iterate and waveform — the lockstep is over
// *work*, not over simulated time: every round performs one Newton
// iteration for every in-flight lane, so system assembly runs once per
// round with the MOSFET model evaluated across lanes and the shared-pattern
// LU factored by SparseLuLanes (util/sparse_lanes.hpp).
//
// Numerics contract: because every lane replays the serial TransientSolver
// recipe — same stimulus schedule, same per-attempt base freeze, same
// Newton update, residual test, conditional refinement and step control —
// a lane's waveform under the scalar SIMD reference is bit-identical to
// running TransientSolver on that lane alone, with one caveat: the LU pivot
// order is analyzed once from the first lane's first Jacobian and shared,
// where standalone solves analyze their own values (identical values,
// identical order). Under the production SIMD kernel the MOSFET restamps
// use the vectorized model (device/mosfet_lanes.hpp), which agrees with the
// scalar model to the documented ulp level. Lanes that leave the shared pivot order's
// stability region, or whose step size underflows, are *evicted*: they are
// re-run from scratch through the serial TransientSolver, so their results
// (including any ConvergenceError) are exactly the serial ones.
//
// KernelConfig::transient (util/kernel_config.hpp) selects the lockstep
// engine (Production) or the serial per-lane oracle (Reference).
#pragma once

#include <vector>

#include "lpsram/spice/elements.hpp"
#include "lpsram/spice/transient.hpp"

namespace lpsram {

// One lane of a batched run: the defect override applied to the shared
// netlist plus the lane's initial state.
struct TransientLane {
  // Resistor element whose value this lane overrides; -1 for no override
  // (the lane runs the netlist as-is). Override elements must be disjoint
  // from anything the stimulus mutates, and the stimulus itself may only
  // mutate *linear base* elements (resistors, sources) — those are captured
  // per lane at base-freeze time, while capacitances, MOSFET parameters and
  // current loads are read lane-invariantly by the batched assembly.
  ElementId element = -1;
  double ohms = 0.0;
  // Initial unknown vector (the lane's DC operating point, typically solved
  // with the override applied and the stimulus at t = 0). Required.
  std::vector<double> initial_x;
};

class BatchTransientSolver {
 public:
  // `netlist` must outlive the solver and is treated as scratch during
  // run(): lane overrides and the stimulus mutate element values (topology
  // fixed). Override elements are restored to their entry values before
  // run() returns; stimulus-touched elements follow the TransientSolver
  // convention (left at their last value).
  BatchTransientSolver(Netlist& netlist, double temp_c,
                       TransientOptions options = {});

  // Runs every lane from t = 0 to t_stop and returns one waveform per lane,
  // in lane order. Dispatches on KernelConfig::transient: the reference
  // runs each lane through a plain TransientSolver, production batches them.
  // Throws ConvergenceError exactly where the serial path would (a lane
  // whose step size underflows).
  std::vector<Waveform> run(const std::vector<TransientLane>& lanes,
                            const std::vector<NodeId>& probes,
                            const Stimulus& stimulus = {});

  // Lanes the last run() evicted from the lockstep to the serial fallback
  // (0 on the happy path; diagnostics and tests).
  std::size_t evictions() const noexcept { return evictions_; }

 private:
  std::vector<Waveform> run_serial(const std::vector<TransientLane>& lanes,
                                   const std::vector<NodeId>& probes,
                                   const Stimulus& stimulus);
  std::vector<Waveform> run_lockstep(const std::vector<TransientLane>& lanes,
                                     const std::vector<NodeId>& probes,
                                     const Stimulus& stimulus);

  Netlist& netlist_;
  double temp_c_;
  TransientOptions options_;
  SystemAssembler assembler_;
  std::size_t evictions_ = 0;
};

}  // namespace lpsram
