// Newton-Raphson DC operating-point solver with gmin stepping and source
// stepping fallbacks — the workhorse behind every Vreg / DRV / leakage number
// in the reproduction.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lpsram/spice/elements.hpp"
#include "lpsram/spice/netlist.hpp"
#include "lpsram/util/cancel.hpp"

namespace lpsram {

// Per-iteration progress snapshot delivered to DcOptions::progress. The
// resilient runtime layer uses it to enforce wall-clock deadlines: the
// callback may throw (e.g. SolveTimeout) to abort the solve mid-Newton.
struct NewtonProgress {
  int iteration = 0;       // 1-based within the current Newton attempt
  double max_dv = 0.0;     // largest node-voltage step this iteration [V]
  double max_residual = 0.0;  // largest |KCL residual| at entry [A]
};

struct DcOptions {
  int max_iterations = 150;
  double v_tolerance = 1e-9;       // convergence: max |delta V| [V]
  double residual_tolerance = 1e-12;  // convergence: max |KCL residual| [A]
  double gmin = 1e-12;             // permanent floor conductance [S]
  double step_limit = 0.4;         // max Newton voltage step per iteration [V]
  // Node-voltage limiting (classic SPICE robustness): solutions are clamped
  // to this window, preventing runaway excursions when a current source
  // momentarily sees no conducting path.
  double v_min = -2.0;
  double v_max = 4.0;
  bool allow_gmin_stepping = true;
  bool allow_source_stepping = true;
  // Invoked once per Newton iteration; may throw to abort the solve (the
  // exception propagates out of solve()).
  std::function<void(const NewtonProgress&)> progress;
  // Cooperative cancellation: when set, every Newton iteration (DC and
  // transient) polls the token and aborts the solve with SolveTimeout
  // (SolveFailureInfo::cancelled = true) as soon as it trips. Non-owning;
  // the token must outlive the solve.
  const CancelToken* cancel = nullptr;
  // Optional long-lived workspace for the sparse kernel (non-owning; may be
  // null). A caller that solves the same netlist repeatedly — e.g. a
  // VoltageRegulator across a defect/PVT sweep — passes its own workspace so
  // the symbolic work (stamp-plan binding, the sparse LU's pivot order and
  // fill pattern) is amortized across solves instead of being redone by
  // every DcSolver. The workspace must outlive every solver using it and is
  // bound by the same single-thread contract as the solver itself.
  NewtonWorkspace* shared_workspace = nullptr;
};

// Newton-step size below which the sparse kernel adds one step of iterative
// refinement to its linear solve. The plain solve runs first; only when the
// resulting |dx| is already this small is Newton in its endgame, where
// factor rounding noise on ill-conditioned MNA systems (kappa ~ 1e12)
// competes with v_tolerance and refinement buys the digits back. Gating on
// the computed step rather than on the residual keeps refinement off the
// step-limited opening iterations (where dx only needs a direction) and off
// mid-solve residual dips that still take large steps. Shared by DcSolver
// and TransientSolver.
inline constexpr double kSparseRefineDvThreshold = 1e-5;

struct DcResult {
  bool converged = false;
  int iterations = 0;        // Newton iterations of the final (successful) solve
  // Newton iterations summed over *every* attempt of the solve, including
  // failed strategies (plain Newton, each gmin-stepping rung, each
  // source-stepping ramp point, damped fallback). This is what telemetry
  // and cost accounting should use; `iterations` only describes the attempt
  // that produced `x`.
  int total_iterations = 0;
  std::vector<double> x;     // raw unknown vector (see SystemAssembler layout)
  std::vector<double> node_v;  // per-node voltages including ground
};

// Worst KCL residual of a candidate solution, with the offending node named —
// what makes a non-convergence report actionable without a debugger.
struct ResidualReport {
  double worst = 0.0;      // max |KCL residual| over node rows [A]
  std::string node;        // name of the node carrying it
  // True when any node residual was NaN/Inf before being collapsed to
  // HUGE_VAL for the `worst` magnitude — lets quarantine records tell an
  // injected/genuine NaN from an ordinary huge-but-finite divergence.
  bool non_finite = false;
};

// Polls a cancel token (null-safe) and throws SolveTimeout with
// SolveFailureInfo::cancelled set when it has tripped. Shared by the DC and
// transient Newton kernels so both report cancellation identically.
void poll_cancel(const CancelToken* cancel, const char* where, int iterations,
                 double worst_residual);

class DcSolver {
 public:
  DcSolver(const Netlist& netlist, double temp_c, DcOptions options = {});

  // Solves for the DC operating point. If `initial_guess` (raw unknown
  // vector) is given it seeds Newton — warm starts make parameter sweeps
  // nearly free. Throws ConvergenceError (with iteration count, worst-node
  // name and final residual in the message) if every strategy fails.
  DcResult solve(const std::vector<double>* initial_guess = nullptr) const;

  const SystemAssembler& assembler() const noexcept { return assembler_; }

  // Voltage of a node in a result.
  double voltage(const DcResult& result, NodeId node) const;
  // Current through a voltage source in a result (positive = current flows
  // into the positive terminal from the external circuit).
  double source_current(const DcResult& result, ElementId vsrc) const;

  // Assembles the residual at `x` and reports the worst KCL row (diagnostic;
  // used for enriched failure messages and SolveOutcome telemetry).
  ResidualReport residual_report(const std::vector<double>& x) const;

 private:
  struct NewtonStats {
    int iterations = 0;      // iterations consumed by this attempt
    double max_residual = 0.0;  // residual at the last assembled point
    bool non_finite = false;    // attempt saw a NaN/Inf residual or step
  };

  // One Newton solve at fixed gmin and source scale; returns converged flag.
  // Runs the sparse kernel, or the dense reference when
  // KernelConfig::linear_solver selects it.
  bool newton(std::vector<double>& x, double gmin, NewtonStats* stats) const;
  bool newton_sparse(std::vector<double>& x, double gmin,
                     NewtonStats* stats) const;
  bool newton_dense(std::vector<double>& x, double gmin,
                    NewtonStats* stats) const;

  const Netlist& netlist_;
  SystemAssembler assembler_;
  DcOptions options_;
  // Per-solver scratch for the sparse path: CSR values, frozen linear base,
  // residual/rhs/dx and the analyze-once sparse LU. Mutable because solve()
  // is const; a DcSolver is single-threaded by contract (parallel sweeps
  // construct one solver per task), so this is not a race.
  mutable NewtonWorkspace ws_;
};

// Convenience one-shot solve.
DcResult solve_dc(const Netlist& netlist, double temp_c,
                  const DcOptions& options = {},
                  const std::vector<double>* initial_guess = nullptr);

}  // namespace lpsram
