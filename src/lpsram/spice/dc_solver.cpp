#include "lpsram/spice/dc_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "lpsram/spice/hooks.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"

namespace lpsram {

namespace {

// Restores source values if a solve strategy exits early (including by an
// exception thrown from a progress callback or observer).
class SourceRestorer {
 public:
  SourceRestorer(Netlist& netlist,
                 const std::vector<std::pair<ElementId, double>>& vsources,
                 const std::vector<std::pair<ElementId, double>>& isources)
      : netlist_(netlist), vsources_(vsources), isources_(isources) {}
  ~SourceRestorer() {
    for (const auto& [id, volts] : vsources_) netlist_.set_source_voltage(id, volts);
    for (const auto& [id, amps] : isources_) netlist_.set_source_current(id, amps);
  }

 private:
  Netlist& netlist_;
  const std::vector<std::pair<ElementId, double>>& vsources_;
  const std::vector<std::pair<ElementId, double>>& isources_;
};

bool all_finite(const std::vector<double>& values) {
  for (const double v : values)
    if (!std::isfinite(v)) return false;
  return true;
}

enum class StepOutcome { Continue, Converged, Abort };

// Shared tail of a Newton iteration, identical for the sparse and dense
// kernels: damp the step, clamp node voltages, report progress, test
// convergence. Keeping this in one place is what guarantees the two kernels
// walk the same iterate sequence whenever their linear solves agree.
// `residual_converged` is the secondary (SPICE ABSTOL-style) acceptance:
// every KCL/branch residual is already below residual_tolerance, so the
// system is solved even if dv cannot show it. On a high-impedance node (a
// near-open defect in series with gmin) the voltage is only determined to
// ~|Z|*eps*I — the Newton step there is pure rounding noise that can sit
// above v_tolerance forever. The sparse kernel passes the real test; the
// dense kernel passes `false` to keep its iterate sequence bit-identical
// to the original implementation.
StepOutcome apply_damped_step(const DcOptions& options, std::size_t n_nodes,
                              const std::vector<double>& dx,
                              std::vector<double>& x, int it,
                              double max_residual,
                              bool residual_converged) {
  // Damped update: limit voltage steps to keep the exponential device
  // models inside their sane range.
  double max_dv = 0.0;
  for (std::size_t i = 0; i < n_nodes; ++i)
    max_dv = std::max(max_dv, std::fabs(dx[i]));
  if (!std::isfinite(max_dv)) return StepOutcome::Abort;
  const double scale =
      max_dv > options.step_limit ? options.step_limit / max_dv : 1.0;
  for (std::size_t i = 0; i < dx.size(); ++i) x[i] += scale * dx[i];
  for (std::size_t i = 0; i < n_nodes; ++i)
    x[i] = std::clamp(x[i], options.v_min, options.v_max);

  if (options.progress) {
    NewtonProgress progress;
    progress.iteration = it + 1;
    progress.max_dv = max_dv;
    progress.max_residual = max_residual;
    options.progress(progress);  // may throw (deadline enforcement)
  }

  // Converged when the full (unscaled) Newton step is tiny — at that point
  // the residual is quadratically small as well — or when the residual test
  // already passed.
  return (max_dv < options.v_tolerance || residual_converged)
             ? StepOutcome::Converged
             : StepOutcome::Continue;
}

// Cooperative cancellation poll, shared by the DC and transient Newton
// kernels. Cancellation surfaces through the same SolveTimeout channel as
// deadline expiry so every quarantine/retry path already handles it; the
// `cancelled` flag in the info tells the two apart.
[[noreturn]] void throw_cancelled(const char* where, int iterations,
                                  double worst_residual) {
  SolveFailureInfo info;
  info.cancelled = true;
  info.iterations = iterations;
  info.worst_residual = worst_residual;
  throw SolveTimeout(std::string(where) +
                         ": solve cancelled by CancelToken mid-Newton",
                     info);
}

}  // namespace

void poll_cancel(const CancelToken* cancel, const char* where, int iterations,
                 double worst_residual) {
  if (cancel && cancel->cancelled())
    throw_cancelled(where, iterations, worst_residual);
}

DcSolver::DcSolver(const Netlist& netlist, double temp_c, DcOptions options)
    : netlist_(netlist), assembler_(netlist, temp_c), options_(std::move(options)) {}

bool DcSolver::newton(std::vector<double>& x, double gmin,
                      NewtonStats* stats) const {
  return kernel_config().linear_solver == Kernel::Reference
             ? newton_dense(x, gmin, stats)
             : newton_sparse(x, gmin, stats);
}

// Structure-aware kernel: symbolic stamp plan + frozen linear base + numeric
// LU refactor, all in preallocated workspace storage — the steady-state
// iteration performs zero heap allocations.
bool DcSolver::newton_sparse(std::vector<double>& x, double gmin,
                             NewtonStats* stats) const {
  const std::size_t n_nodes = netlist_.node_count() - 1;
  // A caller-provided workspace carries the symbolic analysis (plan binding,
  // LU pivot order and fill) across DcSolver instances; otherwise use the
  // per-solver scratch.
  NewtonWorkspace& ws =
      options_.shared_workspace ? *options_.shared_workspace : ws_;

  for (int it = 0; it < options_.max_iterations; ++it) {
    poll_cancel(options_.cancel, "DcSolver", it,
                stats ? stats->max_residual : 0.0);
    assembler_.assemble_sparse(x, gmin, ws);

    if (SolverObserver* observer = solver_observer()) {
      SparseJacobianView view(ws.jacobian);
      NewtonEvent event;
      event.iteration = it;
      event.gmin = gmin;
      event.jacobian = &view;
      event.residual = &ws.residual;
      observer->on_newton_iteration(event);
    }

    // One fused pass over the residual: the node-row maximum (stats and
    // progress contract), the all-row maximum (convergence criterion), the
    // finiteness check and the RHS negation all touch the same vector.
    double max_residual = 0.0;    // node rows only
    double worst_residual = 0.0;  // every row, branch equations included
    bool finite = true;
    const std::size_t dim = ws.residual.size();
    for (std::size_t i = 0; i < dim; ++i) {
      const double r = ws.residual[i];
      const double mag = std::fabs(r);
      if (!std::isfinite(mag)) finite = false;
      if (mag > worst_residual) worst_residual = mag;
      if (i < n_nodes && mag > max_residual) max_residual = mag;
      ws.rhs[i] = -r;
    }
    if (stats) {
      stats->iterations = it + 1;
      stats->max_residual = max_residual;
    }

    // A non-finite residual (device model blow-up or injected fault) can
    // never converge — bail out so the caller escalates instead of burning
    // the whole iteration budget on NaN arithmetic.
    if (!finite) {
      if (stats) stats->non_finite = true;
      return false;
    }

    // Solve J * dx = -F, refining only in the endgame (see
    // kSparseRefineDvThreshold): the plain solve runs first, and only a
    // step already small enough to be near the convergence tolerance is
    // worth polishing.
    try {
      ws.lu.factor(ws.jacobian);
      ws.lu.solve(ws.rhs, ws.dx);
      double max_step = 0.0;
      for (std::size_t i = 0; i < n_nodes; ++i)
        max_step = std::max(max_step, std::fabs(ws.dx[i]));
      if (max_step < kSparseRefineDvThreshold)
        ws.lu.refine_step(ws.jacobian, ws.rhs, ws.dx);
    } catch (const ConvergenceError&) {
      return false;  // singular system at this point; let caller escalate
    }

    const bool residual_ok = worst_residual < options_.residual_tolerance;
    switch (apply_damped_step(options_, n_nodes, ws.dx, x, it, max_residual,
                              residual_ok)) {
      case StepOutcome::Converged: return true;
      case StepOutcome::Abort:
        // Abort means a non-finite Newton step (see apply_damped_step).
        if (stats) stats->non_finite = true;
        return false;
      case StepOutcome::Continue: break;
    }
  }
  return false;
}

// Dense fallback kernel (and test oracle): original dense assembly + LU,
// minus the former per-iteration Jacobian copy (in-place factorization).
bool DcSolver::newton_dense(std::vector<double>& x, double gmin,
                            NewtonStats* stats) const {
  Matrix jacobian(assembler_.dimension(), assembler_.dimension());
  std::vector<double> residual;
  const std::size_t n_nodes = netlist_.node_count() - 1;

  for (int it = 0; it < options_.max_iterations; ++it) {
    poll_cancel(options_.cancel, "DcSolver", it,
                stats ? stats->max_residual : 0.0);
    assembler_.assemble(x, jacobian, residual, gmin);

    if (SolverObserver* observer = solver_observer()) {
      DenseJacobianView view(jacobian);
      NewtonEvent event;
      event.iteration = it;
      event.gmin = gmin;
      event.jacobian = &view;
      event.residual = &residual;
      observer->on_newton_iteration(event);
    }

    double max_residual = 0.0;
    for (std::size_t i = 0; i < n_nodes; ++i)
      max_residual = std::max(max_residual, std::fabs(residual[i]));
    if (stats) {
      stats->iterations = it + 1;
      stats->max_residual = max_residual;
    }

    if (!all_finite(residual)) {
      if (stats) stats->non_finite = true;
      return false;
    }

    // Solve J * dx = -F, factoring the Jacobian in place (it is rebuilt by
    // the next assemble anyway).
    std::vector<double> rhs(residual.size());
    for (std::size_t i = 0; i < residual.size(); ++i) rhs[i] = -residual[i];
    std::vector<double> dx;
    try {
      dx = solve_linear_system_in_place(jacobian, rhs);
    } catch (const ConvergenceError&) {
      return false;  // singular system at this point; let caller escalate
    }

    switch (apply_damped_step(options_, n_nodes, dx, x, it, max_residual,
                              /*residual_converged=*/false)) {
      case StepOutcome::Converged: return true;
      case StepOutcome::Abort:
        if (stats) stats->non_finite = true;
        return false;
      case StepOutcome::Continue: break;
    }
  }
  return false;
}

ResidualReport DcSolver::residual_report(const std::vector<double>& x) const {
  std::vector<double> residual;
  assembler_.assemble_residual(x, residual, options_.gmin);

  ResidualReport report;
  std::size_t worst_row = 0;
  const std::size_t n_nodes = netlist_.node_count() - 1;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (!std::isfinite(residual[i])) report.non_finite = true;
    const double magnitude =
        std::isfinite(residual[i]) ? std::fabs(residual[i]) : HUGE_VAL;
    if (magnitude >= report.worst) {
      report.worst = magnitude;
      worst_row = i;
    }
  }
  // Node row i corresponds to node id i+1 (ground is eliminated).
  report.node = netlist_.node_name(static_cast<NodeId>(worst_row + 1));
  return report;
}

DcResult DcSolver::solve(const std::vector<double>* initial_guess) const {
  if (SolverObserver* observer = solver_observer()) observer->on_solve_begin();

  std::vector<double> x(assembler_.dimension(), 0.0);
  if (initial_guess) {
    if (initial_guess->size() != x.size())
      throw InvalidArgument("DcSolver: initial guess size mismatch");
    x = *initial_guess;
  }

  DcResult result;
  // Newton iterations summed across every attempt, successful or not. Each
  // newton() call's stats are folded in exactly once, immediately after the
  // call — the pre-fix code overwrote `stats` across the gmin ladder and
  // source ramp and only added the last attempt, so the ConvergenceError
  // message and DcResult::total_iterations under-counted the real work.
  int total_iterations = 0;
  bool any_non_finite = false;  // any attempt hit a NaN/Inf residual or step
  NewtonStats stats;
  const auto attempt = [&](DcSolver const& solver, std::vector<double>& xv,
                           double g) {
    stats.non_finite = false;
    const bool ok = solver.newton(xv, g, &stats);
    total_iterations += stats.iterations;
    any_non_finite = any_non_finite || stats.non_finite;
    return ok;
  };
  const auto finish = [&](std::vector<double>&& xv) {
    result.converged = true;
    result.iterations = stats.iterations;
    result.total_iterations = total_iterations;
    result.x = std::move(xv);
    result.node_v = assembler_.node_voltages(result.x);
    return result;
  };

  // Strategy 1: plain Newton from the given guess.
  if (attempt(*this, x, options_.gmin)) return finish(std::move(x));
  std::vector<double> best = x;  // best-effort estimate for diagnostics

  // Strategy 2: gmin stepping — start heavily damped toward ground and relax.
  if (options_.allow_gmin_stepping) {
    std::vector<double> xg(assembler_.dimension(), 0.0);
    bool ok = true;
    for (double g = 1e-3; g >= options_.gmin; g *= 0.1) {
      if (!attempt(*this, xg, g)) {
        ok = false;
        break;
      }
    }
    if (ok && attempt(*this, xg, options_.gmin)) return finish(std::move(xg));
  }

  // Strategy 3: source stepping — ramp all sources from zero.
  if (options_.allow_source_stepping) {
    std::vector<std::pair<ElementId, double>> vsources;
    std::vector<std::pair<ElementId, double>> isources;
    for (std::size_t ei = 0; ei < netlist_.element_count(); ++ei) {
      const Element& el = netlist_.element(static_cast<ElementId>(ei));
      if (const auto* v = std::get_if<VSource>(&el.body))
        vsources.push_back({static_cast<ElementId>(ei), v->volts});
      else if (const auto* i = std::get_if<ISource>(&el.body))
        isources.push_back({static_cast<ElementId>(ei), i->amps});
    }
    // We need mutability: const_cast is confined here and values are restored
    // before returning (the netlist is observably unchanged). The RAII guard
    // also restores if a progress callback or observer throws mid-ramp.
    Netlist& mutable_netlist = const_cast<Netlist&>(netlist_);
    const SourceRestorer restore(mutable_netlist, vsources, isources);
    std::vector<double> xs(assembler_.dimension(), 0.0);
    bool ok = true;
    for (double scale : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      for (const auto& [id, volts] : vsources)
        mutable_netlist.set_source_voltage(id, volts * scale);
      for (const auto& [id, amps] : isources)
        mutable_netlist.set_source_current(id, amps * scale);
      if (!attempt(*this, xs, options_.gmin)) {
        ok = false;
        break;
      }
    }
    if (ok) return finish(std::move(xs));
  }

  // Strategy 4: heavily damped Newton — slow but settles limit cycles caused
  // by sharp nonlinearities (e.g. a regulator driven deep into collapse).
  // A fallback like the others: skipped when the caller disabled them (the
  // retry ladder's pure-Newton rungs must stay cheap and predictable).
  if (options_.allow_gmin_stepping || options_.allow_source_stepping) {
    DcOptions damped = options_;
    damped.step_limit = 0.02;
    // Small steps need proportionally more iterations; scale the configured
    // budget instead of overriding it so per-attempt caps stay meaningful.
    damped.max_iterations = options_.max_iterations * 20;
    DcSolver damped_solver(netlist_, assembler_.temperature(), damped);
    std::vector<double> xd(assembler_.dimension(), 0.0);
    if (initial_guess) xd = *initial_guess;
    if (attempt(damped_solver, xd, options_.gmin)) return finish(std::move(xd));
    best = std::move(xd);
  }

  const ResidualReport report = residual_report(best);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "DcSolver: failed to find a DC operating point (plain Newton, "
                "gmin stepping, source stepping and damped Newton all "
                "diverged after %d iterations; worst residual %.3e A at node "
                "'%s'%s)",
                total_iterations, report.worst, report.node.c_str(),
                any_non_finite || report.non_finite ? "; non-finite residual"
                                                    : "");
  SolveFailureInfo info;
  info.iterations = total_iterations;
  info.worst_residual = report.worst;
  info.worst_node = report.node;
  info.non_finite = any_non_finite || report.non_finite;
  throw NewtonDivergence(buf, std::move(info));
}

double DcSolver::voltage(const DcResult& result, NodeId node) const {
  return assembler_.node_voltage(result.x, node);
}

double DcSolver::source_current(const DcResult& result, ElementId vsrc) const {
  return assembler_.vsource_current(result.x, vsrc);
}

DcResult solve_dc(const Netlist& netlist, double temp_c,
                  const DcOptions& options,
                  const std::vector<double>* initial_guess) {
  return DcSolver(netlist, temp_c, options).solve(initial_guess);
}

}  // namespace lpsram
