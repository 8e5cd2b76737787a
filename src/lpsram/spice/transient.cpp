#include "lpsram/spice/transient.hpp"

#include <algorithm>
#include <cmath>

#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"

namespace lpsram {

double Waveform::min_value(std::size_t p) const {
  if (p >= values.size() || values[p].empty())
    throw InvalidArgument("Waveform: bad probe index");
  return *std::min_element(values[p].begin(), values[p].end());
}

double Waveform::at(std::size_t p, double t) const {
  if (p >= values.size() || values[p].empty())
    throw InvalidArgument("Waveform: bad probe index");
  const auto& ts = time;
  const auto& vs = values[p];
  if (t <= ts.front()) return vs.front();
  if (t >= ts.back()) return vs.back();
  const auto it = std::lower_bound(ts.begin(), ts.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - ts.begin());
  const std::size_t lo = hi - 1;
  const double frac = (t - ts[lo]) / (ts[hi] - ts[lo]);
  return vs[lo] + frac * (vs[hi] - vs[lo]);
}

double Waveform::deficit_integral(std::size_t p, double threshold) const {
  if (p >= values.size())
    throw InvalidArgument("Waveform: bad probe index");
  const auto& vs = values[p];
  double integral = 0.0;
  for (std::size_t k = 1; k < time.size(); ++k) {
    const double d0 = std::max(0.0, threshold - vs[k - 1]);
    const double d1 = std::max(0.0, threshold - vs[k]);
    integral += 0.5 * (d0 + d1) * (time[k] - time[k - 1]);
  }
  return integral;
}

TransientSolver::TransientSolver(Netlist& netlist, double temp_c,
                                 TransientOptions options)
    : netlist_(netlist),
      temp_c_(temp_c),
      options_(options),
      assembler_(netlist, temp_c) {}

bool TransientSolver::step(double dt, std::vector<double>& x_next) {
  return kernel_config().linear_solver == Kernel::Reference
             ? step_dense(dt, x_next)
             : step_sparse(dt, x_next);
}

bool TransientSolver::step_sparse(double dt, std::vector<double>& x_next) {
  x_next = x_;
  const std::size_t n_nodes = netlist_.node_count() - 1;

  for (int it = 0; it < options_.dc.max_iterations; ++it) {
    poll_cancel(options_.dc.cancel, "TransientSolver", it, 0.0);
    assembler_.assemble_sparse(x_next, options_.dc.gmin, ws_, &x_, dt);
    // Secondary (ABSTOL-style) acceptance, sparse kernel only — see the
    // matching note in dc_solver.cpp: on a high-impedance node dv is
    // rounding noise that may never drop under v_tolerance even though
    // every KCL residual is at machine precision.
    double max_res = 0.0;
    for (std::size_t i = 0; i < ws_.residual.size(); ++i)
      max_res = std::max(max_res, std::fabs(ws_.residual[i]));
    const bool residual_ok = max_res < options_.dc.residual_tolerance;
    for (std::size_t i = 0; i < ws_.residual.size(); ++i)
      ws_.rhs[i] = -ws_.residual[i];
    try {
      ws_.lu.factor(ws_.jacobian);
      // Refine only in the endgame (see kSparseRefineDvThreshold): early
      // step-limited iterations just need a direction.
      ws_.lu.solve(ws_.rhs, ws_.dx);
      double max_step = 0.0;
      for (std::size_t i = 0; i < n_nodes; ++i)
        max_step = std::max(max_step, std::fabs(ws_.dx[i]));
      if (max_step < kSparseRefineDvThreshold)
        ws_.lu.refine_step(ws_.jacobian, ws_.rhs, ws_.dx);
    } catch (const ConvergenceError&) {
      return false;
    }
    double max_dv = 0.0;
    for (std::size_t i = 0; i < n_nodes; ++i)
      max_dv = std::max(max_dv, std::fabs(ws_.dx[i]));
    if (!std::isfinite(max_dv)) return false;
    const double scale = max_dv > options_.dc.step_limit
                             ? options_.dc.step_limit / max_dv
                             : 1.0;
    for (std::size_t i = 0; i < ws_.dx.size(); ++i)
      x_next[i] += scale * ws_.dx[i];
    if (max_dv < options_.dc.v_tolerance || residual_ok) return true;
  }
  return false;
}

bool TransientSolver::step_dense(double dt, std::vector<double>& x_next) {
  Matrix jacobian(assembler_.dimension(), assembler_.dimension());
  std::vector<double> residual;
  x_next = x_;

  for (int it = 0; it < options_.dc.max_iterations; ++it) {
    poll_cancel(options_.dc.cancel, "TransientSolver", it, 0.0);
    assembler_.assemble(x_next, jacobian, residual, options_.dc.gmin, &x_,
                        dt);
    std::vector<double> rhs(residual.size());
    for (std::size_t i = 0; i < residual.size(); ++i) rhs[i] = -residual[i];
    std::vector<double> dx;
    try {
      dx = solve_linear_system_in_place(jacobian, rhs);
    } catch (const ConvergenceError&) {
      return false;
    }
    double max_dv = 0.0;
    const std::size_t n_nodes = netlist_.node_count() - 1;
    for (std::size_t i = 0; i < n_nodes; ++i)
      max_dv = std::max(max_dv, std::fabs(dx[i]));
    const double scale = max_dv > options_.dc.step_limit
                             ? options_.dc.step_limit / max_dv
                             : 1.0;
    for (std::size_t i = 0; i < dx.size(); ++i) x_next[i] += scale * dx[i];
    if (max_dv < options_.dc.v_tolerance) return true;
  }
  return false;
}

Waveform TransientSolver::run(const std::vector<NodeId>& probes,
                              const Stimulus& stimulus,
                              const std::vector<double>* initial_x) {
  if (stimulus) stimulus(0.0, netlist_);

  if (initial_x) {
    if (initial_x->size() != assembler_.dimension())
      throw InvalidArgument("TransientSolver: initial state size mismatch");
    x_ = *initial_x;
  } else {
    DcResult dc = DcSolver(netlist_, temp_c_, options_.dc).solve();
    x_ = std::move(dc.x);
  }

  Waveform wave;
  wave.values.resize(probes.size());
  auto record = [&](double t) {
    wave.time.push_back(t);
    for (std::size_t p = 0; p < probes.size(); ++p)
      wave.values[p].push_back(assembler_.node_voltage(x_, probes[p]));
  };
  record(0.0);

  double t = 0.0;
  double dt = options_.dt_initial;
  std::vector<double> x_next;

  while (t < options_.t_stop) {
    // Poll between accepted steps too: a cancel that lands while the step
    // loop is not in Newton (e.g. during waveform recording) still cuts the
    // simulation off at the next boundary.
    poll_cancel(options_.dc.cancel, "TransientSolver", 0, 0.0);
    dt = std::min(dt, options_.t_stop - t);
    if (stimulus) stimulus(t + dt, netlist_);

    if (step(dt, x_next)) {
      x_ = x_next;
      t += dt;
      record(t);
      dt = std::min(dt * 1.5, options_.dt_max);  // accepted: grow the step
    } else {
      dt *= 0.25;  // rejected: shrink and retry
      if (dt < options_.dt_min)
        throw ConvergenceError(
            "TransientSolver: step size underflow at t = " + std::to_string(t));
    }
  }
  return wave;
}

}  // namespace lpsram
