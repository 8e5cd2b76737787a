// Instrumentation hooks for the Newton DC solver.
//
// A single process-wide SolverObserver can be installed (RAII via
// ScopedSolverObserver); the DC solver reports every solve attempt and every
// Newton iteration to it. Observers may *mutate* the assembled system —
// that is the mechanism the runtime chaos harness uses to inject numerical
// faults (NaN residuals, singular Jacobians, iteration-cap breaches)
// deterministically, without the solver knowing it is under test. Observers
// may also throw to abort a solve; the exception propagates out of
// DcSolver::solve like any other.
//
// Threading model (PR 2): the global registry slot is atomic, so installing
// or removing an observer is race-free even while sweeps run. Observer
// *callbacks*, however, are not required to be thread-safe — a parallel
// sweep must not invoke one observer instance from many workers. The sweep
// executor therefore scopes every task with ScopedTaskObserver, which asks
// the installed session observer to fork_for_task() a task-private child
// (installed as a thread-local override) and merges it back when the task
// ends. An observer that does not implement fork_for_task() simply observes
// nothing inside executor tasks (the thread-local override is null); it
// still sees every solve issued outside of executor tasks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lpsram/util/matrix.hpp"
#include "lpsram/util/sparse.hpp"

namespace lpsram {

// Representation-independent handle to the live Jacobian of a Newton
// iteration. Observers (chaos fault injection, TSan-exercised telemetry)
// mutate the system through this view so they behave identically whether the
// solver assembled a dense Matrix or the sparse CSR workspace — no dense
// copy is ever materialized for the hook's benefit. Mutations a view cannot
// express on a sparse pattern (writes to structurally absent entries) are
// deliberately not offered: fault injection targets what the solver will
// actually factor.
class JacobianView {
 public:
  virtual ~JacobianView() = default;
  virtual std::size_t dimension() const noexcept = 0;
  // Makes row r numerically zero (a structurally singular system for the
  // factorization that follows).
  virtual void zero_row(std::size_t r) noexcept = 0;
};

class DenseJacobianView final : public JacobianView {
 public:
  explicit DenseJacobianView(Matrix& m) noexcept : m_(&m) {}
  std::size_t dimension() const noexcept override { return m_->rows(); }
  void zero_row(std::size_t r) noexcept override {
    for (std::size_t c = 0; c < m_->cols(); ++c) (*m_)(r, c) = 0.0;
  }

 private:
  Matrix* m_;
};

class SparseJacobianView final : public JacobianView {
 public:
  explicit SparseJacobianView(SparseMatrix& m) noexcept : m_(&m) {}
  std::size_t dimension() const noexcept override { return m_->dimension(); }
  void zero_row(std::size_t r) noexcept override { m_->zero_row(r); }

 private:
  SparseMatrix* m_;
};

// One Newton iteration, observed after system assembly and before the linear
// solve. `jacobian` and `residual` are live and mutable.
struct NewtonEvent {
  int iteration = 0;  // 0-based within the current Newton attempt
  double gmin = 0.0;  // gmin in force for this attempt
  JacobianView* jacobian = nullptr;
  std::vector<double>* residual = nullptr;
};

class SolverObserver {
 public:
  virtual ~SolverObserver() = default;

  // Called once at the top of every DcSolver::solve call.
  virtual void on_solve_begin() {}

  // Called each Newton iteration after assembly; may mutate the system or
  // throw to abort the attempt.
  virtual void on_newton_iteration(NewtonEvent& event) { (void)event; }

  // Called by the resilient runtime layer before each retry-ladder attempt
  // (attempt 0 = first rung). Plain DcSolver use never emits this.
  virtual void on_ladder_attempt(int attempt, const std::string& strategy) {
    (void)attempt;
    (void)strategy;
  }

  // Parallel-sweep support: returns a task-private child observer for the
  // sweep task identified by `task_key`, or nullptr when the observer does
  // not support task scoping (the default). The child is driven by exactly
  // one worker thread for the task's lifetime and destroyed at task end —
  // its destructor is where counters merge back into the parent. The child's
  // behaviour must be a pure function of (parent state at fork, task_key) so
  // a sweep is bit-reproducible regardless of how tasks map onto threads.
  virtual std::unique_ptr<SolverObserver> fork_for_task(std::uint64_t task_key) {
    (void)task_key;
    return nullptr;
  }
};

// Observer visible to the calling thread: the thread-local task override
// when one is active (see ScopedTaskObserver), else the global session
// observer. The solvers consult this on every solve/iteration.
SolverObserver* solver_observer() noexcept;

// The globally installed session observer, ignoring any thread-local task
// override. This is what ScopedTaskObserver forks from.
SolverObserver* session_solver_observer() noexcept;

// Atomically installs `observer` (may be nullptr) as the session observer
// and returns the previous one. Safe to call while other threads solve.
SolverObserver* exchange_solver_observer(SolverObserver* observer) noexcept;

// RAII installation: restores the previous observer on destruction.
class ScopedSolverObserver {
 public:
  explicit ScopedSolverObserver(SolverObserver* observer)
      : previous_(exchange_solver_observer(observer)) {}
  ~ScopedSolverObserver() { exchange_solver_observer(previous_); }

  ScopedSolverObserver(const ScopedSolverObserver&) = delete;
  ScopedSolverObserver& operator=(const ScopedSolverObserver&) = delete;

 private:
  SolverObserver* previous_;
};

// RAII task scope for parallel sweeps: forks the session observer for
// `task_key` and installs the fork as this thread's observer override for
// the scope's lifetime (a null fork suppresses the session observer inside
// the scope — observer instances are not thread-safe and must not be shared
// across concurrently running tasks). Destroying the scope destroys the
// fork, which merges its telemetry back into the parent.
class ScopedTaskObserver {
 public:
  explicit ScopedTaskObserver(std::uint64_t task_key);
  ~ScopedTaskObserver();

  ScopedTaskObserver(const ScopedTaskObserver&) = delete;
  ScopedTaskObserver& operator=(const ScopedTaskObserver&) = delete;

  // The task-private fork (nullptr when the session observer is absent or
  // does not support forking).
  SolverObserver* fork() const noexcept { return fork_.get(); }

 private:
  std::unique_ptr<SolverObserver> fork_;
  SolverObserver* saved_observer_ = nullptr;
  bool saved_active_ = false;
};

// RAII: hides every observer, task fork and session observer alike, from
// this thread for the scope's lifetime. For solves whose result must not
// depend on the task that happens to run them.
class ScopedObserverSilence {
 public:
  ScopedObserverSilence();
  ~ScopedObserverSilence();

  ScopedObserverSilence(const ScopedObserverSilence&) = delete;
  ScopedObserverSilence& operator=(const ScopedObserverSilence&) = delete;

 private:
  SolverObserver* saved_observer_ = nullptr;
  bool saved_active_ = false;
};

}  // namespace lpsram
