#include "lpsram/spice/hooks.hpp"

#include <atomic>

namespace lpsram {
namespace {

// Session-wide observer slot. Atomic so installation (test setup on the main
// thread) is race-free against solver threads reading it mid-sweep.
std::atomic<SolverObserver*> g_observer{nullptr};

// Per-thread task override (see ScopedTaskObserver). `active` distinguishes
// "no override in force" from "override in force, suppressing the session
// observer" (observer == nullptr).
thread_local SolverObserver* t_task_observer = nullptr;
thread_local bool t_task_override_active = false;

}  // namespace

SolverObserver* solver_observer() noexcept {
  if (t_task_override_active) return t_task_observer;
  return g_observer.load(std::memory_order_acquire);
}

SolverObserver* session_solver_observer() noexcept {
  return g_observer.load(std::memory_order_acquire);
}

SolverObserver* exchange_solver_observer(SolverObserver* observer) noexcept {
  return g_observer.exchange(observer, std::memory_order_acq_rel);
}

ScopedTaskObserver::ScopedTaskObserver(std::uint64_t task_key) {
  if (SolverObserver* session = session_solver_observer())
    fork_ = session->fork_for_task(task_key);
  saved_observer_ = t_task_observer;
  saved_active_ = t_task_override_active;
  t_task_observer = fork_.get();
  t_task_override_active = true;
}

ScopedTaskObserver::~ScopedTaskObserver() {
  t_task_observer = saved_observer_;
  t_task_override_active = saved_active_;
  // fork_ destruction (and its merge into the parent) happens after the
  // override is lifted, so the merge itself is never observed.
}

ScopedObserverSilence::ScopedObserverSilence()
    : saved_observer_(t_task_observer), saved_active_(t_task_override_active) {
  t_task_observer = nullptr;
  t_task_override_active = true;
}

ScopedObserverSilence::~ScopedObserverSilence() {
  t_task_observer = saved_observer_;
  t_task_override_active = saved_active_;
}

}  // namespace lpsram
