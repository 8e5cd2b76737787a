// Numerical fault-injection harness ("chaos") for the DC solve path.
//
// A ChaosEngine is a SolverObserver that deterministically sabotages solves
// according to a seed-driven policy: NaN residuals, singular-Jacobian
// perturbations and iteration-cap breaches. Installed via ChaosScope (RAII
// over the global solver-observer registry), it lets tests prove that the
// retry ladder and sweep quarantine paths actually engage — the solver
// under test cannot tell injected faults from real numerical fragility.
//
// Determinism: the decision to sabotage solve #k is a pure function of
// (seed, k, ladder attempt index), so a chaos run is exactly reproducible
// and a clean run can be compared point-for-point against it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lpsram/spice/hooks.hpp"

namespace lpsram {

enum class ChaosFault {
  NanResidual,      // poisons the assembled residual with NaN
  SingularJacobian, // zeroes a Jacobian row so LU factorization fails
  IterationCap,     // keeps the residual huge so Newton burns its budget
};

std::string chaos_fault_name(ChaosFault fault);

struct ChaosPolicy {
  std::uint64_t seed = 1;

  // Probability that a solve starting a retry ladder (attempt 0, or any
  // plain DcSolver::solve outside a ladder) is sabotaged.
  double first_attempt_failure_rate = 0.0;

  // Probability that a solve issued by escalation rungs (attempt >= 1) is
  // sabotaged. Keep 0 to prove "first attempt fails, retry recovers".
  double retry_failure_rate = 0.0;

  // Fault kinds rotated through deterministically per sabotaged solve.
  std::vector<ChaosFault> faults = {ChaosFault::NanResidual,
                                    ChaosFault::SingularJacobian,
                                    ChaosFault::IterationCap};
};

class ChaosEngine : public SolverObserver {
 public:
  explicit ChaosEngine(ChaosPolicy policy);

  ~ChaosEngine() override;

  // SolverObserver
  void on_solve_begin() override;
  void on_newton_iteration(NewtonEvent& event) override;
  void on_ladder_attempt(int attempt, const std::string& strategy) override;

  // Task-scoped fork for parallel sweeps: the child runs the same policy
  // reseeded as a pure function of (parent seed, task_key), so the sabotage
  // pattern a task sees depends only on the task's identity — never on how
  // tasks interleave across threads. On destruction the child folds its
  // counters back into this engine under a mutex, so parent-side telemetry
  // totals are exact (though only stable once all forks are gone).
  std::unique_ptr<SolverObserver> fork_for_task(std::uint64_t task_key) override;

  const ChaosPolicy& policy() const noexcept { return policy_; }

  // Telemetry for assertions and reports.
  std::uint64_t solves_seen() const noexcept { return solves_seen_; }
  std::uint64_t solves_sabotaged() const noexcept { return solves_sabotaged_; }
  std::uint64_t injections(ChaosFault fault) const;
  double sabotage_fraction() const noexcept {
    return solves_seen_ ? static_cast<double>(solves_sabotaged_) /
                              static_cast<double>(solves_seen_)
                        : 0.0;
  }
  // First-attempt view: solves_seen() is diluted by the retry solves each
  // sabotage provokes, so "what fraction of solves failed on the first
  // attempt" must be measured over first attempts only.
  std::uint64_t first_attempts_seen() const noexcept {
    return first_attempts_seen_;
  }
  std::uint64_t first_attempts_sabotaged() const noexcept {
    return first_attempts_sabotaged_;
  }
  double first_attempt_sabotage_fraction() const noexcept {
    return first_attempts_seen_
               ? static_cast<double>(first_attempts_sabotaged_) /
                     static_cast<double>(first_attempts_seen_)
               : 0.0;
  }

 private:
  // Fork constructor: same policy with a task-derived seed, counters folded
  // into `parent` on destruction.
  ChaosEngine(ChaosPolicy policy, ChaosEngine* parent);

  // Adds `child`'s counters into this engine (under merge_mutex_).
  void absorb(const ChaosEngine& child);

  ChaosPolicy policy_;
  ChaosEngine* parent_ = nullptr;  // set on forks only
  std::mutex merge_mutex_;         // guards counter absorption from forks
  std::uint64_t solves_seen_ = 0;
  std::uint64_t solves_sabotaged_ = 0;
  std::uint64_t first_attempts_seen_ = 0;
  std::uint64_t first_attempts_sabotaged_ = 0;
  int ladder_attempt_ = 0;         // last attempt index announced by the ladder
  bool sabotage_current_ = false;  // current solve is under attack
  ChaosFault current_fault_ = ChaosFault::NanResidual;
  std::vector<std::uint64_t> injection_counts_;  // indexed by ChaosFault
};

// RAII installation of a ChaosEngine as the process-wide solver observer.
class ChaosScope {
 public:
  explicit ChaosScope(ChaosEngine& engine) : scoped_(&engine) {}

 private:
  ScopedSolverObserver scoped_;
};

}  // namespace lpsram
