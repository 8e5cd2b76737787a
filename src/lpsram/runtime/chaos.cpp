#include "lpsram/runtime/chaos.hpp"

#include <limits>

namespace lpsram {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t hash) {
  return static_cast<double>(hash >> 11) * 0x1.0p-53;
}

}  // namespace

std::string chaos_fault_name(ChaosFault fault) {
  switch (fault) {
    case ChaosFault::NanResidual: return "nan-residual";
    case ChaosFault::SingularJacobian: return "singular-jacobian";
    case ChaosFault::IterationCap: return "iteration-cap";
  }
  return "?";
}

ChaosEngine::ChaosEngine(ChaosPolicy policy)
    : policy_(std::move(policy)), injection_counts_(3, 0) {}

ChaosEngine::ChaosEngine(ChaosPolicy policy, ChaosEngine* parent)
    : policy_(std::move(policy)), parent_(parent), injection_counts_(3, 0) {}

ChaosEngine::~ChaosEngine() {
  if (parent_) parent_->absorb(*this);
}

std::unique_ptr<SolverObserver> ChaosEngine::fork_for_task(
    std::uint64_t task_key) {
  ChaosPolicy child = policy_;
  child.seed = splitmix64(policy_.seed ^ task_key);
  return std::unique_ptr<SolverObserver>(new ChaosEngine(std::move(child), this));
}

void ChaosEngine::absorb(const ChaosEngine& child) {
  const std::lock_guard<std::mutex> lock(merge_mutex_);
  solves_seen_ += child.solves_seen_;
  solves_sabotaged_ += child.solves_sabotaged_;
  first_attempts_seen_ += child.first_attempts_seen_;
  first_attempts_sabotaged_ += child.first_attempts_sabotaged_;
  for (std::size_t i = 0; i < injection_counts_.size(); ++i)
    injection_counts_[i] += child.injection_counts_[i];
}

std::uint64_t ChaosEngine::injections(ChaosFault fault) const {
  return injection_counts_[static_cast<std::size_t>(fault)];
}

void ChaosEngine::on_ladder_attempt(int attempt, const std::string&) {
  ladder_attempt_ = attempt;
}

void ChaosEngine::on_solve_begin() {
  const std::uint64_t index = solves_seen_++;
  const bool first_attempt = ladder_attempt_ == 0;
  if (first_attempt) ++first_attempts_seen_;
  sabotage_current_ = false;
  if (policy_.faults.empty()) return;

  const double rate = first_attempt ? policy_.first_attempt_failure_rate
                                    : policy_.retry_failure_rate;
  if (rate <= 0.0) return;

  const std::uint64_t h = splitmix64(policy_.seed ^ (index * 0x9e37ULL + 1));
  if (uniform01(h) >= rate) return;

  sabotage_current_ = true;
  ++solves_sabotaged_;
  if (first_attempt) ++first_attempts_sabotaged_;
  current_fault_ =
      policy_.faults[splitmix64(h) % policy_.faults.size()];
}

void ChaosEngine::on_newton_iteration(NewtonEvent& event) {
  if (!sabotage_current_) return;
  ++injection_counts_[static_cast<std::size_t>(current_fault_)];

  switch (current_fault_) {
    case ChaosFault::NanResidual:
      for (double& r : *event.residual)
        r = std::numeric_limits<double>::quiet_NaN();
      break;

    case ChaosFault::SingularJacobian: {
      // Zero an entire row through the representation-independent view:
      // LU pivoting (dense or sparse) finds no usable pivot and throws,
      // exactly like a genuinely singular operating point.
      JacobianView& j = *event.jacobian;
      const std::size_t row =
          splitmix64(policy_.seed ^ static_cast<std::uint64_t>(event.iteration)) %
          j.dimension();
      j.zero_row(row);
      break;
    }

    case ChaosFault::IterationCap:
      // Keep the residual large and finite: Newton keeps stepping without
      // converging until it breaches max_iterations.
      for (double& r : *event.residual) r = 1.0;
      break;
  }
}

}  // namespace lpsram
