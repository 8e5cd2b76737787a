#include "lpsram/runtime/solve_outcome.hpp"

#include <cstdio>

namespace lpsram {

std::string strategy_name(SolveStrategy strategy) {
  switch (strategy) {
    case SolveStrategy::WarmStart: return "warm-start";
    case SolveStrategy::ColdStart: return "cold-start";
    case SolveStrategy::DenseGmin: return "dense-gmin";
    case SolveStrategy::RelaxedPolish: return "relaxed-polish";
    case SolveStrategy::PerturbedGuess: return "perturbed-guess";
  }
  return "?";
}

std::string status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::Converged: return "converged";
    case SolveStatus::Degraded: return "degraded";
    case SolveStatus::Failed: return "failed";
  }
  return "?";
}

std::string SolveOutcome::summary() const {
  if (status == SolveStatus::Failed)
    return "failed after " + std::to_string(attempts) + " attempts: " + error;
  std::string s = status_name(status) + " via " + strategy_name(strategy) +
                  ": " + std::to_string(iterations) + " iters";
  if (status == SolveStatus::Degraded) {
    char residual[64];
    std::snprintf(residual, sizeof(residual), ", %.2e A residual at '",
                  worst_residual);
    s += residual + worst_node + "'";
  }
  return s;
}

void SolveTelemetry::record(const SolveOutcome& outcome) {
  ++solves;
  if (outcome.ok()) {
    if (outcome.strategy == SolveStrategy::WarmStart && outcome.attempts == 1) {
      ++warm_hits;
    } else if (!outcome.history.empty() &&
               outcome.history.front().strategy == SolveStrategy::WarmStart &&
               !outcome.history.front().converged) {
      ++fallbacks;
    }
    if (outcome.status == SolveStatus::Degraded) ++degraded;
  } else {
    ++failures;
    if (outcome.cancelled) {
      ++timeouts;
      ++cancels;
    }
  }
  if (outcome.non_finite) ++non_finite;
  for (const AttemptRecord& attempt : outcome.history)
    ++rung_attempts[static_cast<std::size_t>(attempt.strategy)];
}

void SolveTelemetry::merge(const SolveTelemetry& other) {
  const auto mine = telemetry_counters(*this);
  const auto theirs = telemetry_counters(other);
  for (std::size_t i = 0; i < mine.size(); ++i) *mine[i] += *theirs[i];
}

SolveTelemetry telemetry_delta(const SolveTelemetry& before,
                               const SolveTelemetry& after) {
  SolveTelemetry delta;
  const auto out = telemetry_counters(delta);
  const auto a = telemetry_counters(after);
  const auto b = telemetry_counters(before);
  for (std::size_t i = 0; i < out.size(); ++i) *out[i] = *a[i] - *b[i];
  return delta;
}

}  // namespace lpsram
