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
  char buf[192];
  if (status == SolveStatus::Failed) {
    std::snprintf(buf, sizeof(buf),
                  "failed after %d attempts (%.1f ms)%s: %s", attempts,
                  elapsed_s * 1e3, timed_out ? " [deadline]" : "",
                  error.c_str());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s via %s: %d iters, %.2e A residual at '%s', %.1f ms",
                  status_name(status).c_str(), strategy_name(strategy).c_str(),
                  iterations, worst_residual, worst_node.c_str(),
                  elapsed_s * 1e3);
  }
  return buf;
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
    if (outcome.timed_out || outcome.cancelled) ++timeouts;
    if (outcome.cancelled) ++cancels;
  }
  if (outcome.non_finite) ++non_finite;
  for (const AttemptRecord& attempt : outcome.history)
    ++rung_attempts[static_cast<std::size_t>(attempt.strategy)];
  last = outcome;
}

void SolveTelemetry::merge(const SolveTelemetry& other) {
  const auto mine = telemetry_counters(*this);
  const auto theirs = telemetry_counters(other);
  for (std::size_t i = 0; i < mine.size(); ++i) *mine[i] += *theirs[i];
  if (other.solves > 0) last = other.last;
}

SolveTelemetry telemetry_delta(const SolveTelemetry& before,
                               const SolveTelemetry& after) {
  SolveTelemetry delta;
  const auto out = telemetry_counters(delta);
  const auto a = telemetry_counters(after);
  const auto b = telemetry_counters(before);
  for (std::size_t i = 0; i < out.size(); ++i) *out[i] = *a[i] - *b[i];
  delta.last = after.last;
  return delta;
}

}  // namespace lpsram
