// Structured result of a resilient DC solve: replaces throw-or-succeed with
// a typed outcome carrying status, the strategy that produced the result,
// iteration/residual diagnostics, and the full attempt history.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "lpsram/spice/dc_solver.hpp"

namespace lpsram {

// The escalation rungs of the retry ladder, in ladder order.
enum class SolveStrategy {
  WarmStart,      // caller-provided guess (neighboring sweep point)
  ColdStart,      // zero guess, stock solver fallbacks
  DenseGmin,      // runtime-level gmin continuation, half-decade schedule
  RelaxedPolish,  // loose tolerances first, then warm-started tight polish
  PerturbedGuess, // seed-driven randomized initial-guess perturbation
};

std::string strategy_name(SolveStrategy strategy);

// Number of ladder rungs (size of per-strategy counter arrays).
inline constexpr std::size_t kSolveStrategyCount = 5;

enum class SolveStatus {
  Converged,  // full-tolerance operating point
  Degraded,   // relaxed-tolerance point accepted after polish failed
  Failed,     // every rung exhausted (or cancelled)
};

std::string status_name(SolveStatus status);

// One retry-ladder attempt, recorded whether it succeeded or not.
struct AttemptRecord {
  SolveStrategy strategy = SolveStrategy::ColdStart;
  bool converged = false;
  int iterations = 0;      // Newton iterations consumed by the attempt
  std::string error;       // failure message (empty on success)
};

struct SolveOutcome {
  SolveStatus status = SolveStatus::Failed;
  SolveStrategy strategy = SolveStrategy::ColdStart;  // rung that produced `result`
  int attempts = 0;             // ladder rungs tried
  int iterations = 0;           // Newton iterations of the winning attempt
  // Max |KCL residual| [A] and the node carrying it: the accepted point's
  // when Degraded, the last divergence's when Failed; 0 and "" when
  // Converged (full tolerance by construction).
  double worst_residual = 0.0;
  std::string worst_node;
  bool cancelled = false;       // a CancelToken cut the solve off
  bool non_finite = false;      // some attempt saw a NaN/Inf residual or step
  std::string error;            // failure description (empty unless Failed)
  DcResult result;              // valid when status != Failed
  std::vector<AttemptRecord> history;

  bool ok() const noexcept { return status != SolveStatus::Failed; }

  // "converged via cold-start: 12 iters"
  std::string summary() const;
};

// Running counters a solve-owning component (e.g. VoltageRegulator) keeps so
// silent fallbacks become visible telemetry instead of swallowed exceptions.
// Not thread-safe: one instance belongs to one solve owner on one thread at
// a time; parallel sweeps keep per-task deltas and merge() them in task-index
// order (see SweepTelemetry in runtime/parallel.hpp).
struct SolveTelemetry {
  std::uint64_t solves = 0;
  std::uint64_t warm_hits = 0;   // first-rung warm start succeeded
  std::uint64_t fallbacks = 0;   // warm start failed but a later rung recovered
  std::uint64_t degraded = 0;    // accepted a relaxed-tolerance solution
  std::uint64_t failures = 0;    // retry ladder exhausted
  std::uint64_t timeouts = 0;    // cut off by a CancelToken
  std::uint64_t cancels = 0;     // the same count as timeouts
  std::uint64_t non_finite = 0;  // solves that saw a NaN/Inf residual or step
  // Ladder attempts per strategy, indexed by SolveStrategy: every entry of
  // every outcome's history counts, converged or not.
  std::array<std::uint64_t, kSolveStrategyCount> rung_attempts{};
  // Operating-point chain traffic (counted by the solve owner while a sweep
  // task's OperatingPointChain is lent to it; zero otherwise): seeds found,
  // seeds missed, points stored.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stores = 0;

  void record(const SolveOutcome& outcome);
  // Adds `other`'s counters into this one.
  void merge(const SolveTelemetry& other);
  void reset() { *this = SolveTelemetry{}; }
};

// Pointers to every counter of `t` (const or not), in the one order
// telemetry merges, subtracts and journals in.
template <typename Telemetry>
auto telemetry_counters(Telemetry& t) {
  std::array<decltype(&t.solves), 11 + kSolveStrategyCount> counters{
      &t.solves,   &t.warm_hits, &t.fallbacks, &t.degraded,
      &t.failures, &t.timeouts,  &t.cancels,   &t.non_finite};
  for (std::size_t i = 0; i < kSolveStrategyCount; ++i)
    counters[8 + i] = &t.rung_attempts[i];
  counters[8 + kSolveStrategyCount] = &t.cache_hits;
  counters[9 + kSolveStrategyCount] = &t.cache_misses;
  counters[10 + kSolveStrategyCount] = &t.cache_stores;
  return counters;
}

// Counter-wise difference (after - before) of two snapshots of the same
// telemetry instance. Used by sweep drivers to attribute solves to
// individual tasks.
SolveTelemetry telemetry_delta(const SolveTelemetry& before,
                               const SolveTelemetry& after);

}  // namespace lpsram
