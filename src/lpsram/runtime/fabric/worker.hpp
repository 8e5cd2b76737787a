// What a fabric sweep hands to its workers: the task key and task functions,
// and the deterministic fault injection the kill matrices arm. The worker
// itself is net/remote_worker.hpp, for forked and TCP fleets alike.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace lpsram::fabric {

// Computes the stable task key for a sweep index (same key the single-process
// campaign would use, so merged journals replay interchangeably).
using FabricKeyFn = std::function<std::uint64_t(std::uint64_t index)>;

// Executes one task and returns its journal payload — byte-identical to what
// the single-process campaign codec would record for the same index. `slot`
// is the executor worker slot in [0, threads) for per-slot scratch state.
using FabricTaskFn =
    std::function<std::vector<std::uint8_t>(std::uint64_t index, int slot)>;

// Deterministic fault injection for the kill matrices. All hooks are
// one-shot and disabled at 0.
struct WorkerChaos {
  // _Exit(9) immediately after the Nth result of this worker's life has been
  // uploaded (and, over TCP, acknowledged) — death exactly at a lease
  // boundary, with the Nth result already committed.
  std::uint64_t exit_after_results = 0;
  // Before executing the (N+1)th task, go silent for `wedge_s` seconds
  // (no heartbeat): the straggler whose lease must expire and be re-issued
  // elsewhere while this worker eventually finishes and double-commits.
  std::uint64_t wedge_after_results = 0;
  double wedge_s = 0.0;
  // Arm ScopedJournalCrash(N) on this process once its shard journal is
  // open: the Nth shard-journal append after that tears mid-record and the
  // worker dies — the torn tail must be truncated away on resume, never
  // merged.
  std::uint64_t crash_shard_at_append = 0;
};

}  // namespace lpsram::fabric
