// Top-level fabric entry point: fork a worker fleet, coordinate leases,
// survive kills on either side, merge the shards.
//
// run_fabric(options, count, key_of, task_fn) executes the indexed sweep
// [0, count) across `options.workers` forked processes and, on completion,
// merges the per-worker shard journals into one campaign journal at
// options.merged_path() whose replay is bit-identical to an uninterrupted
// single-process run of the same sweep.
//
// The forked fleet is the TCP fleet without the network: each child runs
// run_forked_worker over a socketpair it inherited, and this process runs
// run_net_fabric with no listener and the parent ends of those socketpairs
// (see net/server.hpp, "Forked workers").
//
// Crash envelope:
//   * worker dies (SIGKILL, OOM, chaos _Exit, shard-journal crash): its
//     socketpair EOFs, its lease re-queues, the sweep finishes on the
//     survivors; if every worker dies, FabricWorkersLost is thrown — and a
//     rerun of run_fabric with the same options resumes from the shard
//     journals, re-executing only uncommitted tasks;
//   * coordinator dies (crash injection on its lease log, real kill): the
//     worker fleet sees EOF and exits; a rerun replays the lease log (for
//     manifest verification), rescans the shards, and leases only the gaps;
//   * a wedged worker goes silent past the lease timeout: its lease is
//     re-issued elsewhere with exponential backoff, and when the straggler
//     eventually commits the duplicate results are verified byte-identical
//     and dropped.
//
// On platforms without fork()/socketpair() run_fabric throws lpsram::Error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lpsram/runtime/fabric/lease_core.hpp"
#include "lpsram/runtime/fabric/net/server.hpp"
#include "lpsram/runtime/fabric/worker.hpp"

namespace lpsram::fabric {

// File layout inside a fabric directory.
std::string shard_journal_path(const std::string& dir, int worker_id);
std::string coordinator_log_path(const std::string& dir);
std::string worker_pid_path(const std::string& dir, int worker_id);

struct FabricOptions : FabricSweepOptions {
  int workers = 1;
  // Executor threads inside each worker; 0 = split the host budget evenly
  // (SweepExecutor::threads_per_process(workers)).
  int worker_threads = 1;
  // Per-worker-id fault injection for the kill matrices; entries beyond
  // workers are ignored, missing entries mean no chaos.
  std::vector<WorkerChaos> chaos;
};

// Runs the sweep across a forked worker fleet; blocks until every task is
// committed and merged, the drain token fires, or FabricWorkersLost.
// `key_of` and `task_fn` are evaluated in the worker processes (and key_of
// additionally in the parent, for shard recovery and merge ordering) — they
// must be pure functions of the index and the process-wide sweep
// configuration.
FabricReport run_fabric(const FabricOptions& options, std::uint64_t count,
                        const FabricKeyFn& key_of, const FabricTaskFn& task_fn);

// SIGKILLs every worker whose pidfile is present under `dir` (best effort;
// already-dead pids are skipped) and removes the pidfiles. Returns the
// number of processes signalled. The operator's big red button, also exposed
// via tools/fabric_inspect.py killall.
int kill_all_workers(const std::string& dir);

}  // namespace lpsram::fabric
