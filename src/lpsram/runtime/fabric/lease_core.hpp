// Transport-agnostic heart of the fabric coordinator: the lease table, the
// durable lease log, duplicate-commit reconciliation and the run statistics,
// with no opinion about how worker messages arrive.
//
// The fabric server (net/server.hpp) drives it for forked and TCP workers
// alike through the same methods: grant/regrant, commit (first-commit-wins,
// later commits verified byte-identical), liveness refresh, expiry with
// exponential backoff, and definitive release on worker death. The lease log
// written here is what a restarted coordinator replays for manifest
// verification before rescanning the shard journals.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "lpsram/runtime/fabric/lease.hpp"
#include "lpsram/runtime/journal.hpp"
#include "lpsram/util/cancel.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram::fabric {

// Lease-log record types (journal framing, decoded by tools/fabric_inspect.py).
inline constexpr std::uint8_t kFabLogManifest = 1;        // [u64 salt][u64 fp][u64 tasks][u64 span]
inline constexpr std::uint8_t kFabLogLeaseIssued = 2;     // [u64 lease][u32 worker][u64 grants]
inline constexpr std::uint8_t kFabLogLeaseExpired = 3;    // [u64 lease]
inline constexpr std::uint8_t kFabLogLeaseCompleted = 4;  // [u64 lease]
inline constexpr std::uint8_t kFabLogTaskCommitted = 5;   // [u64 index][u64 key]
inline constexpr std::uint8_t kFabLogWorkerDead = 6;      // [u32 worker]
inline constexpr std::uint8_t kFabLogMerged = 7;          // [u64 tasks][u64 duplicates]

// Every worker died (or none were supplied) while tasks remain. The shard
// journals still hold everything committed so far — rerunning the fabric
// resumes from them; nothing is lost.
class FabricWorkersLost : public Error {
 public:
  explicit FabricWorkersLost(const std::string& what) : Error(what) {}
};

// What every fabric run is configured with, however its workers arrive.
struct FabricSweepOptions {
  std::string dir;         // shard + lease-log directory, created if absent
  std::string merged_out;  // merged journal path; empty = dir/merged.journal
  std::uint64_t lease_span = 4;
  double lease_timeout_s = 5.0;  // must exceed the slowest single task
  double heartbeat_interval_s = 0.5;
  double backoff_initial_s = 0.05;
  double backoff_max_s = 2.0;
  std::uint64_t salt = 0;  // sweep manifest (same values the single-process
  std::uint64_t fingerprint = 0;  // campaign would bind) — refused on mismatch
  // Optional graceful drain: once cancelled, no new leases are issued,
  // in-flight leases finish, workers get kMsgShutdown, and the run returns
  // with complete == false (unless the last lease happened to finish it).
  const CancelToken* drain = nullptr;

  std::string merged_path() const {
    return merged_out.empty() ? dir + "/merged.journal" : merged_out;
  }
};

struct FabricReport {
  std::uint64_t tasks_total = 0;
  std::uint64_t tasks_recovered = 0;  // committed before this run (shard scan)
  std::uint64_t tasks_executed = 0;   // first commits received this run
  std::uint64_t duplicates = 0;       // reconciled re-commits (verified equal)
  std::uint64_t leases_issued = 0;
  std::uint64_t leases_expired = 0;
  std::uint64_t workers_died = 0;
  bool drained = false;
  bool complete = false;  // every task committed
};

class LeaseCore {
 public:
  // `recovered` maps task index -> committed payload found in the shard
  // journals before this run (see read_campaign_snapshot); those indices are
  // marked done up front and only gaps are leased. Opens/replays the lease
  // log (coordinator_log_path(options.dir)): a prior log whose manifest
  // disagrees with `options` and `task_count` is refused (InvalidArgument)
  // instead of silently mixing sweeps.
  LeaseCore(const FabricSweepOptions& options, std::uint64_t task_count,
            std::unordered_map<std::uint64_t, std::vector<std::uint8_t>>
                recovered);

  LeaseCore(const LeaseCore&) = delete;
  LeaseCore& operator=(const LeaseCore&) = delete;

  // Grants the next available lease to `worker` and logs the issue. Fills
  // *indices with the span's still-pending task indices (the grant message
  // carries exactly these). Returns the lease id, or -1 when nothing is
  // grantable right now. Does NOT bump report().leases_issued — the
  // transport does that once the grant actually reached the worker.
  std::int64_t grant(int worker, double now,
                     std::vector<std::uint64_t>* indices);

  // Reconnect resume: if `worker` still holds a Leased lease (its connection
  // dropped but the deadline has not passed and nobody re-issued it), push
  // the deadline out, log the re-issue and return the lease id + pending
  // indices. -1 when the worker holds nothing — it must discard and ask for
  // a fresh grant.
  std::int64_t regrant_held(int worker, double now,
                            std::vector<std::uint64_t>* indices);

  // Commits one task result, first-commit-wins. A first commit is logged
  // (TaskCommitted, plus LeaseCompleted when it closes its span) and
  // returns true; a duplicate is verified byte-identical against the first
  // and returns false; a byte mismatch throws JournalCorrupt (it means task
  // execution was nondeterministic, which the merge contract cannot
  // survive). An out-of-range index throws Error.
  bool commit(std::uint64_t index, std::uint64_t key,
              std::vector<std::uint8_t> payload);

  // Heartbeat or visible progress from `worker`: refreshes `lease`'s
  // deadline iff that worker currently holds it. Stale/foreign ids are
  // ignored — late heartbeats from a re-issued lease's original holder must
  // not keep the re-issue alive.
  void note_liveness(int worker, std::uint64_t lease, double now);

  // Drops over-deadline leases back to Pending behind their backoff gates,
  // logging each expiry.
  void expire(double now);

  // Definitive worker death (a forked worker's socketpair EOF): logs
  // WorkerDead and requeues the worker's held leases immediately, without
  // backoff.
  void release_worker(int worker_id);

  // Appends the kFabLogMerged marker after the merged journal is published
  // (the log stays open for exactly this final record).
  void log_merged(std::uint64_t tasks, std::uint64_t duplicates);

  bool all_done() const noexcept { return table_.all_done(); }
  bool any_leased() const noexcept { return table_.any_leased(); }
  double next_event() const noexcept { return table_.next_event(); }
  std::uint64_t tasks_remaining() const noexcept {
    return task_count_ - table_.tasks_done();
  }
  bool drain_requested() const noexcept {
    return options_.drain != nullptr && options_.drain->cancelled();
  }

  FabricReport& report() noexcept { return report_; }

 private:
  void log_lease_issued(std::uint64_t lease, int worker);
  void replay_lease_log();

  FabricSweepOptions options_;
  std::uint64_t task_count_;
  LeaseTable table_;
  JournalWriter log_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> payloads_;
  std::vector<bool> lease_completion_logged_;
  FabricReport report_;
};

}  // namespace lpsram::fabric
