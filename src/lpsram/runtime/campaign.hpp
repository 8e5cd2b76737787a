// Crash-resumable campaign layer over SweepExecutor + the journal.
//
// A Campaign owns one journal file and exposes two things to the sweep
// runner (runtime/sweep.hpp):
//   * bind_sweep(salt, fingerprint) — registers a sweep's configuration
//     under its task-key salt; resuming against a journal recorded with a
//     different configuration (different PVT grid, tolerances, ...) is
//     refused instead of silently mixing results.
//   * find_result / record_result — each finished task's payload, journaled
//     as the task finishes and replayed by key on resume.
//
// Resume determinism contract: a journaled task is replayed from its
// payload, never re-run, and a pending task re-runs from scratch with
// nothing of the interrupted run carried over — its operating-point chain
// is born with the task, so it sees exactly the solve sequence it would
// have seen in the uninterrupted run. Final tables and deterministic
// telemetry counters are bit-identical. (Timings are excluded from the
// contract; replayed tasks report zero wall-clock.)
//
// Older journals also hold, as record type 3, the DC operating points each
// task stored. No resume could use them: they belong to committed tasks,
// which are replayed, never re-run. They are decoded for inspection only,
// and compaction and merge drop them.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lpsram/runtime/journal.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/runtime/quarantine.hpp"

namespace lpsram {

// Journal record types used by the campaign layer.
inline constexpr std::uint8_t kRecordManifest = 1;   // salt + config fingerprint
inline constexpr std::uint8_t kRecordTaskDone = 2;   // task key + driver payload
inline constexpr std::uint8_t kRecordOpPoint = 3;    // legacy, read-only

// One operating point from a legacy journal, verbatim. Its key carries the
// task key the old process-wide point table folded in.
struct ShardOpPoint {
  struct Key {
    std::uint64_t circuit = 0;
    std::uint64_t task = 0;
    std::int32_t defect = 0;
  };
  Key key;
  double r = 0.0;
  std::vector<double> x;
};

// One completed task recovered from a journal: the journaled result payload
// plus, for a legacy journal, the operating points committed with it.
struct ShardTask {
  std::vector<std::uint8_t> payload;
  std::vector<ShardOpPoint> ops;
};

// What a campaign/shard journal holds. read_campaign_snapshot is a read-only
// replay: no writer is opened, no torn tail is truncated on disk — safe to
// call on files another process may still be appending to (records past the
// snapshot are simply not seen yet).
struct ShardSnapshot {
  std::unordered_map<std::uint64_t, std::uint64_t> manifests;  // salt -> fp
  std::unordered_map<std::uint64_t, ShardTask> tasks;          // by task key
  bool torn_tail = false;
};
ShardSnapshot read_campaign_snapshot(const std::string& path);

class Campaign {
 public:
  // Opens (creating if absent) and replays the journal at `path`. Throws
  // JournalCorrupt on interior damage; a torn tail is truncated and the
  // campaign resumes after the last intact record.
  explicit Campaign(std::string path);
  ~Campaign();

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  // Registers a sweep's configuration fingerprint under its task-key salt.
  // Appends a manifest record the first time; on resume, throws
  // InvalidArgument if the journal was recorded with a different
  // fingerprint for the same salt.
  void bind_sweep(std::uint64_t salt, std::uint64_t fingerprint);

  // Journaled result payload for a task, or nullptr if the task has not
  // completed. The last record wins if a task was somehow journaled twice.
  const std::vector<std::uint8_t>* find_result(std::uint64_t task_key) const;

  // Appends a task's TaskDone record. Thread-safe.
  void record_result(std::uint64_t task_key,
                     const std::vector<std::uint8_t>& payload);

  // Rewrites the journal as a compact snapshot: manifests, then each
  // completed task's TaskDone record, in sorted task-key order. Atomic
  // (write-temp + flush + rename).
  void compact();

  const std::string& path() const noexcept { return writer_.path(); }
  std::size_t completed_tasks() const;
  // Keys of every completed task, unordered. The fabric worker uses this to
  // skip tasks its shard journal already holds when a lease is re-granted.
  std::vector<std::uint64_t> task_keys() const;
  bool resumed_from_torn_tail() const noexcept { return state_.torn_tail; }

 private:
  mutable std::mutex mutex_;
  JournalWriter writer_;
  // Manifests and completed tasks, replayed and recorded alike.
  ShardSnapshot state_;
};

// ---------------------------------------------------------------------------
// Journal merge (the fabric's durability substrate).

// Merges worker shard journals into one campaign journal at `out_path`,
// records ordered by `keys_in_index_order` (the sweep's task-index order, so
// replaying the merged journal through SweepRunner yields tables
// bit-identical to an uninterrupted single-process run). Rules:
//   * every key must be present in at least one shard — a gap throws
//     InvalidArgument (the coordinator only merges once all leases closed);
//   * a key present in several shards (straggler re-issue) must carry
//     byte-identical payloads in all of them — a mismatch throws
//     JournalCorrupt (it would mean task execution was nondeterministic);
//     the first shard in `shard_paths` order wins, and `*duplicates` (when
//     given) counts the extra commits;
//   * shard manifests must agree per salt across shards and are carried
//     into the merged journal.
// The merge is atomic: write-temp + rename + directory fsync, so a crash
// mid-merge never leaves a partial merged journal behind. Returns the number
// of tasks merged.
std::size_t merge_shard_journals(
    const std::string& out_path, const std::vector<std::string>& shard_paths,
    const std::vector<std::uint64_t>& keys_in_index_order,
    std::uint64_t* duplicates = nullptr);

// Payload helpers for quarantine records and telemetry counters (the sweep
// runner frames quarantined and solve-counting tasks with them).
void encode_quarantine(PayloadWriter& out, const QuarantinedPoint& point);
QuarantinedPoint decode_quarantine(PayloadReader& in);
void encode_telemetry(PayloadWriter& out, const SolveTelemetry& t);
SolveTelemetry decode_telemetry(PayloadReader& in);

}  // namespace lpsram
