#include "lpsram/runtime/campaign.hpp"

#include <algorithm>
#include <filesystem>

#include "lpsram/util/error.hpp"

namespace lpsram {
namespace {

// Manifest payload: [u64 salt][u64 fingerprint].
// TaskDone payload: [u64 task_key][driver bytes...].
// OpPoint payload:  [u64 circuit][u64 task][u32 defect][f64 r][vec x]
//                   (legacy journals only; never written).

JournalRecord manifest_record(std::uint64_t salt, std::uint64_t fingerprint) {
  PayloadWriter out;
  out.u64(salt);
  out.u64(fingerprint);
  return JournalRecord{kRecordManifest, out.take()};
}

// Manifest records in salt order, so snapshots are byte-reproducible.
void append_manifests(
    std::vector<JournalRecord>& records,
    const std::unordered_map<std::uint64_t, std::uint64_t>& manifests) {
  std::vector<std::uint64_t> salts;
  for (const auto& [salt, fp] : manifests) salts.push_back(salt);
  std::sort(salts.begin(), salts.end());
  for (const std::uint64_t salt : salts)
    records.push_back(manifest_record(salt, manifests.at(salt)));
}

// The one record committing a task. A legacy task's operating points are
// not carried over.
JournalRecord task_record(std::uint64_t key,
                          const std::vector<std::uint8_t>& payload) {
  PayloadWriter done;
  done.u64(key);
  std::vector<std::uint8_t> bytes = done.take();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return JournalRecord{kRecordTaskDone, std::move(bytes)};
}

ShardSnapshot snapshot_of(const JournalReplay& replay) {
  ShardSnapshot snapshot;
  snapshot.torn_tail = replay.torn_tail;

  // A legacy journal's op points buffer until their task's TaskDone commit
  // record arrives; points whose commit was lost to a torn tail are dropped
  // with the task.
  std::unordered_map<std::uint64_t, std::vector<ShardOpPoint>> pending_ops;
  for (const JournalRecord& record : replay.records) {
    PayloadReader in(record.payload);
    switch (record.type) {
      case kRecordManifest: {
        const std::uint64_t salt = in.u64();
        snapshot.manifests[salt] = in.u64();
        break;
      }
      case kRecordTaskDone: {
        const std::uint64_t key = in.u64();
        ShardTask& task = snapshot.tasks[key];
        task.payload.assign(record.payload.begin() + 8, record.payload.end());
        const auto ops = pending_ops.find(key);
        if (ops != pending_ops.end()) {
          task.ops = std::move(ops->second);
          pending_ops.erase(ops);
        }
        break;
      }
      case kRecordOpPoint: {
        ShardOpPoint op;
        op.key.circuit = in.u64();
        op.key.task = in.u64();
        op.key.defect = static_cast<std::int32_t>(in.u32());
        op.r = in.f64();
        op.x = in.vec_f64();
        pending_ops[op.key.task].push_back(std::move(op));
        break;
      }
      default:
        // Unknown record types are forward-compatibility, not corruption:
        // the checksum proved the bytes intact; a newer writer just knows
        // record kinds this reader does not. Skip.
        break;
    }
  }
  return snapshot;
}

}  // namespace

Campaign::Campaign(std::string path) {
  const JournalReplay replay = replay_journal(path);
  state_ = snapshot_of(replay);
  writer_.open(path, replay.valid_bytes);
}

Campaign::~Campaign() = default;

void Campaign::bind_sweep(std::uint64_t salt, std::uint64_t fingerprint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = state_.manifests.find(salt);
  if (it != state_.manifests.end()) {
    if (it->second != fingerprint)
      throw InvalidArgument(
          "Campaign: journal '" + writer_.path() +
          "' was recorded with a different sweep configuration (manifest "
          "fingerprint mismatch) — resume with the original options or use a "
          "fresh journal");
    return;
  }
  state_.manifests[salt] = fingerprint;
  const JournalRecord record = manifest_record(salt, fingerprint);
  writer_.append(record.type, record.payload);
}

const std::vector<std::uint8_t>* Campaign::find_result(
    std::uint64_t task_key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = state_.tasks.find(task_key);
  return it == state_.tasks.end() ? nullptr : &it->second.payload;
}

void Campaign::record_result(std::uint64_t task_key,
                             const std::vector<std::uint8_t>& payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const JournalRecord record = task_record(task_key, payload);
  writer_.append(record.type, record.payload);
  state_.tasks[task_key].payload = payload;
}

void Campaign::compact() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JournalRecord> records;
  append_manifests(records, state_.manifests);
  std::vector<std::uint64_t> keys;
  for (const auto& [key, task] : state_.tasks) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys)
    records.push_back(task_record(key, state_.tasks.at(key).payload));
  writer_.compact(records);
}

std::size_t Campaign::completed_tasks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_.tasks.size();
}

std::vector<std::uint64_t> Campaign::task_keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> keys;
  keys.reserve(state_.tasks.size());
  for (const auto& [key, task] : state_.tasks) keys.push_back(key);
  return keys;
}

// --- Shard snapshots and journal merge --------------------------------------

ShardSnapshot read_campaign_snapshot(const std::string& path) {
  return snapshot_of(replay_journal(path));
}

std::size_t merge_shard_journals(
    const std::string& out_path, const std::vector<std::string>& shard_paths,
    const std::vector<std::uint64_t>& keys_in_index_order,
    std::uint64_t* duplicates) {
  std::unordered_map<std::uint64_t, std::uint64_t> manifests;
  std::unordered_map<std::uint64_t, const ShardTask*> winners;
  std::uint64_t extra_commits = 0;

  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(shard_paths.size());
  for (const std::string& shard : shard_paths)
    snapshots.push_back(read_campaign_snapshot(shard));

  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    for (const auto& [salt, fp] : snapshots[s].manifests) {
      const auto it = manifests.find(salt);
      if (it == manifests.end()) {
        manifests[salt] = fp;
      } else if (it->second != fp) {
        throw InvalidArgument("merge: shard '" + shard_paths[s] +
                              "' carries a different manifest fingerprint — "
                              "shards from different sweep configurations "
                              "cannot be merged");
      }
    }
    for (const auto& [key, task] : snapshots[s].tasks) {
      const auto it = winners.find(key);
      if (it == winners.end()) {
        winners[key] = &task;
        continue;
      }
      // Straggler re-issue: a later shard recomputed the task. Determinism
      // demands the payload match bit for bit; first shard wins.
      ++extra_commits;
      if (it->second->payload != task.payload)
        throw JournalCorrupt(
            "merge: task key " + std::to_string(key) + " in shard '" +
            shard_paths[s] +
            "' disagrees with an earlier shard's payload — duplicate commits "
            "must be bit-identical");
    }
  }

  std::vector<JournalRecord> records;
  append_manifests(records, manifests);
  for (const std::uint64_t key : keys_in_index_order) {
    const auto it = winners.find(key);
    if (it == winners.end())
      throw InvalidArgument("merge: task key " + std::to_string(key) +
                            " is in no shard journal — the campaign is not "
                            "complete, merge refused");
    records.push_back(task_record(key, it->second->payload));
  }

  // Atomic publication: the merged journal appears all at once or not at
  // all, and the rename is made durable by the directory fsync.
  const std::string staging = out_path + ".merging";
  {
    JournalWriter writer;
    writer.open(staging, 0);
    for (const JournalRecord& record : records)
      writer.append(record.type, record.payload);
  }
  std::error_code ec;
  std::filesystem::rename(staging, out_path, ec);
  if (ec)
    throw JournalCorrupt("merge: rename of '" + staging + "' failed: " +
                         ec.message());
  fsync_parent_dir(out_path);

  if (duplicates) *duplicates = extra_commits;
  return keys_in_index_order.size();
}

// --- Payload helpers -------------------------------------------------------

void encode_quarantine(PayloadWriter& out, const QuarantinedPoint& point) {
  out.str(point.context);
  out.str(point.error_type);
  out.str(point.reason);
  out.u8(point.non_finite ? 1 : 0);
}

QuarantinedPoint decode_quarantine(PayloadReader& in) {
  QuarantinedPoint point;
  point.context = in.str();
  point.error_type = in.str();
  point.reason = in.str();
  point.non_finite = in.u8() != 0;
  return point;
}

void encode_telemetry(PayloadWriter& out, const SolveTelemetry& t) {
  for (const std::uint64_t* counter : telemetry_counters(t)) out.u64(*counter);
}

SolveTelemetry decode_telemetry(PayloadReader& in) {
  // Counters only: timings are excluded from the resume determinism
  // contract.
  SolveTelemetry t;
  for (std::uint64_t* counter : telemetry_counters(t)) *counter = in.u64();
  return t;
}

}  // namespace lpsram
