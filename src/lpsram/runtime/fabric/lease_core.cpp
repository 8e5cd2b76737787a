#include "lpsram/runtime/fabric/lease_core.hpp"

#include <string>
#include <utility>

#include "lpsram/runtime/fabric/fabric.hpp"

namespace lpsram::fabric {

LeaseCore::LeaseCore(
    const FabricSweepOptions& options, std::uint64_t task_count,
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> recovered)
    : options_(options),
      task_count_(task_count),
      table_(task_count,
             LeaseTableOptions{options.lease_span, options.lease_timeout_s,
                               options.heartbeat_interval_s,
                               options.backoff_initial_s,
                               options.backoff_max_s}) {
  replay_lease_log();
  lease_completion_logged_.assign(table_.lease_count(), false);

  for (auto& [index, payload] : recovered) {
    if (index >= task_count_)
      throw InvalidArgument("fabric: recovered task index out of range");
    payloads_[index] = std::move(payload);
    const std::int64_t completed = table_.note_task_done(index);
    if (completed >= 0)
      lease_completion_logged_[static_cast<std::size_t>(completed)] = true;
    ++report_.tasks_recovered;
  }
  report_.tasks_total = task_count_;
}

void LeaseCore::replay_lease_log() {
  const std::string path = coordinator_log_path(options_.dir);
  const JournalReplay replay = replay_journal(path);
  bool have_manifest = false;
  for (const JournalRecord& record : replay.records) {
    if (record.type != kFabLogManifest) continue;
    PayloadReader r(record.payload);
    const std::uint64_t salt = r.u64();
    const std::uint64_t fp = r.u64();
    const std::uint64_t tasks = r.u64();
    const std::uint64_t span = r.u64();
    if (salt != options_.salt || fp != options_.fingerprint ||
        tasks != task_count_ || span != options_.lease_span)
      throw InvalidArgument(
          "fabric: lease log was recorded for a different sweep "
          "(manifest mismatch) — refusing to resume against it");
    have_manifest = true;
  }
  log_.open(path, replay.valid_bytes);
  if (!have_manifest) {
    PayloadWriter w;
    w.u64(options_.salt);
    w.u64(options_.fingerprint);
    w.u64(task_count_);
    w.u64(options_.lease_span);
    log_.append(kFabLogManifest, w.take());
  }
}

void LeaseCore::log_lease_issued(std::uint64_t lease, int worker) {
  PayloadWriter rec;
  rec.u64(lease);
  rec.u32(static_cast<std::uint32_t>(worker));
  rec.u64(table_.lease(lease).grants);
  log_.append(kFabLogLeaseIssued, rec.take());
}

std::int64_t LeaseCore::grant(int worker, double now,
                              std::vector<std::uint64_t>* indices) {
  if (drain_requested()) return -1;
  const std::int64_t id = table_.grant(worker, now);
  if (id < 0) return -1;
  *indices = table_.pending_indices(static_cast<std::uint64_t>(id));
  log_lease_issued(static_cast<std::uint64_t>(id), worker);
  return id;
}

std::int64_t LeaseCore::regrant_held(int worker, double now,
                                     std::vector<std::uint64_t>* indices) {
  for (std::uint64_t id = 0; id < table_.lease_count(); ++id) {
    const Lease& lease = table_.lease(id);
    if (lease.state != LeaseState::Leased || lease.worker != worker) continue;
    table_.refresh(id, now);
    *indices = table_.pending_indices(id);
    log_lease_issued(id, worker);
    return static_cast<std::int64_t>(id);
  }
  return -1;
}

bool LeaseCore::commit(std::uint64_t index, std::uint64_t key,
                       std::vector<std::uint8_t> payload) {
  if (index >= task_count_)
    throw Error("fabric: committed task index out of range");
  if (table_.task_done(index)) {
    // Straggler re-commit. First commit won; this one must be
    // byte-identical or the determinism contract is broken and the merged
    // journal would depend on scheduling.
    const auto it = payloads_.find(index);
    if (it == payloads_.end() || it->second != payload)
      throw JournalCorrupt(
          "fabric: duplicate commit for task " + std::to_string(index) +
          " differs from the first — nondeterministic task execution");
    ++report_.duplicates;
    return false;
  }
  payloads_[index] = std::move(payload);
  PayloadWriter rec;
  rec.u64(index);
  rec.u64(key);
  log_.append(kFabLogTaskCommitted, rec.take());
  ++report_.tasks_executed;
  const std::int64_t completed = table_.note_task_done(index);
  if (completed >= 0 &&
      !lease_completion_logged_[static_cast<std::size_t>(completed)]) {
    lease_completion_logged_[static_cast<std::size_t>(completed)] = true;
    PayloadWriter done;
    done.u64(static_cast<std::uint64_t>(completed));
    log_.append(kFabLogLeaseCompleted, done.take());
  }
  return true;
}

void LeaseCore::note_liveness(int worker, std::uint64_t lease, double now) {
  if (lease < table_.lease_count() &&
      table_.lease(lease).state == LeaseState::Leased &&
      table_.lease(lease).worker == worker)
    table_.refresh(lease, now);
}

void LeaseCore::expire(double now) {
  for (const std::uint64_t id : table_.expire(now)) {
    ++report_.leases_expired;
    PayloadWriter rec;
    rec.u64(id);
    log_.append(kFabLogLeaseExpired, rec.take());
    // The silent holder keeps its busy mark with its transport: it gets no
    // further grants until it speaks again or its connection dies.
  }
}

void LeaseCore::release_worker(int worker_id) {
  ++report_.workers_died;
  PayloadWriter rec;
  rec.u32(static_cast<std::uint32_t>(worker_id));
  log_.append(kFabLogWorkerDead, rec.take());
  // Death is definitive: the lease re-queues immediately, no backoff.
  for (const std::uint64_t id : table_.release_worker(worker_id)) {
    PayloadWriter req;
    req.u64(id);
    log_.append(kFabLogLeaseExpired, req.take());
  }
}

void LeaseCore::log_merged(std::uint64_t tasks, std::uint64_t duplicates) {
  PayloadWriter rec;
  rec.u64(tasks);
  rec.u64(duplicates);
  log_.append(kFabLogMerged, rec.take());
}

}  // namespace lpsram::fabric
