// Work-lease bookkeeping for the fabric coordinator. The sweep's task index
// range [0, count) is sharded into fixed-span leases; each lease moves
// through Pending -> Leased -> Completed, with two robustness edges:
//
//   * expiry: a Leased lease whose deadline passes (no heartbeat, result
//     or LeaseDone from its worker) drops back to Pending behind an
//     exponential-backoff gate, so a straggler is re-issued — but not
//     hot-looped — while the original worker may still be grinding;
//   * release: a worker that dies (forked worker's EOF) returns its lease to
//     Pending immediately, without backoff — death is definitive in a way a
//     missed heartbeat is not.
//
// Completion is task-driven, not message-driven: a lease is Completed when
// every task index in its span has a committed result, regardless of which
// worker (original or re-issued) delivered each one. Duplicate commits are
// the coordinator's reconciliation problem; the table only tracks coverage.
//
// The table is plain single-threaded state owned by the coordinator's event
// loop. Time is passed in (monotonic seconds) so tests can drive expiry
// deterministically.
#pragma once

#include <cstdint>
#include <vector>

namespace lpsram::fabric {

enum class LeaseState : std::uint8_t { Pending, Leased, Completed };

struct Lease {
  std::uint64_t id = 0;  // == position of the span: [id*span, min((id+1)*span, count))
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  LeaseState state = LeaseState::Pending;
  int worker = -1;            // holder while Leased, last holder otherwise
  std::uint64_t grants = 0;   // times issued (1 = first grant, >1 = re-issue)
  double deadline = 0.0;      // expiry instant while Leased
  double available_at = 0.0;  // backoff gate while Pending
};

struct LeaseTableOptions {
  std::uint64_t span = 4;          // tasks per lease
  double lease_timeout_s = 5.0;    // deadline = grant/heartbeat + timeout
  // Interval at which holders promise to refresh their lease. The table
  // itself never ticks heartbeats; it is validated here because a heartbeat
  // interval at or above the lease deadline silently re-issues every lease
  // the moment the holder pauses between tasks.
  double heartbeat_interval_s = 0.5;
  double backoff_initial_s = 0.05; // first re-issue delay after expiry
  double backoff_max_s = 2.0;      // exponential backoff cap
};

class LeaseTable {
 public:
  // Validates the configuration: span and every timeout must be positive,
  // the heartbeat interval must be strictly below the lease deadline, and
  // the backoff cap must not undercut the initial backoff. Violations throw
  // InvalidArgument with a message naming the offending field.
  LeaseTable(std::uint64_t task_count, LeaseTableOptions options);

  std::uint64_t lease_count() const noexcept { return leases_.size(); }
  std::uint64_t task_count() const noexcept { return task_count_; }
  const Lease& lease(std::uint64_t id) const { return leases_.at(id); }

  // Grants the lowest-id Pending lease whose backoff gate has passed to
  // `worker`; returns its id or -1 when nothing is currently grantable.
  std::int64_t grant(int worker, double now);

  // Marks one task index committed. Returns the id of the lease that just
  // became Completed because of it, or -1.
  std::int64_t note_task_done(std::uint64_t index);
  bool task_done(std::uint64_t index) const { return done_.at(index); }

  // Heartbeat / progress from the lease's holder: pushes the deadline out.
  void refresh(std::uint64_t id, double now);

  // Drops every over-deadline Leased lease back to Pending behind its
  // backoff gate; returns their ids.
  std::vector<std::uint64_t> expire(double now);

  // Worker died: its Leased lease (if any) re-queues immediately.
  std::vector<std::uint64_t> release_worker(int worker);

  // Pending task indices of a lease span, in index order (the grant message
  // carries exactly these, so a re-issued lease never re-runs tasks a
  // straggler already committed).
  std::vector<std::uint64_t> pending_indices(std::uint64_t id) const;

  std::uint64_t tasks_done() const noexcept { return tasks_done_; }
  bool all_done() const noexcept { return tasks_done_ == task_count_; }
  // True while any lease is Leased (used by graceful drain).
  bool any_leased() const noexcept;
  // True when some Pending lease is merely waiting out its backoff.
  bool any_pending() const noexcept;

  // Earliest instant at which anything can change without a message: the
  // soonest Leased deadline or Pending backoff gate. +inf when neither.
  double next_event() const noexcept;

 private:
  double backoff_for(std::uint64_t grants) const noexcept;

  std::uint64_t task_count_ = 0;
  LeaseTableOptions options_;
  std::vector<Lease> leases_;
  std::vector<bool> done_;      // per task index
  std::uint64_t tasks_done_ = 0;
};

}  // namespace lpsram::fabric
