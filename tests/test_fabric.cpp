// Multi-process campaign-fabric suite: lease-table unit behaviour, the typed
// wire channel, shard snapshot/merge semantics, and the kill matrices the
// fabric exists for, run on the forked fleet — worker kills at every lease
// boundary, coordinator kills at every lease-log append, wedged-straggler
// re-issue with duplicate reconciliation — each demanding a merged journal
// byte-identical to the single-process golden run. (The same server and
// worker serve TCP fleets; test_fabric_net.cpp covers that transport. Both
// suites run the synthetic sweep of fabric_synth.hpp.)
//
// Thread/sanitizer notes: the parent test process is single-threaded at
// every fork() (TSan supports single-threaded fork), forked workers run
// their executors at threads=1, and children leave via _Exit so sanitizer
// atexit machinery never runs twice.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lpsram/regulator/characterize.hpp"
#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/fabric/admission.hpp"
#include "lpsram/runtime/fabric/fabric.hpp"
#include "lpsram/runtime/fabric/lease.hpp"
#include "lpsram/runtime/fabric/wire.hpp"
#include "lpsram/runtime/journal.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/cancel.hpp"
#include "lpsram/util/error.hpp"
#include "fabric_synth.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define LPSRAM_FABRIC_POSIX 1
#endif

namespace lpsram {
namespace {

namespace fs = std::filesystem;
using namespace lpsram::fabric;
using namespace lpsram::fabric_synth;

FabricOptions synth_options(const std::string& dir, int workers) {
  FabricOptions options;
  set_synth_sweep(options);
  options.dir = dir;
  options.workers = workers;
  options.worker_threads = 1;
  return options;
}

// ---------- LeaseTable -------------------------------------------------------

TEST(LeaseTable, SpansPartitionTheTaskRange) {
  LeaseTable table(10, LeaseTableOptions{.span = 4});
  ASSERT_EQ(table.lease_count(), 3u);
  EXPECT_EQ(table.lease(0).begin, 0u);
  EXPECT_EQ(table.lease(0).end, 4u);
  EXPECT_EQ(table.lease(2).begin, 8u);
  EXPECT_EQ(table.lease(2).end, 10u);  // short tail span
  EXPECT_FALSE(table.all_done());
  EXPECT_THROW(LeaseTable(4, LeaseTableOptions{.span = 0}), InvalidArgument);
}

// Mis-set timing would not fail loudly at runtime — it would quietly re-issue
// every lease or never expire one — so it must be refused at construction,
// with a message naming the offending field.
TEST(LeaseTable, TimingConfigValidatedAtConstruction) {
  const auto expect_rejected = [](LeaseTableOptions options,
                                  const std::string& needle) {
    try {
      LeaseTable table(8, options);
      ADD_FAILURE() << "accepted bad config (wanted error about " << needle
                    << ")";
    } catch (const InvalidArgument& err) {
      EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
          << err.what();
    }
  };
  expect_rejected({.span = 2, .lease_timeout_s = 0.0}, "lease timeout");
  expect_rejected({.span = 2, .lease_timeout_s = -3.0}, "lease timeout");
  expect_rejected({.span = 2, .lease_timeout_s = 5.0,
                   .heartbeat_interval_s = 0.0},
                  "heartbeat interval");
  expect_rejected({.span = 2, .lease_timeout_s = 5.0,
                   .heartbeat_interval_s = -0.5},
                  "heartbeat interval");
  // A heartbeat at or above the lease deadline is the subtle one: every
  // lease would expire before its holder's next heartbeat could land.
  expect_rejected({.span = 2, .lease_timeout_s = 1.0,
                   .heartbeat_interval_s = 1.0},
                  "heartbeat interval");
  expect_rejected({.span = 2, .lease_timeout_s = 1.0,
                   .heartbeat_interval_s = 2.0},
                  "lease timeout");
  expect_rejected({.span = 2, .lease_timeout_s = 5.0,
                   .heartbeat_interval_s = 0.5, .backoff_initial_s = 0.0},
                  "backoff");
  expect_rejected({.span = 2, .lease_timeout_s = 5.0,
                   .heartbeat_interval_s = 0.5, .backoff_initial_s = 0.2,
                   .backoff_max_s = 0.1},
                  "backoff cap");
  // The boundary cases that must be accepted.
  EXPECT_NO_THROW(LeaseTable(8, {.span = 1, .lease_timeout_s = 1.0,
                                 .heartbeat_interval_s = 0.999,
                                 .backoff_initial_s = 0.1,
                                 .backoff_max_s = 0.1}));
}

TEST(LeaseTable, GrantTakesLowestPendingAndArmsDeadline) {
  LeaseTable table(8, LeaseTableOptions{.span = 2, .lease_timeout_s = 1.0});
  EXPECT_EQ(table.grant(/*worker=*/7, /*now=*/10.0), 0);
  EXPECT_EQ(table.grant(8, 10.0), 1);
  EXPECT_EQ(table.lease(0).state, LeaseState::Leased);
  EXPECT_EQ(table.lease(0).worker, 7);
  EXPECT_DOUBLE_EQ(table.lease(0).deadline, 11.0);
  table.refresh(0, 10.5);
  EXPECT_DOUBLE_EQ(table.lease(0).deadline, 11.5);
}

TEST(LeaseTable, TaskCompletionClosesTheLease) {
  LeaseTable table(4, LeaseTableOptions{.span = 2});
  EXPECT_EQ(table.grant(0, 0.0), 0);
  EXPECT_EQ(table.note_task_done(0), -1);  // half the span: still open
  EXPECT_EQ(table.note_task_done(1), 0);   // full span: lease 0 completed
  EXPECT_EQ(table.lease(0).state, LeaseState::Completed);
  // A duplicate commit changes nothing.
  EXPECT_EQ(table.note_task_done(1), -1);
  EXPECT_EQ(table.tasks_done(), 2u);
  EXPECT_TRUE(table.task_done(1));
  EXPECT_FALSE(table.all_done());
  table.note_task_done(2);
  table.note_task_done(3);
  EXPECT_TRUE(table.all_done());
}

TEST(LeaseTable, ExpiryRequeuesBehindExponentialBackoff) {
  LeaseTableOptions options;
  options.span = 2;
  options.lease_timeout_s = 1.0;
  options.backoff_initial_s = 0.1;
  options.backoff_max_s = 0.3;
  LeaseTable table(2, options);

  ASSERT_EQ(table.grant(0, 0.0), 0);
  EXPECT_TRUE(table.expire(0.5).empty());  // deadline not reached
  const auto expired = table.expire(1.5);
  ASSERT_EQ(expired, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(table.lease(0).state, LeaseState::Pending);
  // Backoff gate: not grantable immediately, grantable after it passes.
  EXPECT_EQ(table.grant(1, 1.5), -1);
  EXPECT_DOUBLE_EQ(table.next_event(), 1.6);
  ASSERT_EQ(table.grant(1, 1.61), 0);
  // Second expiry doubles the delay; the cap clamps further doubling.
  table.expire(5.0);
  EXPECT_DOUBLE_EQ(table.lease(0).available_at, 5.2);
  table.grant(1, 5.3);
  table.expire(9.0);
  EXPECT_DOUBLE_EQ(table.lease(0).available_at, 9.3);  // capped at 0.3
}

TEST(LeaseTable, WorkerDeathRequeuesWithoutBackoff) {
  LeaseTable table(4, LeaseTableOptions{.span = 2});
  ASSERT_EQ(table.grant(3, 0.0), 0);
  ASSERT_EQ(table.grant(4, 0.0), 1);
  const auto released = table.release_worker(3);
  ASSERT_EQ(released, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(table.lease(0).state, LeaseState::Pending);
  EXPECT_DOUBLE_EQ(table.lease(0).available_at, 0.0);  // no backoff gate
  EXPECT_EQ(table.grant(5, 0.0), 0);  // immediately re-grantable
  EXPECT_EQ(table.lease(0).grants, 2u);
}

TEST(LeaseTable, PendingIndicesSkipCommittedTasks) {
  LeaseTable table(4, LeaseTableOptions{.span = 4});
  table.note_task_done(1);
  table.note_task_done(3);
  EXPECT_EQ(table.pending_indices(0), (std::vector<std::uint64_t>{0, 2}));
}

// ---------- AdmissionQueue ---------------------------------------------------

TEST(AdmissionQueue, ShedsWhenFullAndClosesCleanly) {
  AdmissionQueue queue(2);
  EXPECT_EQ(queue.try_submit({"a", 1, 0}), Admission::Accepted);
  EXPECT_EQ(queue.try_submit({"b", 1, 0}), Admission::Accepted);
  EXPECT_EQ(queue.try_submit({"c", 1, 0}), Admission::Shed);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.accepted(), 2u);
  EXPECT_EQ(queue.shed(), 1u);

  queue.close();
  EXPECT_EQ(queue.try_submit({"d", 1, 0}), Admission::Closed);
  // The drain: admitted jobs still pop, then the queue reports empty.
  FabricJob job;
  EXPECT_TRUE(queue.pop_for(&job, 0.5));
  EXPECT_EQ(job.name, "a");
  EXPECT_TRUE(queue.pop_for(&job, 0.5));
  EXPECT_EQ(job.name, "b");
  EXPECT_FALSE(queue.pop_for(&job, 0.5));
}

TEST(AdmissionQueue, PopTimesOutWhenEmpty) {
  AdmissionQueue queue(1);
  FabricJob job;
  EXPECT_FALSE(queue.pop_for(&job, 0.05));
}

// ---------- Shard snapshots and merge ---------------------------------------

// Campaign writes no operating-point records, so the legacy ones are written
// raw here: the snapshot decodes them, keeping only the committed task's.
TEST(Merge, SnapshotReadsTasksOpsAndManifests) {
  const std::string dir = fabric_dir("snapshot");
  const std::string path = dir + "/shard.journal";
  const auto op_point = [](std::uint64_t task, double r,
                           const std::vector<double>& x) {
    PayloadWriter out;
    out.u64(/*circuit=*/5);
    out.u64(task);
    out.u32(/*defect=*/3);
    out.f64(r);
    out.vec_f64(x);
    return out.take();
  };
  {
    PayloadWriter manifest;
    manifest.u64(0xABC);
    manifest.u64(111);
    PayloadWriter done;
    done.u64(100);
    done.u8(1);
    done.u8(2);
    JournalWriter shard;
    shard.open(path, 0);
    shard.append(kRecordManifest, manifest.take());
    shard.append(kRecordOpPoint, op_point(100, 1e6, {0.5, 0.25}));
    shard.append(kRecordTaskDone, done.take());
    shard.append(kRecordOpPoint, op_point(200, 2e6, {0.75}));  // uncommitted
  }
  const ShardSnapshot snapshot = read_campaign_snapshot(path);
  EXPECT_FALSE(snapshot.torn_tail);
  ASSERT_EQ(snapshot.manifests.at(0xABC), 111u);
  ASSERT_EQ(snapshot.tasks.size(), 1u);
  const ShardTask& task = snapshot.tasks.at(100);
  EXPECT_EQ(task.payload, (std::vector<std::uint8_t>{1, 2}));
  ASSERT_EQ(task.ops.size(), 1u);
  EXPECT_EQ(task.ops[0].key.task, 100u);
  EXPECT_EQ(task.ops[0].x, (std::vector<double>{0.5, 0.25}));
}

TEST(Merge, OrdersByIndexVerifiesDuplicatesAndRoundTrips) {
  const std::string dir = fabric_dir("merge_basic");
  const std::string a = dir + "/shard-0.journal";
  const std::string b = dir + "/shard-1.journal";
  {
    Campaign shard(a);
    shard.bind_sweep(0xABC, 111);
    shard.record_result(/*key=*/20, {2});
    shard.record_result(10, {1});
  }
  {
    Campaign shard(b);
    shard.bind_sweep(0xABC, 111);
    shard.record_result(30, {3});
    shard.record_result(10, {1});  // straggler duplicate, identical bytes
  }
  const std::string out = dir + "/merged.journal";
  std::uint64_t duplicates = 0;
  EXPECT_EQ(merge_shard_journals(out, {a, b}, {10, 20, 30}, &duplicates), 3u);
  EXPECT_EQ(duplicates, 1u);

  // The merged journal is exactly what one process would have written.
  const std::string golden = dir + "/golden.journal";
  {
    Campaign g(golden);
    g.bind_sweep(0xABC, 111);
    g.record_result(10, {1});
    g.record_result(20, {2});
    g.record_result(30, {3});
  }
  EXPECT_EQ(read_file_bytes(out), read_file_bytes(golden));
}

TEST(Merge, RefusesGapsMismatchesAndMixedManifests) {
  const std::string dir = fabric_dir("merge_refusals");
  const std::string a = dir + "/shard-0.journal";
  const std::string b = dir + "/shard-1.journal";
  const std::string c = dir + "/shard-2.journal";
  {
    Campaign shard(a);
    shard.bind_sweep(0xABC, 111);
    shard.record_result(10, {1});
  }
  {
    Campaign shard(b);
    shard.bind_sweep(0xABC, 111);
    shard.record_result(10, {9});  // duplicate with DIFFERENT bytes
  }
  {
    Campaign shard(c);
    shard.bind_sweep(0xABC, 999);  // different fingerprint, same salt
  }
  const std::string out = dir + "/merged.journal";
  // Gap: key 20 in no shard.
  EXPECT_THROW(merge_shard_journals(out, {a}, {10, 20}), InvalidArgument);
  // Nondeterministic duplicate.
  EXPECT_THROW(merge_shard_journals(out, {a, b}, {10}), JournalCorrupt);
  // Mixed sweep configurations.
  EXPECT_THROW(merge_shard_journals(out, {a, c}, {10}), InvalidArgument);
  // Nothing was published by any refused merge.
  EXPECT_FALSE(fs::exists(out));
}

#ifdef LPSRAM_FABRIC_POSIX

// ---------- MessageChannel ---------------------------------------------------

TEST(Wire, RoundTripsTypedMessages) {
  auto [a, b] = MessageChannel::make_pair();
  EXPECT_TRUE(a.send(kMsgHeartbeat, {1, 2, 3}));
  EXPECT_TRUE(a.send(kMsgShutdown, {}));
  WireMessage msg;
  ASSERT_EQ(b.recv(&msg, 1000), RecvStatus::Ok);
  EXPECT_EQ(msg.type, kMsgHeartbeat);
  EXPECT_EQ(msg.payload, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_EQ(b.recv(&msg, 1000), RecvStatus::Ok);
  EXPECT_EQ(msg.type, kMsgShutdown);
  EXPECT_TRUE(msg.payload.empty());
}

TEST(Wire, LargePayloadCrossesInChunks) {
  auto [a, b] = MessageChannel::make_pair();
  std::vector<std::uint8_t> big(1u << 20);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(mix64(i));
  // Writer thread not needed: socketpair buffers are smaller than 1 MiB, so
  // exercise the interleaved pump instead — send from a forked child.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    b.close();
    const bool ok = a.send(kMsgShardChunk, big);
    std::_Exit(ok ? 0 : 1);
  }
  a.close();
  WireMessage msg;
  ASSERT_EQ(b.recv(&msg, 10000), RecvStatus::Ok);
  EXPECT_EQ(msg.type, kMsgShardChunk);
  EXPECT_EQ(msg.payload, big);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_EQ(status, 0);
}

TEST(Wire, EofAndTimeoutSemantics) {
  auto [a, b] = MessageChannel::make_pair();
  WireMessage msg;
  EXPECT_EQ(b.recv(&msg, 50), RecvStatus::Timeout);
  EXPECT_TRUE(a.send(kMsgHeartbeat, {7}));
  a.close();
  // Buffered message drains before EOF is reported.
  ASSERT_EQ(b.recv(&msg, 1000), RecvStatus::Ok);
  EXPECT_EQ(msg.payload, (std::vector<std::uint8_t>{7}));
  EXPECT_EQ(b.recv(&msg, 1000), RecvStatus::Eof);
  EXPECT_FALSE(b.send(kMsgHeartbeat, {}));
}

TEST(Wire, GarbageOnTheStreamThrows) {
  auto [a, b] = MessageChannel::make_pair();
  // A frame with a corrupted checksum: valid length, trashed crc.
  std::vector<std::uint8_t> frame = encode_record_frame(kMsgHeartbeat, nullptr, 0);
  frame[4] ^= 0xFF;
  ASSERT_EQ(::write(a.fd(), frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  WireMessage msg;
  EXPECT_THROW(b.recv(&msg, 1000), JournalCorrupt);
}

// ---------- run_fabric end-to-end -------------------------------------------

FabricReport run_synth(const FabricOptions& options, std::uint64_t count) {
  return run_fabric(options, count, synth_key,
                    [](std::uint64_t index, int) {
                      return synth_payload(index);
                    });
}

TEST(Fabric, SingleWorkerMatchesGoldenByteForByte) {
  const FabricOptions options = synth_options(fabric_dir("e2e_one"), 1);
  const FabricReport report = run_synth(options, 9);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.tasks_executed, 9u);
  EXPECT_EQ(report.tasks_recovered, 0u);
  EXPECT_EQ(report.workers_died, 0u);
  expect_merged_matches_golden(options, 9);
}

TEST(Fabric, FourWorkersMatchGoldenByteForByte) {
  const FabricOptions options = synth_options(fabric_dir("e2e_four"), 4);
  const FabricReport report = run_synth(options, 26);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.tasks_executed, 26u);
  EXPECT_GE(report.leases_issued, 13u);  // span 2
  expect_merged_matches_golden(options, 26);
}

TEST(Fabric, RerunAfterCompletionIsIdempotent) {
  const FabricOptions options = synth_options(fabric_dir("e2e_idem"), 2);
  ASSERT_TRUE(run_synth(options, 8).complete);
  const FabricReport again = run_synth(options, 8);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.tasks_recovered, 8u);
  EXPECT_EQ(again.tasks_executed, 0u);
  expect_merged_matches_golden(options, 8);
}

// Worker killed at EVERY lease boundary: with a single worker the fabric
// must fail over to a rerun that recovers exactly the committed prefix and
// re-executes exactly the rest, merging bit-identically.
TEST(Fabric, WorkerKillAtEveryLeaseBoundary) {
  constexpr std::uint64_t kTasks = 8;
  for (std::uint64_t kill_after = 1; kill_after <= kTasks; ++kill_after) {
    FabricOptions options = synth_options(
        fabric_dir("kill_worker_" + std::to_string(kill_after)), 1);
    options.chaos.resize(1);
    options.chaos[0].exit_after_results = kill_after;

    if (kill_after < kTasks) {
      EXPECT_THROW(run_synth(options, kTasks), FabricWorkersLost)
          << "kill_after=" << kill_after;
      options.chaos.clear();
      const FabricReport resumed = run_synth(options, kTasks);
      EXPECT_TRUE(resumed.complete) << "kill_after=" << kill_after;
      EXPECT_EQ(resumed.tasks_recovered, kill_after);
      EXPECT_EQ(resumed.tasks_executed, kTasks - kill_after);
    } else {
      // Death after the final commit: the sweep still completes this run.
      const FabricReport report = run_synth(options, kTasks);
      EXPECT_TRUE(report.complete);
    }
    expect_merged_matches_golden(options, kTasks);
  }
}

// A forked worker's EOF is its death, and without a listener nobody else can
// join: losing the last worker ends the run at once, not after the reconnect
// grace a TCP fleet gets.
TEST(Fabric, LastForkedWorkerDeathFailsFast) {
  FabricOptions options = synth_options(fabric_dir("fail_fast"), 1);
  options.lease_timeout_s = 30.0;
  options.chaos.resize(1);
  options.chaos[0].exit_after_results = 1;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(run_synth(options, 8), FabricWorkersLost);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(elapsed, 10.0);
}

TEST(Fabric, KillOneOfFourMidRunCompletesOnSurvivors) {
  FabricOptions options = synth_options(fabric_dir("kill_one_of_four"), 4);
  options.chaos.resize(1);
  options.chaos[0].exit_after_results = 1;
  const FabricReport report = run_synth(options, 30);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.workers_died, 1u);
  EXPECT_EQ(report.tasks_executed, 30u);
  expect_merged_matches_golden(options, 30);
}

TEST(Fabric, ShardJournalCrashKillsWorkerAndResumeTruncatesTornTail) {
  FabricOptions options = synth_options(fabric_dir("shard_crash"), 1);
  options.chaos.resize(1);
  // Append 1 is the shard manifest; crash on the 4th = mid TaskDone record.
  options.chaos[0].crash_shard_at_append = 4;
  EXPECT_THROW(run_synth(options, 8), FabricWorkersLost);
  options.chaos.clear();
  const FabricReport resumed = run_synth(options, 8);
  EXPECT_TRUE(resumed.complete);
  // The torn record's task re-ran; everything intact was recovered.
  EXPECT_EQ(resumed.tasks_recovered + resumed.tasks_executed, 8u);
  EXPECT_GT(resumed.tasks_executed, 0u);
  expect_merged_matches_golden(options, 8);
}

// A wedged worker goes silent mid-lease: the lease must expire, be
// re-issued to the other worker, and the straggler's late duplicate commits
// must reconcile (verified byte-identical) instead of corrupting the merge.
TEST(Fabric, WedgedWorkerLeaseReissuedAndDuplicatesReconciled) {
  FabricOptions options = synth_options(fabric_dir("wedge"), 2);
  options.lease_timeout_s = 0.4;
  options.chaos.resize(1);
  options.chaos[0].wedge_after_results = 1;
  options.chaos[0].wedge_s = 1.2;
  const FabricReport report = run_synth(options, 12);
  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.leases_expired, 1u);
  EXPECT_GE(report.duplicates, 1u);
  EXPECT_EQ(report.workers_died, 0u);
  expect_merged_matches_golden(options, 12);
}

// Coordinator killed at EVERY lease-log append (manifest, lease issue, task
// commit, lease completion, merge marker): each crash leaves a resumable
// state whose rerun merges bit-identically to the golden.
TEST(Fabric, CoordinatorKillAtEveryLogAppend) {
  constexpr std::uint64_t kTasks = 8;
  bool reached_end = false;
  for (std::uint64_t nth = 1; nth <= 64 && !reached_end; ++nth) {
    const FabricOptions options = synth_options(
        fabric_dir("kill_coord_" + std::to_string(nth)), 1);
    bool crashed = false;
    {
      ScopedJournalCrash crash(nth);
      try {
        const FabricReport report = run_synth(options, kTasks);
        EXPECT_TRUE(report.complete);
        reached_end = true;  // nth exceeds the appends of a full run
      } catch (const JournalCrash&) {
        crashed = true;
      }
    }
    if (crashed) {
      const FabricReport resumed = run_synth(options, kTasks);
      EXPECT_TRUE(resumed.complete) << "crash at append " << nth;
      EXPECT_EQ(resumed.tasks_recovered + resumed.tasks_executed, kTasks);
    }
    expect_merged_matches_golden(options, kTasks);
  }
  EXPECT_TRUE(reached_end) << "never ran crash-free within 64 appends";
}

TEST(Fabric, DrainRefusesNewLeasesAndStaysResumable) {
  FabricOptions options = synth_options(fabric_dir("drain"), 2);
  CancelToken drain;
  drain.cancel();  // drain requested before the first lease
  options.drain = &drain;
  const FabricReport report = run_synth(options, 8);
  EXPECT_TRUE(report.drained);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.leases_issued, 0u);
  EXPECT_FALSE(fs::exists(options.merged_path()));

  options.drain = nullptr;
  const FabricReport resumed = run_synth(options, 8);
  EXPECT_TRUE(resumed.complete);
  expect_merged_matches_golden(options, 8);
}

TEST(Fabric, ShardFromDifferentSweepIsRefused) {
  FabricOptions options = synth_options(fabric_dir("manifest_refusal"), 1);
  ASSERT_TRUE(run_synth(options, 4).complete);
  options.fingerprint ^= 0xDEAD;
  EXPECT_THROW(run_synth(options, 4), InvalidArgument);
}

// The forked fleet runs on the same server as the TCP one, so it leaves the
// same per-worker transport snapshot for fabric_inspect.py connections.
TEST(Fabric, ForkedFleetLeavesConnectionsSnapshot) {
  const FabricOptions options = synth_options(fabric_dir("snapshot_status"), 2);
  ASSERT_TRUE(run_synth(options, 8).complete);
  std::ifstream in(options.dir + "/connections.status");
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  EXPECT_NE(text.find("listen 0\n"), std::string::npos) << text;
  for (const char* worker : {"worker 0 ", "worker 1 "}) {
    const std::size_t at = text.find(worker);
    ASSERT_NE(at, std::string::npos) << text;
    EXPECT_EQ(text.compare(text.find("addr=", at), 11, "addr=forked"), 0)
        << text;
  }
}

TEST(Fabric, KillAllWorkersHelperSignalsPidfiles) {
  const std::string dir = fabric_dir("killall");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    for (;;) ::pause();
  }
  {
    std::ofstream out(worker_pid_path(dir, 0));
    out << pid << "\n";
  }
  EXPECT_EQ(kill_all_workers(dir), 1);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  EXPECT_FALSE(fs::exists(worker_pid_path(dir, 0)));  // pidfile cleaned up
}

// Real-solver tasks through the fabric: regulator Vreg probes, distributed
// across a fleet with a mid-run worker kill, must land bit-identical to the
// same probes computed directly in this process.
TEST(Fabric, RealSolverResultsBitIdenticalAcrossFleet) {
  struct Probe {
    int defect;
    double r;
  };
  static constexpr Probe kProbes[] = {{1, 1e4}, {1, 1e6}, {7, 1e5},
                                      {7, 1e7}, {19, 1e4}, {19, 1e6}};
  constexpr std::uint64_t kCount = std::size(kProbes);
  const Technology tech = Technology::lp40nm();

  const auto probe_vreg = [&tech](std::uint64_t index) {
    // A fresh characterizer per probe: results must not depend on which
    // process (or in which order) a probe executes.
    RegulatorCharacterizer ch(tech, ArrayLoadModel::Options{});
    const DsCondition cond;
    return ch.vreg(cond, kProbes[index].defect, kProbes[index].r);
  };

  FabricOptions options = synth_options(fabric_dir("real_solver"), 2);
  options.lease_span = 1;
  options.chaos.resize(1);
  options.chaos[0].exit_after_results = 1;  // one worker dies mid-run
  const FabricReport report = run_fabric(
      options, kCount, synth_key, [&probe_vreg](std::uint64_t index, int) {
        PayloadWriter w;
        w.f64(probe_vreg(index));
        return w.take();
      });
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.workers_died, 1u);

  const ShardSnapshot merged = read_campaign_snapshot(options.merged_path());
  ASSERT_EQ(merged.tasks.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    PayloadReader in(merged.tasks.at(synth_key(i)).payload);
    const double got = in.f64();
    const double want = probe_vreg(i);
    EXPECT_EQ(key_bits(got), key_bits(want)) << "probe " << i;
  }
}

// ---------- soak matrices (heavier; CI's fabric-soak job filters on
// FabricSoak.*) --------------------------------------------------------------

TEST(FabricSoak, ChaosFleetMatchesGoldenAfterReruns) {
  FabricOptions options = synth_options(fabric_dir("soak_chaos"), 4);
  options.lease_span = 3;
  options.lease_timeout_s = 0.35;
  options.chaos.resize(3);
  options.chaos[0].exit_after_results = 5;       // dies at a lease boundary
  options.chaos[1].wedge_after_results = 3;      // straggles past the timeout
  options.chaos[1].wedge_s = 0.9;
  options.chaos[2].crash_shard_at_append = 6;    // dies mid shard append

  constexpr std::uint64_t kTasks = 64;
  FabricReport report;
  bool complete = false;
  for (int attempt = 0; attempt < 4 && !complete; ++attempt) {
    try {
      report = run_synth(options, kTasks);
      complete = report.complete;
    } catch (const FabricWorkersLost&) {
      options.chaos.clear();  // chaos did its job; rerun clean to resume
    }
  }
  ASSERT_TRUE(complete);
  EXPECT_GE(report.workers_died + report.leases_expired, 1u);
  expect_merged_matches_golden(options, kTasks);
}

TEST(FabricSoak, CoordinatorKillsSampledUnderChaos) {
  constexpr std::uint64_t kTasks = 40;
  for (const std::uint64_t nth : {3ULL, 8ULL, 15ULL, 26ULL, 40ULL}) {
    FabricOptions options = synth_options(
        fabric_dir("soak_coord_" + std::to_string(nth)), 2);
    options.chaos.resize(1);
    options.chaos[0].exit_after_results = 7;
    bool crashed = false;
    {
      ScopedJournalCrash crash(nth);
      try {
        run_synth(options, kTasks);
      } catch (const JournalCrash&) {
        crashed = true;
      } catch (const FabricWorkersLost&) {
        // The chaos worker died first; equally valid mid-run state.
      }
    }
    options.chaos.clear();
    FabricReport resumed;
    bool complete = false;
    for (int attempt = 0; attempt < 3 && !complete; ++attempt) {
      try {
        resumed = run_synth(options, kTasks);
        complete = resumed.complete;
      } catch (const FabricWorkersLost&) {
      }
    }
    ASSERT_TRUE(complete) << "crash at append " << nth
                          << " (crashed=" << crashed << ")";
    EXPECT_EQ(resumed.tasks_recovered + resumed.tasks_executed, kTasks);
    expect_merged_matches_golden(options, kTasks);
  }
}

TEST(FabricSoak, WorkerThreadsSplitTheHostBudget) {
  EXPECT_GE(SweepExecutor::threads_per_process(4), 1);
  EXPECT_THROW(SweepExecutor::threads_per_process(0), InvalidArgument);
  // A multi-threaded fleet still merges bit-identically: intra-worker
  // executors only reorder wall-clock, never payload bytes.
  FabricOptions options = synth_options(fabric_dir("soak_threads"), 2);
  options.worker_threads = 2;
  const FabricReport report = run_synth(options, 20);
  EXPECT_TRUE(report.complete);
  expect_merged_matches_golden(options, 20);
}

#endif  // LPSRAM_FABRIC_POSIX

}  // namespace
}  // namespace lpsram
