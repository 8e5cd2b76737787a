// The fabric worker, for both fleets: TCP workers on other hosts
// (run_remote_worker) and the children run_fabric forks (run_forked_worker).
//
// A worker owns one shard journal (a plain Campaign file) and runs the grant
// loop: wait for a kMsgGrant, execute the granted task indices, commit each
// result to the shard journal, fsync'd, *before* anything is said about it,
// then kMsgLeaseDone. The commit path to the coordinator is the journal
// itself: after each commit the worker ships the file's new tail in
// kMsgShardChunk frames, and the server parses records out of the stream
// and commits them against the lease table. Any result the coordinator has
// seen is therefore already on disk in a shard, so a crash of either process
// never loses an acknowledged task. The NetWelcome's `shard_bytes_have`
// tells a (re)connecting worker where to resume the upload, so a connection
// cut mid-transfer re-sends only what the server never received.
//
// Heartbeats (kMsgHeartbeat) are sent between tasks and while idle, never
// concurrently with a task: a worker stuck inside a solve goes silent and
// its lease expires. The lease timeout must therefore exceed the slowest
// single task — that is the deal that lets the coordinator treat silence
// as death.
//
// For a TCP worker, connection loss is survivable in both directions:
//   * the worker reconnects with exponential backoff, re-handshakes
//     (reconnect=1) and either resumes its lease (NetWelcome names it and a
//     fresh kMsgGrant re-lists the still-pending indices) or is told there
//     is nothing to resume and waits for a fresh grant;
//   * tasks committed locally while disconnected are never recomputed — the
//     shard journal remembers, execution skips them, and the replicated
//     records reconcile server-side as verified duplicates.
//
// A refusal (wrong token, wrong manifest, protocol mismatch) is terminal:
// the worker reports it and returns instead of hammering the server. The
// handshake is mutual — a server that cannot MAC the transcript with our
// token is an impostor and is refused from this side the same way.
#pragma once

#include <cstdint>
#include <string>

#include "lpsram/runtime/fabric/wire.hpp"
#include "lpsram/runtime/fabric/worker.hpp"

namespace lpsram::fabric {

struct RemoteWorkerOptions {
  std::string host;   // host, port and token: TCP workers only
  int port = 0;
  std::string token;  // shared campaign secret (load_token_file)
  int worker_id = 0;
  std::string shard_journal;  // this worker's Campaign file (local disk)
  double heartbeat_interval_s = 0.5;
  std::uint64_t salt = 0;  // sweep manifest, must match the server
  std::uint64_t fingerprint = 0;
  int threads = 1;  // executor threads inside this worker
  double io_timeout_s = 10.0;       // write deadline on the socket
  double connect_timeout_s = 5.0;   // per connection attempt
  double reconnect_backoff_initial_s = 0.05;
  double reconnect_backoff_max_s = 1.0;
  // Give up (return, gave_up=true) after this long without a completed
  // handshake — a worker should not outlive a decommissioned server forever.
  double give_up_after_s = 30.0;
  WorkerChaos chaos;  // deterministic fault injection for the kill matrices
};

struct RemoteWorkerReport {
  std::uint64_t leases_served = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_skipped = 0;  // found already committed in the shard
  std::uint64_t reconnects = 0;     // completed handshakes after the first
  std::uint64_t lease_resumes = 0;  // reconnects that kept their lease
  std::uint64_t bytes_uploaded = 0;
  NetRefusal refused = NetRefusal::None;  // set when the server refused us
  std::string refuse_message;
  bool shutdown = false;  // server said kMsgShutdown (sweep finished)
  bool gave_up = false;   // could not reach a server within give_up_after_s
};

// Runs the remote grant loop until shutdown, refusal, or reconnect give-up.
// Throws lpsram::Error on local failures (shard journal damage, a server
// whose shard replica claims more bytes than this worker ever wrote);
// JournalCrash propagates from shard-append chaos like the forked worker.
RemoteWorkerReport run_remote_worker(const RemoteWorkerOptions& options,
                                     const FabricKeyFn& key_of,
                                     const FabricTaskFn& task_fn);

// The same worker inside a run_fabric child, over `channel`, the socketpair
// end it inherited. The parent forked it, so there is no connect and no
// handshake: it waits for the NetWelcome, opens its shard journal (which the
// server reads in place) and serves. There is no reconnect either: EOF means
// the parent is gone, and the worker returns.
RemoteWorkerReport run_forked_worker(MessageChannel& channel,
                                     const RemoteWorkerOptions& options,
                                     const FabricKeyFn& key_of,
                                     const FabricTaskFn& task_fn);

}  // namespace lpsram::fabric
