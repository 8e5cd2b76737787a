// The fabric coordinator: LeaseCore behind one poll loop that serves every
// worker, whether run_fabric forked it or it connected over TCP.
//
// run_net_fabric listens for remote workers (fabric_worker processes on
// other hosts), authenticates each with a mutual HMAC handshake over the
// shared campaign token, and drives the lease brain. run_fabric hands it the
// parent ends of its forked workers' socketpairs instead of (or, in
// principle, beside) a listener; those workers speak the same grammar minus
// the parts a parent already knows (see "Forked workers" below).
//
//   * Handshake before anything. NetHello -> NetChallenge -> NetAuth ->
//     NetWelcome|NetRefuse. A protocol-version or manifest-fingerprint
//     mismatch is refused in the Hello stage, a bad MAC in the Auth stage —
//     in every case before a single lease is granted or a shard byte
//     accepted. The MAC is mutual: the server proves knowledge of the token
//     in its Challenge, so a worker never uploads results to an impostor.
//
//   * Disconnect is not death. A TCP drop may be a switch reboot. The server
//     keeps the worker's lease Leased until its deadline — the reconnect
//     window. A worker that re-handshakes (reconnect=1) inside the window has
//     its lease resumed (NetWelcome carries the lease id, a fresh kMsgGrant
//     carries the still-pending indices); past the window the lease was
//     re-issued elsewhere, the Welcome says "none", and the worker discards
//     local lease state. Late duplicate commits reconcile byte-identical,
//     exactly like straggler re-issues.
//
//   * The shard stream IS the commit path. Workers upload their fsync'd
//     shard journal verbatim in kMsgShardChunk frames ([u64 offset][raw
//     bytes]), and the server appends them to its own copy of
//     shard-<id>.journal, decoding records out of the byte stream to commit
//     tasks. Upload is resumable: the NetWelcome's `shard_bytes_have`
//     answers "how much do you have?", the worker continues from that
//     offset, and every chunk is acknowledged with kMsgShardAck. Two
//     checksum layers cover the transfer — the wire frame CRC on each chunk
//     message, and the journal record CRCs inside the replicated bytes — and
//     the server's copy is byte-identical to the worker's file by
//     construction, so the merge sees exactly what the worker fsync'd.
//
//   * Forked workers. A channel handed in by run_fabric is already trusted
//     (this process forked its peer) and already identified (worker id =
//     its position), so it skips the handshake: the server sends NetWelcome
//     straight away. Its shard journal is the very file the server would
//     replicate into, so the chunks it uploads are parsed and committed but
//     never written a second time, nor acknowledged. And a socketpair cannot be half-open or
//     come back: EOF is process death, which requeues the worker's lease at
//     once with no backoff (FabricReport::workers_died), and silence is a
//     straggler for the lease clock to settle, never a reason to drop it.
//     With no listener nobody else can join, so the moment no worker is
//     left the run ends in FabricWorkersLost.
//
// Threat model (deliberately narrow): the fabric runs on a trusted network
// segment. The handshake provides peer authentication and the CRCs provide
// integrity against accidents; nothing here encrypts — results and task
// indices travel in the clear. The token gates participation (a stray
// worker from another campaign, a mistyped port), it is not a defense
// against an on-path adversary. Tokens are loaded from files and never
// appear on argv or on the wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lpsram/runtime/fabric/lease_core.hpp"
#include "lpsram/runtime/fabric/net/net.hpp"
#include "lpsram/runtime/fabric/worker.hpp"

namespace lpsram::fabric {

struct NetFabricOptions : FabricSweepOptions {
  std::string token;  // shared campaign secret (load_token_file)

  // A connection that has not completed its handshake within this window is
  // dropped (a silent port-scanner must not hold a slot).
  double handshake_timeout_s = 5.0;
  // A Serving connection silent this long is presumed wedged and dropped —
  // the worker reconnects through the normal path. 0 = 4x heartbeat.
  double conn_silence_timeout_s = 0.0;
  // How long to wait for the first worker ever before concluding the fleet
  // is not coming (FabricWorkersLost).
  double first_connect_timeout_s = 30.0;
  // Once workers have served, how long the server tolerates zero connected
  // workers (reconnect window for a partition) before FabricWorkersLost.
  // 0 = lease_timeout_s.
  double all_lost_grace_s = 0.0;
  double io_timeout_s = 10.0;  // per-connection write deadline (SO_SNDTIMEO)
  int max_workers = 64;        // worker ids must be in [0, max_workers)

  // When set, the transport counters are written here even if the run ends
  // in an exception (FabricWorkersLost, corrupt shard, ...) — the normal
  // return value is lost then, but "was anything refused / leased before
  // the failure?" is exactly what a resuming caller (or a test) wants.
  struct NetFabricReport* report_out = nullptr;
};

struct NetFabricReport {
  FabricReport fabric;
  std::uint64_t connections_accepted = 0;
  std::uint64_t handshakes_completed = 0;
  std::uint64_t refusals_protocol = 0;
  std::uint64_t refusals_manifest = 0;
  std::uint64_t refusals_auth = 0;
  std::uint64_t refusals_busy = 0;
  // Connections torn down by the server: TCP drops, silence/handshake
  // deadlines, framing violations. Reconnects of the same worker count too.
  std::uint64_t connections_dropped = 0;
  std::uint64_t lease_resumes = 0;  // reconnects that kept their lease
  std::uint64_t shard_bytes_received = 0;
};

// Serves the sweep [0, count) until every task is committed and merged, the
// drain token fires, or the fleet is lost past its grace window
// (FabricWorkersLost — rerun to resume from the shard journals). Workers
// connect through `listener` when it is open (a closed one serves only the
// forked fleet) and arrive pre-connected in `forked`: element w is the
// parent's end of the socketpair forked worker w inherited (see
// run_forked_worker). `key_of` maps sweep indices to task keys exactly as the
// workers do; tasks execute only on the workers, so no task function appears
// here. Alongside the lease log the server maintains
// `dir`/connections.status, an atomically rewritten snapshot of per-worker
// transport state for tools/fabric_inspect.py connections.
NetFabricReport run_net_fabric(TcpListener& listener,
                               const NetFabricOptions& options,
                               std::uint64_t count, const FabricKeyFn& key_of,
                               std::vector<MessageChannel> forked = {});

}  // namespace lpsram::fabric
