#include "lpsram/runtime/fabric/net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/fabric/fabric.hpp"
#include "lpsram/runtime/fabric/net/auth.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <unistd.h>
#define LPSRAM_HAVE_FABRIC_NET 1
#endif

namespace lpsram::fabric {

#ifdef LPSRAM_HAVE_FABRIC_NET

namespace fs = std::filesystem;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Poll granularity: the loop wakes at least this often to re-check lease
// deadlines, handshake timeouts and the drain token.
constexpr int kMaxPollMs = 100;
// connections.status rewrite cadence.
constexpr double kStatusIntervalS = 0.25;
// How long the end of a run waits for its workers to hang up before merging
// anyway (run_fabric then kills what is left of a forked fleet).
constexpr double kHangupPatienceS = 10.0;
// NetWelcome "no lease to resume" sentinel.
constexpr std::uint64_t kNoLease = ~std::uint64_t(0);

// The server-side replica of one worker's shard journal. Chunks append here
// verbatim; the stream past the 8-byte magic is simultaneously fed through a
// FrameParser so completed records commit as their bytes arrive. A forked
// worker's sink is `shared`: the worker appends to this very file itself, so
// its chunks are parsed but never written.
struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};

struct ShardSink {
  std::unique_ptr<std::FILE, FileCloser> file;
  std::string path;  // empty until opened
  bool shared = false;
  std::uint64_t have = 0;       // replicated bytes (answers "how much?")
  std::uint64_t committed = 0;  // end of the last fully parsed record
  FrameParser parser;
};

struct Conn {
  MessageChannel channel;
  std::string peer;
  enum class Stage { AwaitHello, AwaitAuth, Serving, Closed };
  Stage stage = Stage::AwaitHello;
  double opened_at = 0.0;
  double last_heard = 0.0;
  int worker_id = -1;  // -1 until the handshake completes
  std::int64_t lease = -1;
  bool forked = false;  // a run_fabric child on an inherited socketpair
  NetHelloFields hello{};
  std::uint8_t worker_nonce[kNetNonceBytes] = {0};
  std::uint8_t server_nonce[kNetNonceBytes] = {0};
};

// Everything the server remembers about a worker id across connections —
// the sink survives disconnects, which is what makes upload resumable.
struct WorkerSlot {
  Conn* conn = nullptr;  // current connection, nullptr while disconnected
  ShardSink sink;
  double last_heartbeat = 0.0;
  std::uint64_t sessions = 0;
  std::uint64_t reconnects = 0;
};

class NetServer {
 public:
  NetServer(TcpListener& listener, const NetFabricOptions& options,
            std::uint64_t count, const FabricKeyFn& key_of,
            std::vector<MessageChannel> forked)
      : listener_(listener),
        options_(options),
        count_(count),
        slots_(static_cast<std::size_t>(std::max(options.max_workers, 0))) {
    if (listener_.is_open() && options_.token.empty())
      throw InvalidArgument("fabric: net server requires a campaign token");
    if (options_.dir.empty())
      throw InvalidArgument("fabric: journal directory required");
    if (options_.max_workers <= 0 ||
        forked.size() > static_cast<std::size_t>(options_.max_workers))
      throw InvalidArgument(
          "fabric: max_workers must be positive and cover the forked fleet");
    fs::create_directories(options_.dir);
    if (options_.conn_silence_timeout_s <= 0.0)
      silence_timeout_s_ = 4.0 * options_.heartbeat_interval_s;
    else
      silence_timeout_s_ = options_.conn_silence_timeout_s;

    keys_in_index_order_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t key = key_of(i);
      keys_in_index_order_.push_back(key);
      index_of_key_[key] = i;
    }

    // Recover whatever earlier incarnations (forked or remote) committed:
    // the shard journals in our directory are the source of truth. Forked
    // workers are waiting for their Welcome and have not touched theirs yet.
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> recovered;
    for (const std::string& path : existing_shard_paths()) {
      const ShardSnapshot snapshot = read_campaign_snapshot(path);
      const auto it = snapshot.manifests.find(options_.salt);
      if (it != snapshot.manifests.end() && it->second != options_.fingerprint)
        throw InvalidArgument(
            "fabric: shard journal " + path +
            " was recorded for a different sweep configuration");
      for (const auto& [key, task] : snapshot.tasks) {
        const auto idx = index_of_key_.find(key);
        if (idx == index_of_key_.end())
          throw InvalidArgument("fabric: shard journal " + path +
                                " holds a task key outside this sweep");
        recovered.emplace(idx->second, task.payload);
      }
    }

    core_.emplace(options_, count, std::move(recovered));

    const double now = now_s();
    for (std::size_t w = 0; w < forked.size(); ++w) {
      Conn c;
      c.channel = std::move(forked[w]);
      c.peer = "forked";
      c.forked = true;
      c.opened_at = now;
      c.hello.worker_id = static_cast<std::uint32_t>(w);
      conns_.push_back(std::move(c));
      admit(conns_.back(), now);
    }
  }

  NetFabricReport run() {
    const double start = now_s();
    no_worker_since_ = start;
    for (;;) {
      if (core_->all_done()) {
        core_->report().complete = true;
        break;
      }
      if (core_->drain_requested() && !core_->any_leased()) {
        core_->report().drained = true;
        break;
      }

      double now = now_s();
      core_->expire(now);
      enforce_deadlines(now);
      check_fleet_lost(now);
      for (Conn& c : conns_) try_grant(c, now);
      if (now - last_status_ >= kStatusIntervalS) write_status(now);
      reap_closed();

      // Sleep until the next lease deadline/backoff instant, capped so
      // handshake timeouts and the drain token stay responsive.
      int timeout_ms = kMaxPollMs;
      const double next = core_->next_event();
      if (next < now)
        timeout_ms = 0;
      else if (next - now < kMaxPollMs / 1000.0)
        timeout_ms = std::max(1, static_cast<int>((next - now) * 1000.0));

      std::vector<pollfd> fds;
      std::vector<Conn*> fd_owner;  // nullptr = the listener
      if (listener_.is_open()) {
        fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
        fd_owner.push_back(nullptr);
      }
      for (Conn& c : conns_) {
        if (c.stage == Conn::Stage::Closed) continue;
        fds.push_back(pollfd{c.channel.fd(), POLLIN, 0});
        fd_owner.push_back(&c);
      }
      const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw Error(std::string("fabric: net server poll failed: ") +
                    std::strerror(errno));
      }

      now = now_s();
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (fd_owner[i] == nullptr)
          accept_pending(now);
        else
          service(*fd_owner[i], now);
      }
    }

    finished_ = true;
    for (Conn& c : conns_)
      if (c.stage == Conn::Stage::Serving)
        c.channel.send(kMsgShutdown, {});  // best effort
    await_hangup();
    write_status(now_s());
    for (WorkerSlot& slot : slots_) slot.sink.file.reset();

    if (core_->report().complete) {
      std::vector<std::string> shards = existing_shard_paths();
      std::uint64_t merge_duplicates = 0;
      const std::size_t merged =
          merge_shard_journals(options_.merged_path(), shards,
                               keys_in_index_order_, &merge_duplicates);
      core_->report().duplicates =
          std::max(core_->report().duplicates, merge_duplicates);
      core_->log_merged(merged, merge_duplicates);
    }
    report_.fabric = core_->report();
    report_.fabric.tasks_total = count_;
    return report_;
  }

  // Snapshot of the counters so far — what run_net_fabric hands to
  // options.report_out when run() ends in an exception.
  NetFabricReport report() {
    NetFabricReport snapshot = report_;
    if (core_.has_value()) {
      snapshot.fabric = core_->report();
      snapshot.fabric.tasks_total = count_;
    }
    return snapshot;
  }

 private:
  // --- connection lifecycle --------------------------------------------

  // The merge waits for every worker told to shut down to hang up. A forked
  // worker appends to the very shard file the merge reads: a straggler first
  // finishes the lease it was grinding, and its late commits reconcile here
  // as duplicates. A TCP worker's last heartbeat or LeaseDone is read, not
  // left unread: closing a socket with unread bytes sends an RST, which can
  // destroy the Shutdown still queued for the worker and leave it
  // reconnecting to a server that has gone.
  void await_hangup() {
    const double deadline = now_s() + kHangupPatienceS;
    for (;;) {
      std::vector<pollfd> fds;
      std::vector<Conn*> fd_owner;
      for (Conn& c : conns_) {
        if (c.stage != Conn::Stage::Serving) continue;
        fds.push_back(pollfd{c.channel.fd(), POLLIN, 0});
        fd_owner.push_back(&c);
      }
      if (fds.empty() || now_s() >= deadline) return;
      if (::poll(fds.data(), fds.size(), kMaxPollMs) < 0 && errno != EINTR)
        throw Error(std::string("fabric: net server poll failed: ") +
                    std::strerror(errno));
      const double now = now_s();
      for (std::size_t i = 0; i < fds.size(); ++i)
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
          service(*fd_owner[i], now);
    }
  }

  void accept_pending(double now) {
    for (;;) {
      std::string peer;
      MessageChannel ch = listener_.accept(options_.io_timeout_s, &peer);
      if (!ch.is_open()) return;
      ++report_.connections_accepted;
      // Backstop against fd exhaustion from a connect flood: every worker
      // gets one live connection plus headroom for handshakes in flight.
      if (open_conns() >= static_cast<std::size_t>(options_.max_workers) + 8) {
        ++report_.connections_dropped;
        continue;  // ch closes on scope exit
      }
      Conn c;
      c.channel = std::move(ch);
      c.peer = peer;
      c.opened_at = now;
      c.last_heard = now;
      conns_.push_back(std::move(c));
    }
  }

  std::size_t open_conns() const {
    return static_cast<std::size_t>(
        std::count_if(conns_.begin(), conns_.end(), [](const Conn& c) {
          return c.stage != Conn::Stage::Closed;
        }));
  }

  void drop_conn(Conn& c) {
    if (c.stage == Conn::Stage::Closed) return;
    c.channel.close();
    c.stage = Conn::Stage::Closed;
    ++report_.connections_dropped;
    if (c.worker_id < 0) return;
    WorkerSlot& slot = slots_[static_cast<std::size_t>(c.worker_id)];
    if (slot.conn != &c) return;
    slot.conn = nullptr;
    // A forked worker cannot come back: its lease requeues now, no backoff
    // (unless the sweep is over and it merely exited as told). A remote
    // worker's lease deliberately stays Leased: this is the reconnect
    // window. Expiry (or an explicit fresh hello) settles it.
    if (c.forked && !finished_) core_->release_worker(c.worker_id);
  }

  void reap_closed() {
    conns_.remove_if(
        [](const Conn& c) { return c.stage == Conn::Stage::Closed; });
  }

  void enforce_deadlines(double now) {
    for (Conn& c : conns_) {
      if (c.stage == Conn::Stage::AwaitHello ||
          c.stage == Conn::Stage::AwaitAuth) {
        if (now - c.opened_at > options_.handshake_timeout_s) drop_conn(c);
      } else if (c.stage == Conn::Stage::Serving && !c.forked) {
        // Only TCP can be half-open; a silent forked worker is a straggler
        // for the lease clock, and dropping it would kill it.
        if (now - c.last_heard > silence_timeout_s_) drop_conn(c);
      }
    }
  }

  void check_fleet_lost(double now) {
    bool serving = false;
    for (const Conn& c : conns_)
      if (c.stage == Conn::Stage::Serving) serving = true;
    if (serving) {
      no_worker_since_ = now;
      return;
    }
    if (core_->drain_requested()) return;
    double grace = 0.0;  // without a listener nobody can join any more
    if (listener_.is_open())
      grace = ever_served_ ? (options_.all_lost_grace_s > 0.0
                                  ? options_.all_lost_grace_s
                                  : options_.lease_timeout_s)
                           : options_.first_connect_timeout_s;
    if (now - no_worker_since_ <= grace) return;
    throw FabricWorkersLost(
        "fabric: no live workers left (grace " + std::to_string(grace) +
        " s) with " + std::to_string(core_->tasks_remaining()) + " of " +
        std::to_string(count_) +
        " tasks uncommitted — shard journals retain every committed result; "
        "rerun (or point a fresh fleet at this server) to resume");
  }

  // --- protocol: handshake ---------------------------------------------

  void refuse(Conn& c, NetRefusal reason, const std::string& message) {
    switch (reason) {
      case NetRefusal::Protocol: ++report_.refusals_protocol; break;
      case NetRefusal::Manifest: ++report_.refusals_manifest; break;
      case NetRefusal::Auth: ++report_.refusals_auth; break;
      case NetRefusal::Busy: ++report_.refusals_busy; break;
      case NetRefusal::None: break;
    }
    PayloadWriter out;
    out.u32(static_cast<std::uint32_t>(reason));
    out.str(message);
    c.channel.send(kMsgNetRefuse, out.take());  // best effort
    drop_conn(c);
  }

  void handle_hello(Conn& c, const WireMessage& msg) {
    constexpr std::size_t kHelloBytes = 4 + 4 + 8 + 8 + 1 + kNetNonceBytes;
    if (msg.type != kMsgNetHello || msg.payload.size() != kHelloBytes) {
      drop_conn(c);
      return;
    }
    PayloadReader r(msg.payload);
    c.hello.protocol = r.u32();
    c.hello.worker_id = r.u32();
    c.hello.salt = r.u64();
    c.hello.fingerprint = r.u64();
    c.hello.reconnect = r.u8();
    std::memcpy(c.worker_nonce, msg.payload.data() + (kHelloBytes - kNetNonceBytes),
                kNetNonceBytes);

    if (c.hello.protocol != kNetProtocolVersion) {
      refuse(c, NetRefusal::Protocol,
             "fabric: protocol version mismatch (server speaks " +
                 std::to_string(kNetProtocolVersion) + ", worker speaks " +
                 std::to_string(c.hello.protocol) + ")");
      return;
    }
    if (c.hello.salt != options_.salt ||
        c.hello.fingerprint != options_.fingerprint) {
      refuse(c, NetRefusal::Manifest,
             "fabric: sweep manifest mismatch — this worker was launched for "
             "a different campaign configuration");
      return;
    }
    if (c.hello.worker_id >= static_cast<std::uint32_t>(options_.max_workers)) {
      refuse(c, NetRefusal::Busy,
             "fabric: worker id " + std::to_string(c.hello.worker_id) +
                 " is outside this server's slot range [0, " +
                 std::to_string(options_.max_workers) + ")");
      return;
    }

    fill_random_nonce(c.server_nonce, kNetNonceBytes);
    const Sha256Digest mac = handshake_mac(options_.token, 'S', c.hello,
                                           c.worker_nonce, c.server_nonce);
    std::vector<std::uint8_t> challenge;
    challenge.reserve(kNetNonceBytes + kNetMacBytes);
    challenge.insert(challenge.end(), c.server_nonce,
                     c.server_nonce + kNetNonceBytes);
    challenge.insert(challenge.end(), mac.begin(), mac.end());
    if (!c.channel.send(kMsgNetChallenge, challenge)) {
      drop_conn(c);
      return;
    }
    c.stage = Conn::Stage::AwaitAuth;
  }

  void handle_auth(Conn& c, const WireMessage& msg, double now) {
    if (msg.type != kMsgNetAuth || msg.payload.size() != kNetMacBytes) {
      drop_conn(c);
      return;
    }
    const Sha256Digest expected = handshake_mac(options_.token, 'W', c.hello,
                                                c.worker_nonce, c.server_nonce);
    if (!constant_time_equal(msg.payload.data(), expected.data(),
                             kNetMacBytes)) {
      refuse(c, NetRefusal::Auth,
             "fabric: handshake MAC mismatch — wrong campaign token");
      return;
    }
    ++report_.handshakes_completed;
    admit(c, now);
  }

  // Binds an authenticated (or forked) connection to its worker slot and
  // sends the Welcome, plus the grant of a resumed lease.
  void admit(Conn& c, double now) {
    ever_served_ = true;
    c.worker_id = static_cast<int>(c.hello.worker_id);
    WorkerSlot& slot = slots_[static_cast<std::size_t>(c.worker_id)];
    // Adopt: a reconnect supersedes whatever connection the slot held (a
    // wedged socket the deadlines have not reaped yet).
    if (slot.conn != nullptr && slot.conn != &c) drop_conn(*slot.conn);
    slot.conn = &c;
    if (slot.sessions++ > 0) ++slot.reconnects;
    slot.last_heartbeat = now;
    open_sink(slot, c.worker_id, c.forked);

    c.stage = Conn::Stage::Serving;
    c.last_heard = now;
    no_worker_since_ = now;

    // Lease resume: only meaningful for a reconnecting holder; a worker
    // whose lease expired (and was re-issued elsewhere) gets kNoLease and
    // discards its local lease state — late commits reconcile as
    // duplicates.
    std::vector<std::uint64_t> pending;
    const std::int64_t resume = core_->regrant_held(c.worker_id, now, &pending);

    PayloadWriter welcome;
    welcome.u64(resume >= 0 ? static_cast<std::uint64_t>(resume) : kNoLease);
    welcome.u64(slot.sink.have);
    if (!c.channel.send(kMsgNetWelcome, welcome.take())) {
      drop_conn(c);
      return;
    }
    if (resume >= 0) {
      PayloadWriter grant;
      grant.u64(static_cast<std::uint64_t>(resume));
      grant.u32(static_cast<std::uint32_t>(pending.size()));
      for (const std::uint64_t index : pending) grant.u64(index);
      if (!c.channel.send(kMsgGrant, grant.take())) {
        drop_conn(c);
        return;
      }
      c.lease = resume;
      ++report_.lease_resumes;
    }
  }

  // --- protocol: serving ------------------------------------------------

  void try_grant(Conn& c, double now) {
    if (c.stage != Conn::Stage::Serving || c.lease >= 0) return;
    std::vector<std::uint64_t> pending;
    const std::int64_t id = core_->grant(c.worker_id, now, &pending);
    if (id < 0) return;
    PayloadWriter grant;
    grant.u64(static_cast<std::uint64_t>(id));
    grant.u32(static_cast<std::uint32_t>(pending.size()));
    for (const std::uint64_t index : pending) grant.u64(index);
    if (!c.channel.send(kMsgGrant, grant.take())) {
      drop_conn(c);
      return;
    }
    c.lease = id;
    ++core_->report().leases_issued;
  }

  void service(Conn& c, double now) {
    if (c.stage == Conn::Stage::Closed) return;
    // Wire framing damage (bad CRC, impossible length — JournalCorrupt from
    // next()) means a trashed peer: never act on that frame, drop the
    // connection, let the worker reconnect cleanly. A read failure
    // (ECONNRESET and friends — plain Error from pump()) means a gone peer,
    // but the complete, CRC-checked frames that arrived before it are
    // intact and are acted on first: a worker that uploads its last result
    // and exits with an ack still unread is reset, and its result must not
    // be lost with it. The catches are deliberately narrow — a
    // JournalCorrupt out of handle_message (a commit byte mismatch, i.e.
    // nondeterministic task execution) must stay fatal to the whole run.
    bool open = false;
    try {
      open = c.channel.pump();
    } catch (const Error&) {
      open = false;
    }
    for (;;) {
      WireMessage msg;
      bool got = false;
      try {
        got = c.channel.next(&msg);
      } catch (const Error&) {
        drop_conn(c);
        return;
      }
      if (!got || c.stage == Conn::Stage::Closed) break;
      handle_message(c, msg, now);
    }
    if (!open) drop_conn(c);
  }

  void handle_message(Conn& c, const WireMessage& msg, double now) {
    c.last_heard = now;
    switch (c.stage) {
      case Conn::Stage::AwaitHello:
        handle_hello(c, msg);
        return;
      case Conn::Stage::AwaitAuth:
        handle_auth(c, msg, now);
        return;
      case Conn::Stage::Serving:
        break;
      case Conn::Stage::Closed:
        return;
    }
    WorkerSlot& slot = slots_[static_cast<std::size_t>(c.worker_id)];
    // Explicit size guards instead of PayloadReader's short-read exception:
    // an undersized payload from an authenticated-but-trashed peer drops
    // that connection, it does not abort the server.
    switch (msg.type) {
      case kMsgHeartbeat: {
        if (msg.payload.size() < 12) {
          drop_conn(c);
          break;
        }
        PayloadReader r(msg.payload);
        (void)r.u32();  // worker id, redundant with the authenticated conn
        core_->note_liveness(c.worker_id, r.u64(), now);
        slot.last_heartbeat = now;
        break;
      }
      case kMsgLeaseDone: {
        if (msg.payload.size() < 8) {
          drop_conn(c);
          break;
        }
        PayloadReader r(msg.payload);
        const std::uint64_t lease = r.u64();
        if (c.lease >= 0 && static_cast<std::uint64_t>(c.lease) == lease)
          c.lease = -1;
        break;
      }
      case kMsgShardChunk:
        handle_chunk(c, slot, msg, now);
        break;
      default:
        drop_conn(c);  // protocol violation
        break;
    }
  }

  // --- shard replication ------------------------------------------------

  void open_sink(WorkerSlot& slot, int worker_id, bool shared) {
    ShardSink& sink = slot.sink;
    if (!sink.path.empty()) return;
    sink.path = shard_journal_path(options_.dir, worker_id);
    sink.shared = shared;
    const JournalReplay replay = replay_journal(sink.path);
    sink.have = replay.valid_bytes;
    sink.committed = replay.valid_bytes;
    sink.parser = FrameParser();
    if (shared) return;  // the worker truncates and appends this file itself
    std::error_code ec;
    if (fs::exists(sink.path, ec) &&
        fs::file_size(sink.path, ec) > replay.valid_bytes)
      fs::resize_file(sink.path, replay.valid_bytes, ec);  // torn tail
    sink.file.reset(std::fopen(sink.path.c_str(), "ab"));
    if (sink.file == nullptr)
      throw Error("fabric: cannot open shard sink " + sink.path + ": " +
                  std::strerror(errno));
  }

  void handle_chunk(Conn& c, WorkerSlot& slot, const WireMessage& msg,
                    double now) {
    ShardSink& sink = slot.sink;
    if (msg.payload.size() < 8) {
      drop_conn(c);
      return;
    }
    PayloadReader r(msg.payload);
    const std::uint64_t offset = r.u64();
    const std::uint8_t* data = msg.payload.data() + 8;
    std::size_t n = msg.payload.size() - 8;

    if (offset > sink.have) {
      drop_conn(c);  // the worker skipped bytes we never received
      return;
    }
    const std::uint64_t skip = sink.have - offset;
    if (skip >= n) {  // pure resend of bytes we already hold
      ack(c, sink);
      return;
    }
    data += skip;
    n -= static_cast<std::size_t>(skip);

    if (!sink.shared) {
      if (std::fwrite(data, 1, n, sink.file.get()) != n ||
          std::fflush(sink.file.get()) != 0)
        throw Error("fabric: cannot append to shard sink " + sink.path +
                    ": " + std::strerror(errno));
      ::fsync(::fileno(sink.file.get()));
    }
    report_.shard_bytes_received += n;

    // Verify the magic byte-for-byte, then stream everything after it
    // through the record parser.
    std::size_t consumed = 0;
    while (sink.have < sizeof(kJournalMagic) && consumed < n) {
      if (data[consumed] !=
          static_cast<std::uint8_t>(kJournalMagic[sink.have])) {
        recover_sink(sink);
        drop_conn(c);
        return;
      }
      ++sink.have;
      ++consumed;
      sink.committed = sink.have;
    }
    if (consumed < n) {
      sink.parser.feed(data + consumed, n - consumed);
      sink.have += n - consumed;
    }

    for (;;) {
      JournalRecord record;
      bool got = false;
      try {
        got = sink.parser.next(&record);
      } catch (const JournalCorrupt&) {
        // Damaged record bytes inside the replica. Roll the file back to
        // the last good boundary and make the worker re-upload from there.
        recover_sink(sink);
        drop_conn(c);
        return;
      }
      if (!got) break;
      sink.committed = sink.have - sink.parser.buffered();
      if (!handle_record(c, record, now)) {
        drop_conn(c);
        return;
      }
    }
    if (c.stage == Conn::Stage::Serving) ack(c, sink);
  }

  // Truncates the replica back to the last fully parsed record and resets
  // the stream state, so the next upload resumes from a clean boundary.
  void recover_sink(ShardSink& sink) {
    sink.have = sink.committed;
    sink.parser = FrameParser();
    if (sink.shared) return;  // the worker's own file; it is the one to heal
    sink.file.reset();
    std::error_code ec;
    fs::resize_file(sink.path, sink.committed, ec);
    sink.file.reset(std::fopen(sink.path.c_str(), "ab"));
    if (sink.file == nullptr)
      throw Error("fabric: cannot reopen shard sink " + sink.path + ": " +
                  std::strerror(errno));
  }

  // Returns false when the record is a protocol/manifest violation and the
  // connection must go. Commit mismatches (JournalCorrupt) propagate — a
  // nondeterministic task result is fatal to the run.
  bool handle_record(Conn& c, const JournalRecord& record, double now) {
    switch (record.type) {
      case kRecordManifest: {
        PayloadReader r(record.payload);
        const std::uint64_t salt = r.u64();
        const std::uint64_t fp = r.u64();
        return salt != options_.salt || fp == options_.fingerprint;
      }
      case kRecordTaskDone: {
        if (record.payload.size() < 8) return false;
        PayloadReader r(record.payload);
        const std::uint64_t key = r.u64();
        const auto idx = index_of_key_.find(key);
        if (idx == index_of_key_.end()) return false;  // foreign sweep key
        std::vector<std::uint8_t> payload(record.payload.begin() + 8,
                                          record.payload.end());
        core_->commit(idx->second, key, std::move(payload));
        // Progress is liveness, whatever lease it lands under.
        if (c.lease >= 0)
          core_->note_liveness(c.worker_id,
                               static_cast<std::uint64_t>(c.lease), now);
        return true;
      }
      default:
        return true;  // unknown or legacy records ride along in the bytes
    }
  }

  // A forked worker gets no acks: it never resumes an upload, and a send
  // failing because it just exited would drop its connection before the
  // frames it sent last were parsed.
  void ack(Conn& c, ShardSink& sink) {
    if (c.forked) return;
    PayloadWriter out;
    out.u64(sink.have);
    if (!c.channel.send(kMsgShardAck, out.take())) drop_conn(c);
  }

  // --- observability ----------------------------------------------------

  // Atomically rewrites dir/connections.status (tools/fabric_inspect.py
  // connections). Plain text, one worker per line.
  void write_status(double now) {
    last_status_ = now;
    const std::string path = options_.dir + "/connections.status";
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return;  // observability never kills the run
    std::fprintf(f, "# lpsram fabric-net connections v1\n");
    std::fprintf(f, "epoch %.3f\n", wall_s());
    std::fprintf(f, "listen %d\n", listener_.port());
    for (std::size_t id = 0; id < slots_.size(); ++id) {
      const WorkerSlot& slot = slots_[id];
      if (slot.sessions == 0) continue;
      const Conn* c = slot.conn;
      const bool forked = slot.sink.shared;  // a forked worker's slot
      const char* state =
          c != nullptr ? "serving" : (forked ? "exited" : "disconnected");
      const char* addr = c != nullptr && !c->peer.empty()
                             ? c->peer.c_str()
                             : (forked ? "forked" : "-");
      std::fprintf(f, "worker %zu state=%s addr=%s lease=", id, state, addr);
      if (c != nullptr && c->lease >= 0)
        std::fprintf(f, "%lld", static_cast<long long>(c->lease));
      else
        std::fprintf(f, "-");
      std::fprintf(f, " have=%llu",
                   static_cast<unsigned long long>(slot.sink.have));
      if (slot.last_heartbeat > 0.0)
        std::fprintf(f, " heartbeat_age=%.3f", now - slot.last_heartbeat);
      else
        std::fprintf(f, " heartbeat_age=-");
      std::fprintf(f, " reconnects=%llu\n",
                   static_cast<unsigned long long>(slot.reconnects));
    }
    std::fclose(f);
    std::error_code ec;
    fs::rename(tmp, path, ec);
  }

  std::vector<std::string> existing_shard_paths() const {
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) == 0 &&
          entry.path().extension() == ".journal")
        paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
  }

  TcpListener& listener_;
  NetFabricOptions options_;
  std::uint64_t count_;
  double silence_timeout_s_ = 2.0;
  std::unordered_map<std::uint64_t, std::uint64_t> index_of_key_;
  std::vector<std::uint64_t> keys_in_index_order_;
  std::optional<LeaseCore> core_;
  std::list<Conn> conns_;
  std::vector<WorkerSlot> slots_;
  NetFabricReport report_;
  bool ever_served_ = false;
  bool finished_ = false;  // the loop is over; Shutdown has been sent
  double no_worker_since_ = 0.0;
  double last_status_ = 0.0;
};

}  // namespace

NetFabricReport run_net_fabric(TcpListener& listener,
                               const NetFabricOptions& options,
                               std::uint64_t count, const FabricKeyFn& key_of,
                               std::vector<MessageChannel> forked) {
  NetServer server(listener, options, count, key_of, std::move(forked));
  try {
    const NetFabricReport report = server.run();
    if (options.report_out != nullptr) *options.report_out = report;
    return report;
  } catch (...) {
    if (options.report_out != nullptr) *options.report_out = server.report();
    throw;
  }
}

#else  // !LPSRAM_HAVE_FABRIC_NET

NetFabricReport run_net_fabric(TcpListener&, const NetFabricOptions&,
                               std::uint64_t, const FabricKeyFn&,
                               std::vector<MessageChannel>) {
  throw Error("fabric: the net server requires a POSIX platform");
}

#endif  // LPSRAM_HAVE_FABRIC_NET

}  // namespace lpsram::fabric
