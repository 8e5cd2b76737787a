#include "lpsram/runtime/fabric/net/remote_worker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/fabric/net/auth.hpp"
#include "lpsram/runtime/fabric/net/net.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram::fabric {

namespace {

namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Upload granularity. Small enough that a connection cut mid-upload wastes
// little re-send, large enough that the wire framing overhead disappears.
constexpr std::size_t kShardChunkBytes = 56 * 1024;
constexpr std::uint64_t kNoLease = ~std::uint64_t(0);

class RemoteWorker {
 public:
  RemoteWorker(const RemoteWorkerOptions& options, const FabricKeyFn& key_of,
               const FabricTaskFn& task_fn)
      : options_(options),
        key_of_(key_of),
        task_fn_(task_fn),
        campaign_(options.shard_journal) {}

  RemoteWorkerReport run() {
    campaign_.bind_sweep(options_.salt, options_.fingerprint);

    std::unique_ptr<ScopedJournalCrash> shard_crash;
    if (options_.chaos.crash_shard_at_append > 0)
      shard_crash = std::make_unique<ScopedJournalCrash>(
          options_.chaos.crash_shard_at_append);
    wedge_pending_ = options_.chaos.wedge_after_results > 0;

    SweepExecutorOptions exec_options;
    exec_options.threads = options_.threads > 0 ? options_.threads : 1;
    executor_.emplace(exec_options);

    double last_handshake = now_s();
    double backoff = options_.reconnect_backoff_initial_s;
    for (;;) {
      MessageChannel channel;
      bool connected = false;
      try {
        channel = tcp_connect(options_.host, options_.port,
                              options_.connect_timeout_s,
                              options_.io_timeout_s);
        connected = handshake(channel);
      } catch (const Error&) {
        connected = false;
      }
      if (!connected) {
        if (report_.refused != NetRefusal::None) return report_;  // terminal
        if (now_s() - last_handshake > options_.give_up_after_s) {
          report_.gave_up = true;
          return report_;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff = std::min(backoff * 2.0, options_.reconnect_backoff_max_s);
        continue;
      }
      last_handshake = now_s();
      backoff = options_.reconnect_backoff_initial_s;

      // The server's replica cannot be ahead of our own fsync'd file — if it
      // is, this directory is not the shard that produced those bytes.
      const std::uint64_t local = shard_size();
      if (uploaded_to_ > local)
        throw Error(
            "fabric: server already holds " + std::to_string(uploaded_to_) +
            " bytes of shard " + options_.shard_journal +
            " but the local file has only " + std::to_string(local) +
            " — shard lineage diverged (was the worker directory recreated?)");
      if (!upload_tail(channel)) continue;  // connection died; reconnect
      if (serve(channel)) return report_;
    }
  }

 private:
  // --- handshake --------------------------------------------------------

  // False = retry through the backoff path, unless report_.refused was set
  // (a refusal — by the server, or by us of the server — is terminal).
  bool handshake(MessageChannel& channel) {
    NetHelloFields hello;
    hello.protocol = kNetProtocolVersion;
    hello.worker_id = static_cast<std::uint32_t>(options_.worker_id);
    hello.salt = options_.salt;
    hello.fingerprint = options_.fingerprint;
    hello.reconnect = sessions_ > 0 ? 1 : 0;
    std::uint8_t worker_nonce[kNetNonceBytes];
    fill_random_nonce(worker_nonce, kNetNonceBytes);

    PayloadWriter h;
    h.u32(hello.protocol);
    h.u32(hello.worker_id);
    h.u64(hello.salt);
    h.u64(hello.fingerprint);
    h.u8(hello.reconnect);
    std::vector<std::uint8_t> hello_bytes = h.take();
    hello_bytes.insert(hello_bytes.end(), worker_nonce,
                       worker_nonce + kNetNonceBytes);
    if (!channel.send(kMsgNetHello, hello_bytes)) return false;

    WireMessage msg;
    if (!recv_or_refusal(channel, &msg)) return false;
    if (msg.type != kMsgNetChallenge ||
        msg.payload.size() != kNetNonceBytes + kNetMacBytes)
      return false;
    std::uint8_t server_nonce[kNetNonceBytes];
    std::memcpy(server_nonce, msg.payload.data(), kNetNonceBytes);
    // Mutual authentication: the server must prove it holds our token
    // before we upload a byte or execute a task for it.
    const Sha256Digest expected = handshake_mac(options_.token, 'S', hello,
                                                worker_nonce, server_nonce);
    if (!constant_time_equal(msg.payload.data() + kNetNonceBytes,
                             expected.data(), kNetMacBytes)) {
      report_.refused = NetRefusal::Auth;
      report_.refuse_message =
          "fabric: server failed mutual authentication — it does not hold "
          "this worker's campaign token";
      return false;
    }

    const Sha256Digest mac = handshake_mac(options_.token, 'W', hello,
                                           worker_nonce, server_nonce);
    if (!channel.send(kMsgNetAuth,
                      std::vector<std::uint8_t>(mac.begin(), mac.end())))
      return false;

    if (!recv_or_refusal(channel, &msg)) return false;
    if (msg.type != kMsgNetWelcome || msg.payload.size() != 16) return false;
    PayloadReader r(msg.payload);
    const std::uint64_t resume = r.u64();
    uploaded_to_ = r.u64();
    acked_ = uploaded_to_;  // the Welcome is the server's cumulative ack
    if (sessions_++ > 0) ++report_.reconnects;
    if (resume != kNoLease) ++report_.lease_resumes;
    return true;
  }

  // Receives one handshake-stage message with the I/O deadline. A NetRefuse
  // is recorded (terminal) and reported as failure; so are EOF, timeout and
  // a trashed stream.
  bool recv_or_refusal(MessageChannel& channel, WireMessage* msg) {
    RecvStatus status = RecvStatus::Eof;
    try {
      status = channel.recv(
          msg, static_cast<int>(options_.io_timeout_s * 1000.0));
    } catch (const Error&) {
      // Framing damage or a connection-level read failure: either way the
      // stream is useless — reconnect through a clean one.
      return false;
    }
    if (status != RecvStatus::Ok) return false;
    if (msg->type == kMsgNetRefuse) {
      record_refusal(*msg);
      return false;
    }
    return true;
  }

  void record_refusal(const WireMessage& msg) {
    report_.refused = NetRefusal::Auth;  // safest default on a short payload
    report_.refuse_message = "fabric: server refused the connection";
    if (msg.payload.size() < 8) return;
    try {
      PayloadReader r(msg.payload);
      report_.refused = static_cast<NetRefusal>(r.u32());
      report_.refuse_message = r.str();
    } catch (const JournalCorrupt&) {
    }
  }

  // --- serving ----------------------------------------------------------

  // True = done for good (shutdown or terminal refusal); false = reconnect.
  bool serve(MessageChannel& channel) {
    for (;;) {
      if (pending_shutdown_) {  // a Shutdown swallowed by drain_acks()
        report_.shutdown = true;
        return true;
      }
      WireMessage msg;
      RecvStatus status = RecvStatus::Eof;
      try {
        status = channel.recv(
            &msg,
            static_cast<int>(options_.heartbeat_interval_s * 1000.0));
      } catch (const Error&) {
        return false;  // trashed or reset stream — reconnect through a clean one
      }
      if (status == RecvStatus::Eof) return false;
      if (status == RecvStatus::Timeout) {
        // Idle heartbeat: keeps the server's silence deadline at bay while
        // we wait for a grant.
        if (!send_heartbeat(channel, 0)) return false;
        continue;
      }
      switch (msg.type) {
        case kMsgShutdown:
          report_.shutdown = true;
          return true;
        case kMsgShardAck:
          handle_async(msg);  // tracks the server's cumulative offset
          break;
        case kMsgNetRefuse:
          record_refusal(msg);
          return true;
        case kMsgGrant: {
          if (msg.payload.size() < 12) return false;
          PayloadReader r(msg.payload);
          const std::uint64_t lease_id = r.u64();
          const std::uint32_t n = r.u32();
          if (msg.payload.size() < 12 + std::size_t(n) * 8) return false;
          std::vector<std::uint64_t> indices(n);
          for (std::uint32_t i = 0; i < n; ++i) indices[i] = r.u64();
          if (!execute_lease(channel, lease_id, indices)) return false;
          break;
        }
        default:
          return false;  // protocol violation — tear down and reconnect
      }
    }
  }

  bool send_heartbeat(MessageChannel& channel, std::uint64_t lease_id) {
    PayloadWriter hb;
    hb.u32(static_cast<std::uint32_t>(options_.worker_id));
    hb.u64(lease_id);
    hb.u64(results_sent_);
    return channel.send(kMsgHeartbeat, hb.take());
  }

  bool execute_lease(MessageChannel& channel, std::uint64_t lease_id,
                     const std::vector<std::uint64_t>& indices) {
    ++report_.leases_served;

    // Same precompute split as the forked worker: a thread pool overlaps the
    // whole batch up front, a single thread computes lazily so heartbeats
    // interleave with long solves.
    std::vector<std::vector<std::uint8_t>> computed(indices.size());
    std::vector<std::uint8_t> precomputed(indices.size(), 0);
    if (executor_->threads() > 1 && indices.size() > 1) {
      executor_->run(indices.size(), [&](std::size_t j, int slot) {
        if (campaign_.find_result(key_of_(indices[j])) != nullptr) return;
        computed[j] = task_fn_(indices[j], slot);
        precomputed[j] = 1;
      });
    }

    double last_heartbeat = now_s();
    for (std::size_t j = 0; j < indices.size(); ++j) {
      if (wedge_pending_ &&
          results_sent_ == options_.chaos.wedge_after_results) {
        wedge_pending_ = false;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options_.chaos.wedge_s));
      }

      const std::uint64_t index = indices[j];
      const std::uint64_t key = key_of_(index);
      if (campaign_.find_result(key) != nullptr) {
        ++report_.tasks_skipped;
      } else {
        if (!precomputed[j]) computed[j] = task_fn_(index, 0);
        // Commit point: fsync'd into the local shard journal BEFORE any
        // byte of it goes on the wire.
        campaign_.record_result(key, computed[j]);
        ++report_.tasks_executed;
      }

      // The upload IS the acknowledgement: the server commits the task when
      // the record's bytes arrive in its replica.
      if (!upload_tail(channel)) return false;
      ++results_sent_;
      if (!drain_acks(channel)) return false;

      if (options_.chaos.exit_after_results > 0 &&
          results_sent_ == options_.chaos.exit_after_results) {
        // The chaos contract says the Nth result is committed AND
        // acknowledged when the worker dies: wait for the server's ack to
        // cover the upload, so the abrupt close cannot RST away bytes the
        // server's kernel buffered but its loop had not read yet.
        await_acked(channel);
        std::_Exit(9);
      }

      const double t = now_s();
      if (t - last_heartbeat >= options_.heartbeat_interval_s) {
        last_heartbeat = t;
        if (!send_heartbeat(channel, lease_id)) return false;
      }
    }

    PayloadWriter fin;
    fin.u64(lease_id);
    return channel.send(kMsgLeaseDone, fin.take());
  }

  // --- shard replication ------------------------------------------------

  std::uint64_t shard_size() const {
    std::error_code ec;
    const std::uint64_t size = fs::file_size(options_.shard_journal, ec);
    return ec ? 0 : size;
  }

  // Ships the shard journal's bytes in [uploaded_to_, size) as ShardChunk
  // frames. False when the connection died — the next handshake's Welcome
  // rewinds uploaded_to_ to what actually arrived.
  bool upload_tail(MessageChannel& channel) {
    const std::uint64_t size = shard_size();
    if (uploaded_to_ >= size) return true;
    std::ifstream in(options_.shard_journal, std::ios::binary);
    if (!in.is_open())
      throw Error("fabric: cannot reopen shard journal " +
                  options_.shard_journal + " for upload");
    in.seekg(static_cast<std::streamoff>(uploaded_to_));
    std::vector<std::uint8_t> chunk;
    while (uploaded_to_ < size) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kShardChunkBytes, size - uploaded_to_));
      chunk.resize(8 + n);
      for (int i = 0; i < 8; ++i)
        chunk[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(uploaded_to_ >> (8 * i));
      in.read(reinterpret_cast<char*>(chunk.data() + 8),
              static_cast<std::streamsize>(n));
      if (in.gcount() != static_cast<std::streamsize>(n))
        throw Error("fabric: short read from shard journal " +
                    options_.shard_journal);
      if (!channel.send(kMsgShardChunk, chunk)) return false;
      uploaded_to_ += n;
      report_.bytes_uploaded += n;
    }
    return true;
  }

  // Opportunistically consumes whatever the server has queued — ShardAcks,
  // possibly a mid-lease Shutdown — without blocking. Leaving acks unread
  // would fill the receive buffer over a long campaign (stalling the
  // server's ack sends against its write deadline), and any unread byte at
  // process death turns the close into an RST that can discard chunks the
  // server's kernel buffered but never delivered to its loop.
  bool drain_acks(MessageChannel& channel) {
    bool open = true;
    try {
      open = channel.pump();
      WireMessage msg;
      while (channel.next(&msg)) handle_async(msg);
    } catch (const Error&) {
      return false;
    }
    return open;
  }

  void handle_async(const WireMessage& msg) {
    if (msg.type == kMsgShardAck && msg.payload.size() >= 8) {
      PayloadReader r(msg.payload);
      acked_ = std::max(acked_, r.u64());
    } else if (msg.type == kMsgShutdown) {
      pending_shutdown_ = true;
    }
  }

  // Blocks (bounded by the I/O deadline) until the server's cumulative ack
  // covers everything uploaded. Only the exit chaos needs this — a real
  // worker never waits on acks; Welcome rewinds the offset on reconnect.
  void await_acked(MessageChannel& channel) {
    const double deadline = now_s() + options_.io_timeout_s;
    while (acked_ < uploaded_to_ && now_s() < deadline) {
      WireMessage msg;
      RecvStatus status = RecvStatus::Eof;
      try {
        status = channel.recv(&msg, 50);
      } catch (const Error&) {
        return;
      }
      if (status == RecvStatus::Eof) return;
      if (status == RecvStatus::Ok) handle_async(msg);
    }
  }

  const RemoteWorkerOptions& options_;
  const FabricKeyFn& key_of_;
  const FabricTaskFn& task_fn_;
  Campaign campaign_;
  std::optional<SweepExecutor> executor_;
  RemoteWorkerReport report_;
  std::uint64_t sessions_ = 0;
  std::uint64_t results_sent_ = 0;
  std::uint64_t uploaded_to_ = 0;
  std::uint64_t acked_ = 0;
  bool wedge_pending_ = false;
  bool pending_shutdown_ = false;
};

}  // namespace

RemoteWorkerReport run_remote_worker(const RemoteWorkerOptions& options,
                                     const FabricKeyFn& key_of,
                                     const FabricTaskFn& task_fn) {
  RemoteWorker worker(options, key_of, task_fn);
  return worker.run();
}

}  // namespace lpsram::fabric
