// Typed message channel between the fabric coordinator and a worker, over
// any POSIX stream socket: a forked worker's socketpair or a TCP connection
// (net/net.hpp). Every message is framed
// exactly like a journal record — [u32 length][u32 crc32][u8 type + payload]
// — so the wire shares the journal's codec (encode_record_frame /
// FrameParser) and tools/fabric_inspect.py can decode captures with the same
// logic it uses on journal files.
//
// Liveness semantics the coordinator relies on:
//   * recv() returning Eof means the peer's end is closed — on a socketpair
//     that is the worker's SIGKILL, OOM or clean exit, or for the worker the
//     death of its parent; on TCP it may also be a dropped connection.
//   * send() returns false (instead of raising SIGPIPE) when the peer is
//     gone, so the coordinator can mark a worker dead mid-broadcast.
//   * A checksum or length violation on the stream throws JournalCorrupt:
//     unlike a journal file there is no "torn tail" on a reliable byte
//     stream — damage means a framing bug or a trashed peer.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "lpsram/runtime/journal.hpp"

namespace lpsram::fabric {

// Message types. Worker -> coordinator: Heartbeat, LeaseDone, ShardChunk.
// Coordinator -> worker: Grant, Shutdown, ShardAck. Types 1 and 3 were the
// retired socketpair-only Hello and TaskDone; they stay unassigned.
inline constexpr std::uint8_t kMsgHeartbeat = 2;  // [u32 worker][u64 lease][u64 done]
inline constexpr std::uint8_t kMsgLeaseDone = 4;  // [u64 lease]
inline constexpr std::uint8_t kMsgGrant = 5;      // [u64 lease][u32 n][u64 index x n]
inline constexpr std::uint8_t kMsgShutdown = 6;   // []

// The handshake runs NetHello -> NetChallenge -> NetAuth -> NetWelcome |
// NetRefuse before any other message is accepted (a forked worker is sent
// its NetWelcome straight away); ShardChunk/ShardAck implement resumable
// upload of the worker's fsync'd shard journal, which is how results reach
// the coordinator (see net/server.hpp).
inline constexpr std::uint8_t kMsgNetHello = 16;
//   [u32 proto][u32 worker][u64 salt][u64 fp][u8 reconnect][32B worker_nonce]
inline constexpr std::uint8_t kMsgNetChallenge = 17;
//   [32B server_nonce][32B server_mac]
inline constexpr std::uint8_t kMsgNetAuth = 18;   // [32B worker_mac]
inline constexpr std::uint8_t kMsgNetWelcome = 19;
//   [u64 resume_lease (u64::max = none)][u64 shard_bytes_have]
inline constexpr std::uint8_t kMsgNetRefuse = 20; // [u32 reason][str message]
inline constexpr std::uint8_t kMsgShardChunk = 21;// [u64 offset][raw bytes]
inline constexpr std::uint8_t kMsgShardAck = 22;  // [u64 bytes_have]

// Version of the net handshake + message grammar above. Bumped on any wire
// change; a mismatch is refused before authentication even starts.
inline constexpr std::uint32_t kNetProtocolVersion = 1;

// kMsgNetRefuse reason codes.
enum class NetRefusal : std::uint32_t {
  None = 0,
  Protocol = 1,  // peer speaks a different kNetProtocolVersion
  Manifest = 2,  // worker's sweep salt/fingerprint is not this campaign
  Auth = 3,      // HMAC handshake failed (wrong or missing token)
  Busy = 4,      // server-side limit (too many workers)
};

struct WireMessage {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

enum class RecvStatus { Ok, Eof, Timeout };

// One end of a bidirectional channel. Move-only; owns its fd.
class MessageChannel {
 public:
  MessageChannel() = default;
  explicit MessageChannel(int fd) : fd_(fd) {}
  ~MessageChannel() { close(); }
  MessageChannel(MessageChannel&& other) noexcept { *this = std::move(other); }
  MessageChannel& operator=(MessageChannel&& other) noexcept;
  MessageChannel(const MessageChannel&) = delete;
  MessageChannel& operator=(const MessageChannel&) = delete;

  // A connected socketpair: first is conventionally the coordinator end,
  // second the worker end. After fork() each process closes the end it does
  // not own.
  static std::pair<MessageChannel, MessageChannel> make_pair();

  // Frames, checksums and writes one message. Returns false when the peer
  // end is closed (EPIPE/ECONNRESET); throws lpsram::Error on other I/O
  // failures.
  bool send(std::uint8_t type, const std::vector<std::uint8_t>& payload);

  // Blocking receive with timeout. Ok fills *out; Timeout means no complete
  // message within `timeout_ms` (negative = wait forever); Eof means the
  // peer is gone and no further messages will arrive (already-buffered
  // complete messages are drained first).
  RecvStatus recv(WireMessage* out, int timeout_ms);

  // Non-blocking: reads whatever bytes are available into the parser.
  // Returns false on EOF. The coordinator's poll loop calls this when the
  // fd is readable, then drains messages with next().
  bool pump();
  // Pops one buffered message; false when none is complete.
  bool next(WireMessage* out);

  int fd() const noexcept { return fd_; }
  bool is_open() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
  FrameParser parser_;
};

}  // namespace lpsram::fabric
