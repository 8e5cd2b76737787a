// Append-only, checksummed record log backing the durable campaign runtime.
//
// File layout:
//   [8-byte magic "LPSJRNL1"]
//   repeated records: [u32 length][u32 crc32][u8 type + payload bytes]
// where `length` counts the type byte plus the payload and `crc32` (IEEE,
// reflected — the same polynomial as zlib) covers those `length` bytes.
// All integers are little-endian; doubles are stored as their raw IEEE-754
// bit pattern, so replayed values are bit-identical to what was recorded.
//
// Durability contract:
//   * Every append is flushed (and fsync'd where available) before the
//     call returns — after a crash the file contains every record whose
//     append completed, plus at most one torn (partially written) record.
//     A failed flush or fsync throws JournalCorrupt: the record is not
//     known to be durable.
//   * Replay truncates a torn tail silently: a crash mid-append loses only
//     the record being written, never a completed one.
//   * Any damage BEFORE the tail — a bad checksum, an impossible length, a
//     short payload — throws JournalCorrupt. Completed records are never
//     silently dropped.
//   * Compaction rewrites the log via write-temp + flush + rename + parent
//     directory fsync, so a crash mid-compaction leaves either the old file
//     or the new one, never a hybrid and never neither: the directory fsync
//     makes the rename itself durable, and a stale `.tmp` left by a crash
//     between write-temp and rename is cleaned up on the next open().
//
// The record framing ([u32 length][u32 crc32][u8 type + payload]) is shared
// with the fabric message channel (runtime/fabric/wire.hpp): a message on the
// wire is framed byte-for-byte like a record on disk, so one codec — and one
// inspection tool — covers both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace lpsram {

// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) — matches zlib's
// crc32(), which tools/journal_inspect.py uses to cross-check journals.
std::uint32_t crc32_ieee(const std::uint8_t* data, std::size_t size) noexcept;

// Journal file magic: 8 bytes at offset 0.
inline constexpr char kJournalMagic[8] = {'L', 'P', 'S', 'J',
                                          'R', 'N', 'L', '1'};
// Sanity cap on a single record's length field. A real record is a few KB;
// a length above this can only come from interior corruption, letting replay
// distinguish a damaged length prefix (JournalCorrupt) from a genuinely
// torn tail (silent truncation).
inline constexpr std::uint32_t kJournalMaxRecordBytes = 16u << 20;

// One replayed record: leading type byte stripped off, payload verbatim.
struct JournalRecord {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

// Outcome of replaying a journal file.
struct JournalReplay {
  std::vector<JournalRecord> records;
  // Byte offset of the end of the last intact record (== file size when the
  // file is clean). JournalWriter::open() resumes appending here, truncating
  // any torn tail first.
  std::uint64_t valid_bytes = 0;
  bool torn_tail = false;  // a partial final record was dropped
};

// Reads and validates a journal. A missing file replays as empty (a fresh
// campaign). Throws JournalCorrupt on interior damage per the contract above.
JournalReplay replay_journal(const std::string& path);

// Best-effort fsync of the directory containing `path`, making a just-created
// or just-renamed directory entry durable. No-op where fsync is unavailable.
void fsync_parent_dir(const std::string& path) noexcept;

// Frames one record exactly as it is laid out on disk and on the fabric
// wire: [u32 length][u32 crc32][u8 type + payload].
std::vector<std::uint8_t> encode_record_frame(std::uint8_t type,
                                              const std::uint8_t* payload,
                                              std::size_t size);

// Incremental decoder for the same framing over a byte stream (the fabric
// message channel reads sockets in arbitrary-sized chunks). feed() appends
// raw bytes; next() pops one complete record at a time. A bad length or
// checksum throws JournalCorrupt — on a reliable stream that means a framing
// bug or a trashed peer, not a torn write, so there is no silent truncation.
class FrameParser {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  // Decodes the next complete frame into *out; false when the buffered bytes
  // do not yet hold a full frame.
  bool next(JournalRecord* out);
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix, reclaimed lazily
};

// Little-endian payload serializer. Append-only; the buffer becomes the
// record payload (after the type byte) handed to JournalWriter::append.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // raw IEEE-754 bits — bit-identical round trip
  void str(const std::string& v);         // u32 length + bytes
  void vec_f64(const std::vector<double>& v);  // u32 count + raw bits

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Mirror of PayloadWriter. Any short read throws JournalCorrupt — a record
// that passed its checksum but decodes short means a serializer bug or
// version mismatch, both corruption from the reader's point of view.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes.data()), size_(bytes.size()) {}
  PayloadReader(const std::uint8_t* bytes, std::size_t size)
      : bytes_(bytes), size_(size) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  std::vector<double> vec_f64();

  bool done() const noexcept { return pos_ == size_; }
  std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* bytes_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Appender. open() replays nothing itself — callers replay first, then open
// the writer with the replay's valid_bytes so a torn tail is truncated away
// before the first new append lands.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Opens `path` for appending at `valid_bytes` (from replay_journal),
  // truncating anything after it. Creates the file (and writes the magic)
  // when valid_bytes == 0 and the file is absent or was fully torn.
  void open(const std::string& path, std::uint64_t valid_bytes);

  // Frames, checksums, appends and flushes one record. Thread-compatible
  // only — the owning Campaign serializes appends under its own mutex.
  void append(std::uint8_t type, const std::vector<std::uint8_t>& payload);

  // Atomically replaces the journal with the given records: writes
  // `path.tmp`, flushes it, then renames over `path` and reopens for append.
  void compact(const std::vector<JournalRecord>& records);

  void close();
  bool is_open() const noexcept { return file_ != nullptr; }
  const std::string& path() const noexcept { return path_; }

 private:
  void flush_hard();

  std::FILE* file_ = nullptr;
  std::string path_;
};

// --- Test hook: deterministic journal crash injection (chaos layer). -------
// Arms a countdown: the Nth append after arming (1-based) writes a torn
// half-record, flushes it, and throws JournalCrash; every later append
// throws immediately (a dead process writes nothing). This simulates a hard
// kill at a record boundary for the kill-replay harness.
//
// JournalCrash deliberately derives from std::runtime_error but NOT
// lpsram::Error: sweep drivers quarantine `catch (const Error&)`, and an
// injected crash must blow through that and abort the whole run the way a
// real SIGKILL would.
class JournalCrash : public std::runtime_error {
 public:
  explicit JournalCrash(const std::string& what) : std::runtime_error(what) {}
};

class ScopedJournalCrash {
 public:
  explicit ScopedJournalCrash(std::uint64_t nth_append);
  ~ScopedJournalCrash();
  ScopedJournalCrash(const ScopedJournalCrash&) = delete;
  ScopedJournalCrash& operator=(const ScopedJournalCrash&) = delete;
};

// Clears any armed append/compaction crash. Forked fabric workers call this
// first thing in the child: the injection state is process-global and a
// coordinator-side ScopedJournalCrash must not leak into the children's
// shard journals across fork().
void disarm_journal_crash() noexcept;

// Compaction-specific kill points, between the three durability boundaries
// the rewrite crosses. At each point the on-disk state differs:
//   AfterTempWrite — `.tmp` holds the flushed snapshot, `path` still holds
//     the old generation (recovery replays the old file; open() removes the
//     stale `.tmp`).
//   AfterRename — `path` holds the new generation but the directory entry is
//     not yet fsync'd (recovery replays the new file — or, on a journaling
//     filesystem that lost the rename, the old one; never neither).
//   AfterDirFsync — fully durable, the writer just never reopened.
enum class CompactionCrashPoint : int {
  AfterTempWrite = 1,
  AfterRename = 2,
  AfterDirFsync = 3,
};

class ScopedCompactionCrash {
 public:
  explicit ScopedCompactionCrash(CompactionCrashPoint point);
  ~ScopedCompactionCrash();
  ScopedCompactionCrash(const ScopedCompactionCrash&) = delete;
  ScopedCompactionCrash& operator=(const ScopedCompactionCrash&) = delete;
};

}  // namespace lpsram
