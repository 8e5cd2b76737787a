#include "lpsram/runtime/journal.hpp"

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "lpsram/util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define LPSRAM_HAVE_FSYNC 1
#endif

namespace lpsram {
namespace {

// Table-driven CRC-32, generated once at first use (thread-safe via static
// initialization).
const std::uint32_t* crc32_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void write_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// Crash-injection state (see ScopedJournalCrash). 0 = disarmed. A positive
// value counts down per append; the append that decrements it to zero tears
// and throws; once `dead` is set every append throws.
std::atomic<std::uint64_t> g_crash_countdown{0};
std::atomic<bool> g_crash_dead{false};
// Compaction kill point (see ScopedCompactionCrash). 0 = disarmed.
std::atomic<int> g_compaction_crash{0};

void maybe_compaction_crash(CompactionCrashPoint point) {
  if (g_compaction_crash.load(std::memory_order_relaxed) ==
      static_cast<int>(point))
    throw JournalCrash("journal: compaction crash injected at stage " +
                       std::to_string(static_cast<int>(point)));
}

}  // namespace

void fsync_parent_dir(const std::string& path) noexcept {
#ifdef LPSRAM_HAVE_FSYNC
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best effort: an unreadable dir just skips the sync
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

std::uint32_t crc32_ieee(const std::uint8_t* data, std::size_t size) noexcept {
  const std::uint32_t* table = crc32_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// --- PayloadWriter / PayloadReader -----------------------------------------

void PayloadWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  write_le32(b, v);
  bytes_.insert(bytes_.end(), b, b + 4);
}

void PayloadWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void PayloadWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void PayloadWriter::str(const std::string& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  bytes_.insert(bytes_.end(), v.begin(), v.end());
}

void PayloadWriter::vec_f64(const std::vector<double>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (const double e : v) f64(e);
}

void PayloadReader::need(std::size_t n) const {
  if (size_ - pos_ < n)
    throw JournalCorrupt("journal payload: short read (need " +
                         std::to_string(n) + " bytes, have " +
                         std::to_string(size_ - pos_) + ")");
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t PayloadReader::u32() {
  need(4);
  const std::uint32_t v = read_le32(bytes_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string PayloadReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string v(reinterpret_cast<const char*>(bytes_ + pos_), n);
  pos_ += n;
  return v;
}

std::vector<double> PayloadReader::vec_f64() {
  const std::uint32_t n = u32();
  need(static_cast<std::size_t>(n) * 8);
  std::vector<double> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = f64();
  return v;
}

// --- Frame codec (shared by the on-disk journal and the fabric wire) -------

std::vector<std::uint8_t> encode_record_frame(std::uint8_t type,
                                              const std::uint8_t* payload,
                                              std::size_t size) {
  std::vector<std::uint8_t> frame(8 + 1 + size);
  const std::uint32_t length = static_cast<std::uint32_t>(1 + size);
  frame[8] = type;
  if (size != 0) std::memcpy(frame.data() + 9, payload, size);
  write_le32(frame.data(), length);
  write_le32(frame.data() + 4, crc32_ieee(frame.data() + 8, length));
  return frame;
}

void FrameParser::feed(const std::uint8_t* data, std::size_t size) {
  // Reclaim the consumed prefix once it dominates the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

bool FrameParser::next(JournalRecord* out) {
  const std::size_t have = buf_.size() - pos_;
  if (have < 8) return false;
  const std::uint8_t* frame = buf_.data() + pos_;
  const std::uint32_t length = read_le32(frame);
  const std::uint32_t crc = read_le32(frame + 4);
  if (length == 0 || length > kJournalMaxRecordBytes)
    throw JournalCorrupt("frame stream: impossible record length " +
                         std::to_string(length));
  if (have - 8 < length) return false;
  const std::uint8_t* body = frame + 8;
  if (crc32_ieee(body, length) != crc)
    throw JournalCorrupt("frame stream: checksum mismatch");
  out->type = body[0];
  out->payload.assign(body + 1, body + length);
  pos_ += 8 + length;
  return true;
}

// --- Replay ----------------------------------------------------------------

JournalReplay replay_journal(const std::string& path) {
  JournalReplay replay;

  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return replay;  // missing file: fresh campaign
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (bytes.empty()) return replay;

  // Magic. A file shorter than the magic can only be a torn creation —
  // accept it if it is a prefix of the magic, reject otherwise.
  if (bytes.size() < sizeof(kJournalMagic)) {
    if (std::memcmp(bytes.data(), kJournalMagic, bytes.size()) != 0)
      throw JournalCorrupt("journal '" + path + "': bad magic");
    replay.torn_tail = true;
    return replay;  // valid_bytes = 0: rewrite from scratch
  }
  if (std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0)
    throw JournalCorrupt("journal '" + path + "': bad magic");

  std::size_t pos = sizeof(kJournalMagic);
  replay.valid_bytes = pos;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < 8) {  // torn header
      replay.torn_tail = true;
      break;
    }
    const std::uint32_t length = read_le32(bytes.data() + pos);
    const std::uint32_t crc = read_le32(bytes.data() + pos + 4);
    if (length == 0 || length > kJournalMaxRecordBytes)
      throw JournalCorrupt("journal '" + path +
                           "': impossible record length " +
                           std::to_string(length) + " at offset " +
                           std::to_string(pos));
    if (remaining - 8 < length) {  // torn body
      replay.torn_tail = true;
      break;
    }
    const std::uint8_t* body = bytes.data() + pos + 8;
    if (crc32_ieee(body, length) != crc)
      throw JournalCorrupt("journal '" + path +
                           "': checksum mismatch at offset " +
                           std::to_string(pos));
    JournalRecord record;
    record.type = body[0];
    record.payload.assign(body + 1, body + length);
    replay.records.push_back(std::move(record));
    pos += 8 + length;
    replay.valid_bytes = pos;
  }
  return replay;
}

// --- JournalWriter ---------------------------------------------------------

void JournalWriter::flush_hard() {
  if (std::fflush(file_) != 0)
    throw JournalCorrupt("journal '" + path_ + "': flush failed");
#ifdef LPSRAM_HAVE_FSYNC
  if (::fsync(::fileno(file_)) != 0)
    throw JournalCorrupt("journal '" + path_ +
                         "': fsync failed: " + std::strerror(errno));
#endif
}

void JournalWriter::open(const std::string& path, std::uint64_t valid_bytes) {
  close();
  path_ = path;

  namespace fs = std::filesystem;
  std::error_code ec;
  // A stale compaction temp can only be the leftover of a crash between
  // write-temp and rename: the rename never happened, so it belongs to no
  // generation and is dead weight. Remove it before touching the journal.
  fs::remove(path + ".tmp", ec);
  const bool exists = fs::exists(path, ec);
  if (exists && valid_bytes > sizeof(kJournalMagic)) {
    // Resume: drop the torn tail (if any), append after the last intact
    // record.
    fs::resize_file(path, valid_bytes, ec);
    if (ec)
      throw JournalCorrupt("journal '" + path + "': truncate failed: " +
                           ec.message());
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_)
      throw JournalCorrupt("journal '" + path + "': open for append failed");
    return;
  }
  // Fresh file (or a file torn inside the magic): rewrite from scratch.
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_)
    throw JournalCorrupt("journal '" + path + "': create failed");
  if (std::fwrite(kJournalMagic, 1, sizeof(kJournalMagic), file_) !=
      sizeof(kJournalMagic))
    throw JournalCorrupt("journal '" + path + "': magic write failed");
  flush_hard();
  // Make the file's directory entry durable too: without this a crash right
  // after creation can lose the whole journal even though its first appends
  // were fsync'd.
  fsync_parent_dir(path);
}

void JournalWriter::append(std::uint8_t type,
                           const std::vector<std::uint8_t>& payload) {
  if (!file_) throw JournalCorrupt("journal: append on closed writer");

  const std::vector<std::uint8_t> frame =
      encode_record_frame(type, payload.data(), payload.size());

  // Crash injection (kill-replay harness): the armed append writes a torn
  // half-record — exercising the torn-tail replay path end to end — then
  // "kills the process"; later appends find the writer dead.
  if (g_crash_dead.load(std::memory_order_relaxed))
    throw JournalCrash("journal: process killed by ScopedJournalCrash");
  std::uint64_t count = g_crash_countdown.load(std::memory_order_relaxed);
  while (count > 0 && !g_crash_countdown.compare_exchange_weak(
                          count, count - 1, std::memory_order_relaxed)) {
  }
  if (count == 1) {
    g_crash_dead.store(true, std::memory_order_relaxed);
    const std::size_t torn = frame.size() / 2;
    std::fwrite(frame.data(), 1, torn, file_);
    flush_hard();
    throw JournalCrash("journal: crash injected at append (torn record)");
  }

  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size())
    throw JournalCorrupt("journal '" + path_ + "': append failed");
  flush_hard();
}

void JournalWriter::compact(const std::vector<JournalRecord>& records) {
  if (!file_) throw JournalCorrupt("journal: compact on closed writer");
  const std::string tmp = path_ + ".tmp";
  {
    JournalWriter snapshot;
    snapshot.open(tmp, 0);
    for (const JournalRecord& record : records)
      snapshot.append(record.type, record.payload);
    snapshot.close();
  }
  maybe_compaction_crash(CompactionCrashPoint::AfterTempWrite);
  close();
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec)
    throw JournalCorrupt("journal '" + path_ + "': compaction rename failed: " +
                         ec.message());
  maybe_compaction_crash(CompactionCrashPoint::AfterRename);
  // The renamed directory entry must reach disk before anyone relies on the
  // compacted generation: without this fsync a crash after the rename could
  // roll the directory back and lose the journal entirely (the temp is gone,
  // the old inode unlinked).
  fsync_parent_dir(path_);
  maybe_compaction_crash(CompactionCrashPoint::AfterDirFsync);
  file_ = std::fopen(path_.c_str(), "ab");
  if (!file_)
    throw JournalCorrupt("journal '" + path_ + "': reopen after compact failed");
}

void JournalWriter::close() {
  if (file_) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

// --- Crash injection -------------------------------------------------------

ScopedJournalCrash::ScopedJournalCrash(std::uint64_t nth_append) {
  g_crash_dead.store(false, std::memory_order_relaxed);
  g_crash_countdown.store(nth_append, std::memory_order_relaxed);
}

ScopedJournalCrash::~ScopedJournalCrash() {
  g_crash_countdown.store(0, std::memory_order_relaxed);
  g_crash_dead.store(false, std::memory_order_relaxed);
}

void disarm_journal_crash() noexcept {
  g_crash_countdown.store(0, std::memory_order_relaxed);
  g_crash_dead.store(false, std::memory_order_relaxed);
  g_compaction_crash.store(0, std::memory_order_relaxed);
}

ScopedCompactionCrash::ScopedCompactionCrash(CompactionCrashPoint point) {
  g_compaction_crash.store(static_cast<int>(point), std::memory_order_relaxed);
}

ScopedCompactionCrash::~ScopedCompactionCrash() {
  g_compaction_crash.store(0, std::memory_order_relaxed);
}

}  // namespace lpsram
