// Journal durability suite: record framing, checksum validation, the
// torn-tail truncation rule, a failed fsync, crash injection and snapshot
// compaction.
//
// The property tests are the heart of it: a recorded journal truncated at
// EVERY byte offset must replay to exactly the records whose frames fully
// fit (a torn tail is silently dropped, a completed interior record never
// is), and a byte flipped at any offset must either surface as
// JournalCorrupt or degrade to a clean prefix — replay never crashes and
// never fabricates records.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/journal.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram {
namespace {

namespace fs = std::filesystem;

// Fresh path under the system temp dir, removed on destruction.
class TempJournal {
 public:
  explicit TempJournal(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove(path_);
  }
  ~TempJournal() {
    std::error_code ec;
    fs::remove(path_, ec);
    fs::remove(path_ + ".tmp", ec);
  }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!b.empty())
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

// A journal with a representative record mix: empty payload, strings,
// doubles with awkward bit patterns, a large-ish vector.
std::vector<JournalRecord> sample_records() {
  std::vector<JournalRecord> records;
  records.push_back({1, {}});
  PayloadWriter a;
  a.u64(0xdeadbeefcafef00dULL);
  a.str("Df16 x CS1 @ fs, 1.0V, 125C");
  records.push_back({2, a.take()});
  PayloadWriter b;
  b.f64(-0.0);
  b.f64(5e-324);  // smallest denormal
  b.f64(1.0 / 3.0);
  b.vec_f64({1.25, -2.5e9, 3.333333333333333});
  records.push_back({3, b.take()});
  PayloadWriter c;
  for (int i = 0; i < 64; ++i) c.u32(static_cast<std::uint32_t>(i * i));
  records.push_back({2, c.take()});
  return records;
}

void append_all(JournalWriter& writer, const std::vector<JournalRecord>& rs) {
  for (const JournalRecord& r : rs) writer.append(r.type, r.payload);
}

bool same_records(const std::vector<JournalRecord>& a,
                  const std::vector<JournalRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].type != b[i].type || a[i].payload != b[i].payload) return false;
  return true;
}

// End offset of each record's frame in the file (after the 8-byte magic).
std::vector<std::size_t> frame_ends(const std::vector<JournalRecord>& rs) {
  std::vector<std::size_t> ends;
  std::size_t pos = sizeof(kJournalMagic);
  for (const JournalRecord& r : rs) {
    pos += 8 + 1 + r.payload.size();
    ends.push_back(pos);
  }
  return ends;
}

// ---------- payload serialization -------------------------------------------

TEST(Payload, RoundTripsEveryFieldBitIdentically) {
  PayloadWriter out;
  out.u8(0xAB);
  out.u32(0xFFFFFFFFu);
  out.u64(0x0123456789ABCDEFULL);
  out.f64(-0.0);
  out.f64(1.0 / 3.0);
  out.str("");
  out.str("worst node VREG");
  out.vec_f64({});
  out.vec_f64({5e-324, 1e308, -1.5});

  PayloadReader in(out.bytes());
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xFFFFFFFFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFULL);
  const double neg_zero = in.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(in.f64(), 1.0 / 3.0);  // exact: raw bits round trip
  EXPECT_EQ(in.str(), "");
  EXPECT_EQ(in.str(), "worst node VREG");
  EXPECT_TRUE(in.vec_f64().empty());
  EXPECT_EQ(in.vec_f64(), (std::vector<double>{5e-324, 1e308, -1.5}));
  EXPECT_TRUE(in.done());
}

TEST(Payload, ShortReadThrowsJournalCorrupt) {
  PayloadWriter out;
  out.u32(7);
  PayloadReader in(out.bytes());
  EXPECT_EQ(in.u32(), 7u);
  EXPECT_THROW(in.u8(), JournalCorrupt);
  // A string whose length prefix exceeds the remaining bytes is corrupt, not
  // a buffer over-read.
  PayloadWriter lying;
  lying.u32(1000);
  PayloadReader in2(lying.bytes());
  EXPECT_THROW(in2.str(), JournalCorrupt);
}

TEST(Payload, Crc32MatchesKnownVector) {
  // zlib's crc32("123456789") — the canonical IEEE check value, shared with
  // tools/journal_inspect.py.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32_ieee(digits, sizeof(digits)), 0xCBF43926u);
}

// ---------- append / replay -------------------------------------------------

TEST(Journal, AppendReplayRoundTrip) {
  const TempJournal tmp("lpsram_journal_roundtrip.journal");
  const std::vector<JournalRecord> records = sample_records();
  {
    JournalWriter writer;
    writer.open(tmp.path(), 0);
    append_all(writer, records);
  }
  const JournalReplay replay = replay_journal(tmp.path());
  EXPECT_TRUE(same_records(replay.records, records));
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, fs::file_size(tmp.path()));
}

TEST(Journal, MissingFileReplaysAsFreshCampaign) {
  const TempJournal tmp("lpsram_journal_missing.journal");
  const JournalReplay replay = replay_journal(tmp.path());
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
  EXPECT_FALSE(replay.torn_tail);
}

TEST(Journal, ResumeAppendsAfterLastIntactRecord) {
  const TempJournal tmp("lpsram_journal_resume.journal");
  const std::vector<JournalRecord> records = sample_records();
  {
    JournalWriter writer;
    writer.open(tmp.path(), 0);
    append_all(writer, records);
  }
  // Tear the tail by hand: drop half of the final record's frame.
  std::vector<std::uint8_t> bytes = file_bytes(tmp.path());
  const std::vector<std::size_t> ends = frame_ends(records);
  const std::size_t torn_size = ends[ends.size() - 2] +
                                (ends.back() - ends[ends.size() - 2]) / 2;
  bytes.resize(torn_size);
  write_bytes(tmp.path(), bytes);

  JournalReplay replay = replay_journal(tmp.path());
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.records.size(), records.size() - 1);
  EXPECT_EQ(replay.valid_bytes, ends[ends.size() - 2]);

  // Reopen for append at valid_bytes: the torn bytes vanish, the re-appended
  // record completes the original sequence.
  {
    JournalWriter writer;
    writer.open(tmp.path(), replay.valid_bytes);
    writer.append(records.back().type, records.back().payload);
  }
  replay = replay_journal(tmp.path());
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_TRUE(same_records(replay.records, records));
}

// An append returns only once its record is durable, so an fsync that fails
// must throw rather than pass for success. fsync on /dev/null fails with
// EINVAL on Linux, which makes it a failing disk that is always at hand.
TEST(Journal, FailedFsyncThrowsJournalCorrupt) {
#ifdef __linux__
  const auto expect_fsync_failure = [](const auto& body) {
    try {
      body();
      FAIL() << "expected JournalCorrupt from the failed fsync";
    } catch (const JournalCorrupt& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("/dev/null"), std::string::npos) << what;
      EXPECT_NE(what.find("fsync failed"), std::string::npos) << what;
    }
  };
  expect_fsync_failure([] {
    JournalWriter writer;
    writer.open("/dev/null", 0);
  });
  expect_fsync_failure([] { Campaign campaign("/dev/null"); });
#else
  GTEST_SKIP() << "relies on fsync(/dev/null) failing, as it does on Linux";
#endif
}

// ---------- the truncation property ----------------------------------------

TEST(JournalProperty, TruncationAtEveryByteOffsetReplaysCleanPrefix) {
  const TempJournal tmp("lpsram_journal_truncate.journal");
  const TempJournal cut("lpsram_journal_truncate_cut.journal");
  const std::vector<JournalRecord> records = sample_records();
  {
    JournalWriter writer;
    writer.open(tmp.path(), 0);
    append_all(writer, records);
  }
  const std::vector<std::uint8_t> bytes = file_bytes(tmp.path());
  const std::vector<std::size_t> ends = frame_ends(records);

  for (std::size_t size = 0; size <= bytes.size(); ++size) {
    SCOPED_TRACE("truncated to " + std::to_string(size) + " bytes");
    write_bytes(cut.path(),
                std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + size));

    // Pure truncation is exactly what a crash leaves behind: replay must
    // never throw, and must return exactly the records whose frames fully
    // fit — no completed interior record is ever dropped.
    JournalReplay replay;
    ASSERT_NO_THROW(replay = replay_journal(cut.path()));

    std::size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= size) ++expected;
    ASSERT_EQ(replay.records.size(), expected);
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(replay.records[i].type, records[i].type);
      EXPECT_EQ(replay.records[i].payload, records[i].payload);
    }
    // valid_bytes points at the end of the last intact frame, so a resumed
    // writer truncates exactly the torn part.
    const std::size_t valid = expected == 0
                                  ? (size >= sizeof(kJournalMagic)
                                         ? sizeof(kJournalMagic)
                                         : 0)
                                  : ends[expected - 1];
    EXPECT_EQ(replay.valid_bytes, valid);
    const bool torn = size > 0 && size != valid &&
                      !(expected == ends.size() && size == bytes.size());
    EXPECT_EQ(replay.torn_tail, torn);
  }
}

TEST(JournalProperty, ByteFlipAtEveryOffsetNeverCrashesNorFabricates) {
  const TempJournal tmp("lpsram_journal_flip.journal");
  const TempJournal hit("lpsram_journal_flip_hit.journal");
  const std::vector<JournalRecord> records = sample_records();
  {
    JournalWriter writer;
    writer.open(tmp.path(), 0);
    append_all(writer, records);
  }
  const std::vector<std::uint8_t> bytes = file_bytes(tmp.path());
  const std::vector<std::size_t> ends = frame_ends(records);

  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    SCOPED_TRACE("flipped byte at offset " + std::to_string(offset));
    std::vector<std::uint8_t> damaged = bytes;
    damaged[offset] ^= 0x5A;
    write_bytes(hit.path(), damaged);

    // Whatever the flip hit — magic, length, checksum, type, payload — the
    // outcome is either a typed JournalCorrupt or a clean replay of a
    // PREFIX of the original records (a corrupted length can masquerade as
    // a torn tail, which is indistinguishable from a real one by
    // construction). Fabricated or altered records are never returned.
    try {
      const JournalReplay replay = replay_journal(hit.path());
      ASSERT_LE(replay.records.size(), records.size());
      for (std::size_t i = 0; i < replay.records.size(); ++i) {
        EXPECT_EQ(replay.records[i].type, records[i].type);
        EXPECT_EQ(replay.records[i].payload, records[i].payload);
      }
    } catch (const JournalCorrupt&) {
      // Typed rejection is the other legal outcome.
    }
  }

  // Flips inside an INTERIOR record's checksummed frame body specifically
  // must be caught as corruption (never silently skipped): the interior
  // records' bytes are covered by their CRC.
  for (std::size_t offset = sizeof(kJournalMagic) + 8; offset < ends[0];
       ++offset) {
    std::vector<std::uint8_t> damaged = bytes;
    damaged[offset] ^= 0xFF;
    write_bytes(hit.path(), damaged);
    SCOPED_TRACE("interior body flip at offset " + std::to_string(offset));
    EXPECT_THROW(replay_journal(hit.path()), JournalCorrupt);
  }
}

TEST(Journal, BadMagicIsCorrupt) {
  const TempJournal tmp("lpsram_journal_magic.journal");
  write_bytes(tmp.path(), {'N', 'O', 'T', 'A', 'J', 'R', 'N', 'L', 0, 0});
  EXPECT_THROW(replay_journal(tmp.path()), JournalCorrupt);
}

TEST(Journal, ZeroOrHugeLengthIsCorruptNotAllocation) {
  const TempJournal tmp("lpsram_journal_length.journal");
  {
    JournalWriter writer;
    writer.open(tmp.path(), 0);
    writer.append(1, {1, 2, 3});
  }
  std::vector<std::uint8_t> bytes = file_bytes(tmp.path());
  // Zero length field.
  bytes[sizeof(kJournalMagic)] = 0;
  bytes[sizeof(kJournalMagic) + 1] = 0;
  bytes[sizeof(kJournalMagic) + 2] = 0;
  bytes[sizeof(kJournalMagic) + 3] = 0;
  write_bytes(tmp.path(), bytes);
  EXPECT_THROW(replay_journal(tmp.path()), JournalCorrupt);
  // A length beyond the sanity cap must be rejected up front, not passed to
  // an allocator.
  bytes[sizeof(kJournalMagic) + 3] = 0xFF;  // ~4 GB
  write_bytes(tmp.path(), bytes);
  EXPECT_THROW(replay_journal(tmp.path()), JournalCorrupt);
}

// ---------- the wire codec under fuzz (FrameParser) -------------------------
//
// The same framing travels the fabric's sockets, where "torn tail" semantics
// do not apply: on a reliable stream a bad frame means a framing bug or a
// trashed peer, so every damaged input must yield a typed JournalCorrupt or
// an incomplete-frame stall — never a fabricated record, an unbounded
// allocation, or a hang.

std::vector<std::uint8_t> wire_stream(const std::vector<JournalRecord>& records,
                                      std::vector<std::size_t>* ends) {
  std::vector<std::uint8_t> stream;
  for (const JournalRecord& r : records) {
    const std::vector<std::uint8_t> frame =
        encode_record_frame(r.type, r.payload.data(), r.payload.size());
    stream.insert(stream.end(), frame.begin(), frame.end());
    if (ends != nullptr) ends->push_back(stream.size());
  }
  return stream;
}

TEST(FrameParserProperty, EveryPrefixYieldsExactlyTheCompleteFrames) {
  const std::vector<JournalRecord> records = sample_records();
  std::vector<std::size_t> ends;
  const std::vector<std::uint8_t> stream = wire_stream(records, &ends);

  for (std::size_t size = 0; size <= stream.size(); ++size) {
    SCOPED_TRACE("prefix of " + std::to_string(size) + " bytes");
    FrameParser parser;
    parser.feed(stream.data(), size);
    std::vector<JournalRecord> got;
    JournalRecord record;
    while (parser.next(&record)) got.push_back(record);

    std::size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= size) ++expected;
    ASSERT_EQ(got.size(), expected);
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(got[i].type, records[i].type);
      EXPECT_EQ(got[i].payload, records[i].payload);
    }
    // Whatever did not frame stays buffered — nothing is silently eaten.
    const std::size_t consumed = expected == 0 ? 0 : ends[expected - 1];
    EXPECT_EQ(parser.buffered(), size - consumed);
  }
}

TEST(FrameParserProperty, SingleByteFeedingMatchesBulkFeeding) {
  const std::vector<JournalRecord> records = sample_records();
  const std::vector<std::uint8_t> stream = wire_stream(records, nullptr);

  FrameParser parser;
  std::vector<JournalRecord> got;
  JournalRecord record;
  for (const std::uint8_t byte : stream) {
    parser.feed(&byte, 1);
    while (parser.next(&record)) got.push_back(record);
  }
  ASSERT_EQ(got.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(got[i].type, records[i].type);
    EXPECT_EQ(got[i].payload, records[i].payload);
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParserProperty, BitFlipAtEveryOffsetThrowsTypedOrYieldsPrefix) {
  const std::vector<JournalRecord> records = sample_records();
  const std::vector<std::uint8_t> stream = wire_stream(records, nullptr);

  for (std::size_t offset = 0; offset < stream.size(); ++offset) {
    SCOPED_TRACE("flipped byte at offset " + std::to_string(offset));
    std::vector<std::uint8_t> damaged = stream;
    damaged[offset] ^= 0x5A;

    FrameParser parser;
    parser.feed(damaged.data(), damaged.size());
    std::vector<JournalRecord> got;
    try {
      JournalRecord record;
      while (parser.next(&record)) got.push_back(record);
    } catch (const JournalCorrupt&) {
      // Typed rejection — the legal outcome for any CRC-covered damage.
    }
    // Whatever was decoded before the damage must be an unaltered prefix:
    // a flip can stall the stream (length grew) or kill it (CRC), but it
    // can never fabricate or mutate a record.
    ASSERT_LE(got.size(), records.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, records[i].type);
      EXPECT_EQ(got[i].payload, records[i].payload);
    }
  }
}

TEST(FrameParserProperty, InflatedLengthFieldIsRejectedNotAllocated) {
  // A hostile length prefix must be refused the moment the header is
  // readable — long before `length` bytes arrive, and without ever sizing a
  // buffer from it.
  const auto reject = [](std::uint32_t length) {
    std::uint8_t header[8] = {};
    for (int i = 0; i < 4; ++i)
      header[i] = static_cast<std::uint8_t>(length >> (8 * i));
    FrameParser parser;
    parser.feed(header, sizeof(header));
    JournalRecord record;
    EXPECT_THROW(parser.next(&record), JournalCorrupt) << length;
  };
  reject(0);                              // zero-length frame
  reject(kJournalMaxRecordBytes + 1);     // just past the sanity cap
  reject(0xFFFFFFF0u);                    // ~4 GB — an allocation bomb
  reject(0xFFFFFFFFu);

  // At the cap itself the parser must simply wait for more bytes.
  std::uint8_t header[8] = {};
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<std::uint8_t>(kJournalMaxRecordBytes >> (8 * i));
  FrameParser parser;
  parser.feed(header, sizeof(header));
  JournalRecord record;
  EXPECT_FALSE(parser.next(&record));
  EXPECT_EQ(parser.buffered(), sizeof(header));
}

// ---------- compaction ------------------------------------------------------

TEST(Journal, CompactionRewritesAtomicallyAndStaysAppendable) {
  const TempJournal tmp("lpsram_journal_compact.journal");
  const std::vector<JournalRecord> records = sample_records();
  JournalWriter writer;
  writer.open(tmp.path(), 0);
  append_all(writer, records);

  // Compact down to the last two records (a snapshot drops superseded ones).
  const std::vector<JournalRecord> snapshot(records.end() - 2, records.end());
  writer.compact(snapshot);
  EXPECT_FALSE(fs::exists(tmp.path() + ".tmp"));

  JournalReplay replay = replay_journal(tmp.path());
  EXPECT_TRUE(same_records(replay.records, snapshot));

  // The writer reopened for append: new records land after the snapshot.
  writer.append(9, {42});
  writer.close();
  replay = replay_journal(tmp.path());
  ASSERT_EQ(replay.records.size(), snapshot.size() + 1);
  EXPECT_EQ(replay.records.back().type, 9);
  EXPECT_EQ(replay.records.back().payload, std::vector<std::uint8_t>{42});
}

// ---------- crash injection -------------------------------------------------

TEST(JournalCrashInjection, NthAppendTearsAndLaterAppendsFindDeadProcess) {
  const TempJournal tmp("lpsram_journal_crash.journal");
  const std::vector<JournalRecord> records = sample_records();
  {
    JournalWriter writer;
    writer.open(tmp.path(), 0);
    const ScopedJournalCrash crash(/*nth_append=*/3);
    writer.append(records[0].type, records[0].payload);
    writer.append(records[1].type, records[1].payload);
    EXPECT_THROW(writer.append(records[2].type, records[2].payload),
                 JournalCrash);
    // A dead process writes nothing more.
    EXPECT_THROW(writer.append(records[3].type, records[3].payload),
                 JournalCrash);
  }
  // The torn half-record replays away; the two completed appends survive.
  const JournalReplay replay = replay_journal(tmp.path());
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].payload, records[0].payload);
  EXPECT_EQ(replay.records[1].payload, records[1].payload);
}

TEST(JournalCrashInjection, DisarmsOnScopeExit) {
  const TempJournal tmp("lpsram_journal_crash_scope.journal");
  JournalWriter writer;
  writer.open(tmp.path(), 0);
  {
    const ScopedJournalCrash crash(1);
    EXPECT_THROW(writer.append(1, {}), JournalCrash);
  }
  EXPECT_NO_THROW(writer.append(1, {}));
}

// Compaction crosses three durability boundaries (temp written, renamed,
// directory fsync'd). A kill at any of them must leave a journal that
// replays to exactly the OLD generation or exactly the NEW one — never a
// mix, never neither — and that reopens cleanly for append.
TEST(JournalCompactionCrash, OldOrNewGenerationNeverNeither) {
  const std::vector<JournalRecord> records = sample_records();
  const std::vector<JournalRecord> snapshot(records.end() - 2, records.end());
  for (const CompactionCrashPoint point :
       {CompactionCrashPoint::AfterTempWrite, CompactionCrashPoint::AfterRename,
        CompactionCrashPoint::AfterDirFsync}) {
    const TempJournal tmp("lpsram_compact_crash_" +
                          std::to_string(static_cast<int>(point)) +
                          ".journal");
    {
      JournalWriter writer;
      writer.open(tmp.path(), 0);
      append_all(writer, records);
      const ScopedCompactionCrash crash(point);
      EXPECT_THROW(writer.compact(snapshot), JournalCrash);
    }  // the writer's process "dies" here

    const JournalReplay replay = replay_journal(tmp.path());
    EXPECT_FALSE(replay.torn_tail);
    const bool is_old = same_records(replay.records, records);
    const bool is_new = same_records(replay.records, snapshot);
    EXPECT_TRUE(is_old || is_new)
        << "stage " << static_cast<int>(point)
        << " left a journal that is neither generation";
    if (point == CompactionCrashPoint::AfterTempWrite) {
      // The rename never happened: old generation on disk, snapshot
      // stranded in the temp file.
      EXPECT_TRUE(is_old);
      EXPECT_TRUE(fs::exists(tmp.path() + ".tmp"));
    } else {
      EXPECT_TRUE(is_new);
    }

    // Recovery path: reopen for append — any stale temp is swept away and
    // the surviving generation keeps accepting records.
    JournalWriter writer;
    writer.open(tmp.path(), replay.valid_bytes);
    writer.append(9, {42});
    writer.close();
    EXPECT_FALSE(fs::exists(tmp.path() + ".tmp"));
    const JournalReplay after = replay_journal(tmp.path());
    ASSERT_EQ(after.records.size(), replay.records.size() + 1);
    EXPECT_EQ(after.records.back().type, 9);
  }
}

// JournalCrash deliberately bypasses the Error taxonomy: quarantine loops
// catch Error, and an injected kill must abort the sweep like a real one.
TEST(JournalCrashInjection, CrashIsNotAQuarantinableError) {
  const bool is_error = std::is_base_of_v<Error, JournalCrash>;
  EXPECT_FALSE(is_error);
  EXPECT_TRUE((std::is_base_of_v<std::runtime_error, JournalCrash>));
  EXPECT_TRUE((std::is_base_of_v<Error, JournalCorrupt>));
}

}  // namespace
}  // namespace lpsram
