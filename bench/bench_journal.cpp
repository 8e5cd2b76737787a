// Journal throughput microbenchmark: append (the per-task durability cost a
// campaign pays while sweeping), replay (the resume cost), and compaction.
//
// The append path fsyncs every record by contract, so the append number is
// dominated by the storage stack, not the framing — which is the point: it
// bounds how much sweep throughput journaling can cost. The records are what
// a campaign writes: one task_done per task, its payload carrying telemetry.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "build_type_warning.hpp"
#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/journal.hpp"

using namespace lpsram;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<std::uint8_t> task_done_payload(std::uint64_t key) {
  PayloadWriter out;
  out.u64(key);
  out.u8(1);
  out.f64(1.234e6);
  out.u8(2);
  SolveTelemetry telemetry;
  telemetry.solves = 37;
  telemetry.cache_hits = 21;
  telemetry.cache_misses = 16;
  encode_telemetry(out, telemetry);
  return out.take();
}

}  // namespace

int main() {
  lpsram::bench::warn_if_debug_build();
  const std::string path =
      (std::filesystem::temp_directory_path() / "lpsram_bench.journal")
          .string();
  std::filesystem::remove(path);

  constexpr int kRecords = 1000;

  // Append: the campaign's record stream, every record flushed + fsync'd.
  std::uint64_t bytes = 0;
  {
    JournalWriter writer;
    writer.open(path, 0);
    const auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < kRecords; ++t) {
      const auto payload =
          task_done_payload(0x1000 + static_cast<std::uint64_t>(t));
      bytes += payload.size() + 9;
      writer.append(kRecordTaskDone, payload);
    }
    const double elapsed = seconds_since(start);
    std::printf("append : %6d records, %7.2f MB in %6.3f s  -> %8.0f rec/s, "
                "%6.1f MB/s (fsync per record)\n",
                kRecords, bytes / 1e6, elapsed, kRecords / elapsed,
                bytes / 1e6 / elapsed);
  }

  // Replay: full-file validation + decode, the fixed cost of a resume.
  {
    const auto start = std::chrono::steady_clock::now();
    const JournalReplay replay = replay_journal(path);
    const double elapsed = seconds_since(start);
    std::printf("replay : %6zu records, %7.2f MB in %6.3f s  -> %8.0f rec/s, "
                "%6.1f MB/s%s\n",
                replay.records.size(), replay.valid_bytes / 1e6, elapsed,
                replay.records.size() / elapsed,
                replay.valid_bytes / 1e6 / elapsed,
                replay.torn_tail ? " (torn tail)" : "");
  }

  // Compaction: atomic snapshot rewrite of the whole record set.
  {
    const JournalReplay replay = replay_journal(path);
    JournalWriter writer;
    writer.open(path, replay.valid_bytes);
    const auto start = std::chrono::steady_clock::now();
    writer.compact(replay.records);
    const double elapsed = seconds_since(start);
    std::printf("compact: %6zu records rewritten in %6.3f s\n",
                replay.records.size(), elapsed);
  }

  std::filesystem::remove(path);
  return 0;
}
