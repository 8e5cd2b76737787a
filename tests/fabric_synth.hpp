// The synthetic sweep both fabric suites run — test_fabric.cpp on the forked
// fleet, test_fabric_net.cpp on TCP workers. Payloads are pure functions of
// the task index, so any schedule across any fleet must merge byte-identically
// to the single-process golden journal written here.
//
// Journals go under ./fabric-journals/ so CI can pick them up as an artifact
// (and decode them with tools/fabric_inspect.py) when a matrix assertion
// fails.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/fabric/lease_core.hpp"
#include "lpsram/runtime/journal.hpp"
#include "lpsram/runtime/parallel.hpp"

namespace lpsram::fabric_synth {

inline constexpr std::uint64_t kSeed = 0x5eedULL;

// Fresh per-test directory under the CI-artifact root.
inline std::string fabric_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path("fabric-journals") / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

inline std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

inline std::uint64_t synth_key(std::uint64_t index) {
  return fold_key(kSeed, index);
}

inline std::vector<std::uint8_t> synth_payload(std::uint64_t index) {
  double acc = 0.0;
  std::uint64_t h = fold_key(kSeed, index);
  for (int i = 0; i < 256; ++i) {
    h = mix64(h);
    acc += static_cast<double>(h >> 11) * 0x1.0p-53;
  }
  PayloadWriter w;
  w.u64(index);
  w.f64(acc);
  return w.take();
}

// Sweep manifest and lease timing fast enough for the kill matrices.
inline void set_synth_sweep(fabric::FabricSweepOptions& options) {
  options.lease_span = 2;
  options.lease_timeout_s = 5.0;
  options.heartbeat_interval_s = 0.05;
  options.backoff_initial_s = 0.02;
  options.backoff_max_s = 0.2;
  options.salt = mix64(kSeed);
  options.fingerprint = fold_key(kSeed, 0xF00D);
}

// What an uninterrupted single-process campaign of the same sweep writes:
// the byte-for-byte target for every merged journal.
inline std::string write_golden(const std::string& dir, std::uint64_t salt,
                                std::uint64_t fingerprint,
                                std::uint64_t count) {
  const std::string path = dir + "/golden.journal";
  std::filesystem::remove(path);
  Campaign golden(path);
  golden.bind_sweep(salt, fingerprint);
  for (std::uint64_t i = 0; i < count; ++i)
    golden.record_result(synth_key(i), synth_payload(i));
  return path;
}

inline void expect_merged_matches_golden(
    const fabric::FabricSweepOptions& options, std::uint64_t count) {
  const std::string golden =
      write_golden(options.dir, options.salt, options.fingerprint, count);
  EXPECT_EQ(read_file_bytes(options.merged_path()), read_file_bytes(golden))
      << options.merged_path() << " differs from the single-process golden";
}

}  // namespace lpsram::fabric_synth
