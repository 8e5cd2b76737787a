// Durable-campaign suite: the kill-replay harness (crash a journaled sweep
// at record boundaries with injected journal kills, resume it, and demand
// final tables bit-identical to the uninterrupted run — at 1 and 8 threads,
// under chaos fault injection), manifest mismatch refusal, resume of a
// journal that still holds legacy operating-point records, and cooperative
// cancellation through the solve stack.
//
// Journals are written under ./campaign-journals/ so CI can pick them up as
// an artifact (and run tools/journal_inspect.py over them) when a
// kill-replay assertion fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "lpsram/core/retention_analyzer.hpp"
#include "lpsram/regulator/characterize.hpp"
#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/chaos.hpp"
#include "lpsram/runtime/journal.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/runtime/retry_ladder.hpp"
#include "lpsram/runtime/sweep.hpp"
#include "lpsram/spice/netlist.hpp"
#include "lpsram/stats/drv_surrogate.hpp"
#include "lpsram/stats/yield/engine.hpp"
#include "lpsram/testflow/defect_characterization.hpp"
#include "lpsram/testflow/flow_optimizer.hpp"
#include "lpsram/util/cancel.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"

namespace lpsram {
namespace {

namespace fs = std::filesystem;

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

// Journal path under the CI-artifact directory; any stale file is removed so
// each test (and each kill-replay boundary) starts from a fresh campaign.
std::string journal_path(const std::string& name) {
  const fs::path dir = "campaign-journals";
  fs::create_directories(dir);
  const fs::path path = dir / name;
  fs::remove(path);
  return path.string();
}

// ---------- Campaign unit behaviour -----------------------------------------

TEST(Campaign, ResultsPersistAcrossReopen) {
  const std::string path = journal_path("unit_results.journal");
  {
    Campaign campaign(path);
    EXPECT_EQ(campaign.completed_tasks(), 0u);
    EXPECT_EQ(campaign.find_result(42), nullptr);
    campaign.record_result(42, {1, 2, 3});
    campaign.record_result(7, {9});
  }
  Campaign campaign(path);
  EXPECT_EQ(campaign.completed_tasks(), 2u);
  ASSERT_NE(campaign.find_result(42), nullptr);
  EXPECT_EQ(*campaign.find_result(42), (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_NE(campaign.find_result(7), nullptr);
  EXPECT_EQ(campaign.find_result(1), nullptr);
  EXPECT_FALSE(campaign.resumed_from_torn_tail());
}

TEST(Campaign, ManifestMismatchIsRefused) {
  const std::string path = journal_path("unit_manifest.journal");
  {
    Campaign campaign(path);
    campaign.bind_sweep(/*salt=*/0xABCULL, /*fingerprint=*/111);
    // Re-binding the same configuration is idempotent.
    EXPECT_NO_THROW(campaign.bind_sweep(0xABCULL, 111));
    // A second sweep under a different salt coexists.
    EXPECT_NO_THROW(campaign.bind_sweep(0xDEFULL, 222));
  }
  Campaign campaign(path);
  EXPECT_NO_THROW(campaign.bind_sweep(0xABCULL, 111));
  EXPECT_THROW(campaign.bind_sweep(0xABCULL, 999), InvalidArgument);
}

TEST(Campaign, CompactionPreservesResultsAndManifests) {
  const std::string path = journal_path("unit_compact.journal");
  {
    Campaign campaign(path);
    campaign.bind_sweep(0xABCULL, 111);
    campaign.record_result(100, {1});
    campaign.record_result(100, {2});  // superseded: compaction keeps last
    campaign.record_result(200, {3});
    campaign.compact();
  }
  // The compacted journal must replay to the same campaign state.
  Campaign campaign(path);
  EXPECT_EQ(campaign.completed_tasks(), 2u);
  ASSERT_NE(campaign.find_result(100), nullptr);
  EXPECT_EQ(*campaign.find_result(100), std::vector<std::uint8_t>{2});
  EXPECT_NO_THROW(campaign.bind_sweep(0xABCULL, 111));
}

// ---------- kill-replay harness ---------------------------------------------

// The Table II slice used throughout: 2 defects x CS1 x 2 PVT points, the
// same reduced grid as the thread-determinism suite, under the same chaos
// mixture (some first attempts and some retries sabotaged) so quarantined
// points flow through the journal codec too.
DefectCharacterizationOptions slice_options(int threads, Campaign* campaign) {
  DefectCharacterizationOptions o;
  o.pvt = {PvtPoint{Corner::FastNSlowP, 1.0, 125.0},
           PvtPoint{Corner::Typical, 1.1, 125.0}};
  o.rel_tolerance = 1.10;
  o.threads = threads;
  o.campaign = campaign;
  return o;
}

// Deterministic fingerprint of everything a Table II cell asserts (mirrors
// the thread-determinism suite in test_parallel.cpp).
struct CellFingerprint {
  double min_resistance;
  bool open_only;
  Corner worst_corner;
  double worst_vdd;
  double worst_temp;
  VrefLevel vref;
  std::size_t attempted;
  std::size_t completed;
  std::vector<std::string> quarantined;
  std::uint64_t solves;
  std::uint64_t failures;
  std::uint64_t cache_hits;
  std::uint64_t cache_misses;

  bool operator==(const CellFingerprint&) const = default;
};

CellFingerprint fingerprint(const DefectCsResult& result) {
  CellFingerprint fp;
  fp.min_resistance = result.min_resistance;  // compared bit-for-bit via ==
  fp.open_only = result.open_only;
  fp.worst_corner = result.worst_pvt.corner;
  fp.worst_vdd = result.worst_pvt.vdd;
  fp.worst_temp = result.worst_pvt.temp_c;
  fp.vref = result.vref_at_worst;
  fp.attempted = result.sweep.attempted();
  fp.completed = result.sweep.completed();
  for (const QuarantinedPoint& q : result.sweep.quarantined())
    fp.quarantined.push_back(q.context + " :: " + q.error_type);
  fp.solves = result.telemetry.solves.solves;
  fp.failures = result.telemetry.solves.failures;
  fp.cache_hits = result.telemetry.solves.cache_hits;
  fp.cache_misses = result.telemetry.solves.cache_misses;
  return fp;
}

ChaosPolicy slice_chaos_policy() {
  ChaosPolicy policy;
  policy.seed = 11;
  policy.first_attempt_failure_rate = 0.35;
  policy.retry_failure_rate = 0.10;
  return policy;
}

// Runs the slice (optionally journaled) and returns the cell fingerprints.
// Chaos sabotage is a pure function of (seed, task key), so every run —
// straight, interrupted or resumed — sees the same per-task fault pattern.
std::vector<CellFingerprint> run_slice(int threads, Campaign* campaign) {
  ChaosEngine chaos(slice_chaos_policy());
  const ChaosScope scope(chaos);
  const DefectCharacterizer ch(tech(), slice_options(threads, campaign));
  const std::vector<DefectId> defects = {16, 19};
  const std::vector<CaseStudy> cs = {case_study(1, true)};
  const auto rows = ch.table(defects, cs);
  std::vector<CellFingerprint> fps;
  for (const auto& row : rows)
    for (const DefectCsResult& cell : row) fps.push_back(fingerprint(cell));
  return fps;
}

// Number of records in the journal file right now (== appends survived).
std::size_t journal_record_count(const std::string& path) {
  return replay_journal(path).records.size();
}

// Kills the slice at the `boundary`-th journal append, then resumes it from
// the torn journal; returns the resumed run's fingerprints. `killed` reports
// whether the injected crash actually fired (false once the boundary lies
// beyond the run's total appends).
std::vector<CellFingerprint> kill_and_resume(const std::string& path,
                                             int threads,
                                             std::uint64_t boundary,
                                             bool* killed) {
  fs::remove(path);
  {
    Campaign campaign(path);
    const ScopedJournalCrash crash(boundary);
    try {
      run_slice(threads, &campaign);
      *killed = false;  // boundary beyond the run's append count
    } catch (const JournalCrash&) {
      *killed = true;
    }
  }
  // The "restarted process": a fresh Campaign replays the torn journal and
  // the same sweep runs again on top of it.
  Campaign campaign(path);
  return run_slice(threads, &campaign);
}

// Kills the slice at every journal append in turn, resuming each time, until
// a run completes crash-free; returns that first crash-free boundary.
std::uint64_t kill_at_every_boundary(
    const std::string& path, int threads,
    const std::vector<CellFingerprint>& golden) {
  bool killed = true;
  std::uint64_t boundary = 1;
  for (; killed; ++boundary) {
    SCOPED_TRACE(std::to_string(threads) + " threads, killed at append " +
                 std::to_string(boundary));
    EXPECT_EQ(kill_and_resume(path, threads, boundary, &killed), golden);
  }
  return boundary - 1;
}

TEST(KillReplay, EveryRecordBoundarySingleThreaded) {
  const auto golden = run_slice(1, nullptr);
  const std::string path = journal_path("killreplay_t1.journal");

  // The journal is manifest + one TaskDone per (defect x CS x PVT) task —
  // each task's operating-point chain dies with the task, unjournaled — so
  // few enough records to kill at EVERY boundary (and one past the end,
  // proving the harness also passes crash-free). The slice is 4 tasks:
  // manifest + 4 TaskDone records = 5 appends, so the first crash-free
  // boundary is 6. Guards against the harness silently degenerating (e.g.
  // journaling nothing and "resuming" by recomputing).
  EXPECT_EQ(kill_at_every_boundary(path, 1, golden), 6u);
  EXPECT_EQ(journal_record_count(path), 5u);
}

TEST(KillReplay, EveryRecordBoundaryEightThreads) {
  const auto golden = run_slice(1, nullptr);
  const std::string path = journal_path("killreplay_t8.journal");
  // Which tasks survive the kill is scheduling-dependent at 8 threads; the
  // resumed tables must be bit-identical regardless.
  EXPECT_EQ(kill_at_every_boundary(path, 8, golden), 6u);
  EXPECT_EQ(journal_record_count(path), 5u);
}

// A legacy journal holds a type-3 operating-point record for every point a
// task stored, each before its task's TaskDone. Such a journal must still
// resume: its committed tasks replay and none re-runs, and compaction and
// merge drop its points.
TEST(KillReplay, JournalWithLegacyOpPointsResumes) {
  const auto golden = run_slice(1, nullptr);
  const std::string path = journal_path("killreplay_legacy_ops.journal");
  {
    Campaign campaign(path);
    ASSERT_EQ(run_slice(1, &campaign), golden);
  }

  // Rewrite it in the legacy layout: two points before each TaskDone, and
  // one point of a task whose TaskDone never made it to disk at the tail.
  const auto op_point = [](std::uint64_t task, double r) {
    PayloadWriter out;
    out.u64(/*circuit=*/0x5eed);
    out.u64(task);
    out.u32(/*defect=*/16);
    out.f64(r);
    out.vec_f64({0.7, 0.35, r * 1e-9});
    return JournalRecord{kRecordOpPoint, out.take()};
  };
  constexpr std::uint64_t kUncommitted = 0xdeadbeefULL;
  std::vector<std::uint64_t> keys;  // TaskDone order
  std::vector<JournalRecord> legacy;
  for (JournalRecord& record : replay_journal(path).records) {
    if (record.type == kRecordTaskDone) {
      keys.push_back(PayloadReader(record.payload).u64());
      legacy.push_back(op_point(keys.back(), 1e3));
      legacy.push_back(op_point(keys.back(), 1e6));
    }
    legacy.push_back(std::move(record));
  }
  legacy.push_back(op_point(kUncommitted, 2e6));
  {
    JournalWriter writer;
    writer.open(path, 0);
    for (const JournalRecord& record : legacy)
      writer.append(record.type, record.payload);
  }
  ASSERT_EQ(keys.size(), 4u);
  ASSERT_EQ(journal_record_count(path), 14u);

  // The resume replays every task and appends nothing, so no task re-ran.
  {
    Campaign campaign(path);
    EXPECT_EQ(run_slice(1, &campaign), golden);
  }
  EXPECT_EQ(journal_record_count(path), 14u);

  // The snapshot shows the committed points only, each with its own task.
  const ShardSnapshot snapshot = read_campaign_snapshot(path);
  ASSERT_EQ(snapshot.tasks.size(), 4u);
  EXPECT_EQ(snapshot.tasks.count(kUncommitted), 0u);
  for (const std::uint64_t key : keys) {
    const ShardTask& task = snapshot.tasks.at(key);
    ASSERT_EQ(task.ops.size(), 2u);
    for (const ShardOpPoint& op : task.ops) EXPECT_EQ(op.key.task, key);
  }

  // Compaction and merge write no type-3 record, and both results resume.
  const auto has_op_point = [](const std::string& journal) {
    for (const JournalRecord& record : replay_journal(journal).records)
      if (record.type == kRecordOpPoint) return true;
    return false;
  };
  const std::string merged = journal_path("killreplay_legacy_merged.journal");
  EXPECT_EQ(merge_shard_journals(merged, {path}, keys), 4u);
  {
    Campaign campaign(path);
    campaign.compact();
  }
  for (const std::string& journal : {path, merged}) {
    SCOPED_TRACE(journal);
    EXPECT_FALSE(has_op_point(journal));
    EXPECT_EQ(journal_record_count(journal), 5u);
    Campaign campaign(journal);
    EXPECT_EQ(run_slice(1, &campaign), golden);
    EXPECT_EQ(journal_record_count(journal), 5u);
  }
}

TEST(KillReplay, CompletedJournalReplaysWithoutRecompute) {
  const auto golden = run_slice(1, nullptr);
  const std::string path = journal_path("killreplay_complete.journal");
  {
    Campaign campaign(path);
    EXPECT_EQ(run_slice(1, &campaign), golden);
    EXPECT_EQ(campaign.completed_tasks(), 4u);
  }
  // Resuming a finished campaign replays every task: bit-identical tables,
  // and — because replay decodes journal payloads instead of solving — an
  // armed journal crash never fires (nothing is appended).
  Campaign campaign(path);
  const ScopedJournalCrash crash(1);
  EXPECT_EQ(run_slice(1, &campaign), golden);
  EXPECT_EQ(campaign.completed_tasks(), 4u);
}

TEST(KillReplay, JournalingItselfDoesNotPerturbResults) {
  const auto golden = run_slice(1, nullptr);
  const std::string path = journal_path("killreplay_passthrough.journal");
  Campaign campaign(path);
  EXPECT_EQ(run_slice(8, &campaign), golden);
}

TEST(KillReplay, ResumeWithChangedOptionsIsRefused) {
  const std::string path = journal_path("killreplay_mismatch.journal");
  {
    Campaign campaign(path);
    run_slice(1, &campaign);
  }
  // Same journal, different bisection tolerance: the manifest fingerprint
  // differs and the driver must refuse instead of mixing results.
  Campaign campaign(path);
  DefectCharacterizationOptions options = slice_options(1, &campaign);
  options.rel_tolerance = 1.05;
  ChaosEngine chaos(slice_chaos_policy());
  const ChaosScope scope(chaos);
  const DefectCharacterizer ch(tech(), options);
  const std::vector<DefectId> defects = {16, 19};
  const std::vector<CaseStudy> cs = {case_study(1, true)};
  EXPECT_THROW(ch.table(defects, cs), InvalidArgument);
}

// ---------- crash + resume of the other journaled drivers -------------------

TEST(KillReplay, RegulatorMeasurementResumesBitIdentically) {
  SweepReport report;
  const RegulationMetrics golden = measure_regulation(
      tech(), Corner::Typical, VrefLevel::V070, &report);
  const std::string path = journal_path("killreplay_regulator.journal");

  {
    Campaign campaign(path);
    const ScopedJournalCrash crash(3);
    SweepReport r;
    EXPECT_THROW(measure_regulation(tech(), Corner::Typical, VrefLevel::V070,
                                    &r, nullptr, 1, &campaign),
                 JournalCrash);
  }
  Campaign campaign(path);
  SweepReport resumed_report;
  const RegulationMetrics resumed =
      measure_regulation(tech(), Corner::Typical, VrefLevel::V070,
                         &resumed_report, nullptr, 1, &campaign);
  EXPECT_EQ(resumed.line_error, golden.line_error);
  EXPECT_EQ(resumed.load_regulation, golden.load_regulation);
  EXPECT_EQ(resumed.temp_drift, golden.temp_drift);
  EXPECT_EQ(resumed_report.attempted(), report.attempted());
  EXPECT_EQ(resumed_report.completed(), report.completed());
}

TEST(KillReplay, Fig4SweepResumesBitIdentically) {
  const RetentionAnalyzer analyzer(tech());
  const std::vector<double> sigmas = {3.0};
  const std::vector<Corner> corners = {Corner::Typical};
  const std::vector<double> temps = {25.0};
  const auto golden = analyzer.fig4_sweep(sigmas, corners, temps);
  ASSERT_EQ(golden.size(), kAllCellTransistors.size());

  const std::string path = journal_path("killreplay_fig4.journal");
  {
    Campaign campaign(path);
    const ScopedJournalCrash crash(4);
    SweepReport report;
    EXPECT_THROW(analyzer.fig4_sweep(sigmas, corners, temps, &report, nullptr,
                                     1, &campaign),
                 JournalCrash);
  }
  Campaign campaign(path);
  const auto resumed =
      analyzer.fig4_sweep(sigmas, corners, temps, nullptr, nullptr, 1,
                          &campaign);
  ASSERT_EQ(resumed.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(resumed[i].transistor, golden[i].transistor);
    EXPECT_EQ(resumed[i].sigma, golden[i].sigma);
    EXPECT_EQ(resumed[i].drv1, golden[i].drv1);  // bit-identical
    EXPECT_EQ(resumed[i].drv0, golden[i].drv0);
  }
}

// ---------- one kernel fold for every journaled driver ----------------------

// Every journaled driver binds its manifest through the sweep runner's one
// kernel fold, so a journal recorded under a non-default SIMD backend or
// cell kernel is refused when resumed under the defaults (and resumes under
// the kind it was recorded with).
enum class Driver { Table2, Table3, Fig4, Regulation, Yield };
enum class ReferenceKernel { ScalarSimd, ScalarCellKernel };

const DrvSurrogate& surrogate() {
  static const DrvSurrogate s = DrvSurrogate::train(tech());
  return s;
}

// One small journaled run of `driver`.
void run_journaled(Driver driver, Campaign* campaign) {
  switch (driver) {
    case Driver::Table2: {
      DefectCharacterizationOptions o;
      o.pvt = {PvtPoint{Corner::FastNSlowP, 1.0, 125.0}};
      o.rel_tolerance = 1.10;
      o.threads = 1;
      o.campaign = campaign;
      DefectCharacterizer(tech(), o).characterize(16, case_study(1, true));
      break;
    }
    case Driver::Table3: {
      FlowOptimizer::Options o;
      o.rel_tolerance = 1.10;
      o.threads = 1;
      o.campaign = campaign;
      const std::vector<DefectId> defects = {16};
      FlowOptimizer(tech(), o).build_matrix(defects);
      break;
    }
    case Driver::Fig4: {
      const std::vector<double> sigmas = {3.0};
      const std::vector<Corner> corners = {Corner::Typical};
      const std::vector<double> temps = {25.0};
      RetentionAnalyzer(tech()).fig4_sweep(sigmas, corners, temps, nullptr,
                                           nullptr, 1, campaign);
      break;
    }
    case Driver::Regulation:
      measure_regulation(tech(), Corner::Typical, VrefLevel::V070, nullptr,
                         nullptr, 1, campaign);
      break;
    case Driver::Yield: {
      YieldEngineOptions o;
      o.rows = 32;
      o.cols = 16;
      o.trials = 1;
      o.vreg_grid = {0.30};
      o.block_cells = 256;
      o.threads = 1;
      run_yield(YieldPlan(tech(), surrogate(), o), campaign);
      break;
    }
  }
}

const char* driver_name(Driver driver) {
  switch (driver) {
    case Driver::Table2: return "Table2";
    case Driver::Table3: return "Table3";
    case Driver::Fig4: return "Fig4";
    case Driver::Regulation: return "Regulation";
    case Driver::Yield: return "Yield";
  }
  return "unknown";
}

class KernelFold
    : public ::testing::TestWithParam<std::tuple<Driver, ReferenceKernel>> {};

TEST_P(KernelFold, JournalFromAnotherKernelIsRefused) {
  const auto [driver, kernel] = GetParam();
  const bool simd = kernel == ReferenceKernel::ScalarSimd;
  const std::string path =
      journal_path(std::string("kernel_fold_") + driver_name(driver) +
                   (simd ? "_simd" : "_cell") + ".journal");
  surrogate();  // trained once, under the default kernels
  const auto under_kind = [simd](const auto& body) {
    const ScopedKernelConfig scope(
        simd ? &KernelConfig::simd : &KernelConfig::cell, Kernel::Reference);
    body();
  };
  {
    Campaign campaign(path);
    under_kind([&] { run_journaled(driver, &campaign); });
  }
  {
    Campaign campaign(path);
    under_kind([&] { EXPECT_NO_THROW(run_journaled(driver, &campaign)); });
  }
  Campaign campaign(path);
  EXPECT_THROW(run_journaled(driver, &campaign), InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    FiveDrivers, KernelFold,
    ::testing::Combine(::testing::Values(Driver::Table2, Driver::Table3,
                                         Driver::Fig4, Driver::Regulation,
                                         Driver::Yield),
                       ::testing::Values(ReferenceKernel::ScalarSimd,
                                         ReferenceKernel::ScalarCellKernel)),
    [](const ::testing::TestParamInfo<std::tuple<Driver, ReferenceKernel>>&
           info) {
      return std::string(driver_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == ReferenceKernel::ScalarSimd
                  ? "_ScalarSimd"
                  : "_ScalarCell");
    });

// The fold is journal format: these are the manifests every campaign has
// recorded since the fold was introduced, so a value that moves here
// refuses every existing journal. Each folded reference kernel must move
// the fold; the linear solver stays unfolded, and the yield plan folds its
// exact-batch kernel itself (YieldExactBatch.* in test_yield).
TEST(ManifestFold, PinnedUnderDefaultsAndMovedByEveryFoldedReference) {
  constexpr std::uint64_t kDefaults = 0x0a08a33b6bcac1bcULL;
  EXPECT_EQ(fold_kernel_kinds(0), kDefaults);
  const auto fold_under = [](Kernel KernelConfig::*field) {
    const ScopedKernelConfig scope(field, Kernel::Reference);
    return fold_kernel_kinds(0);
  };
  EXPECT_EQ(fold_under(&KernelConfig::cell), 0xf6ed31104ceb87f6ULL);
  EXPECT_EQ(fold_under(&KernelConfig::simd), 0xa80ece1f8f500113ULL);
  EXPECT_EQ(fold_under(&KernelConfig::transient), 0x543b5e14755c48cbULL);
  EXPECT_EQ(fold_under(&KernelConfig::linear_solver), kDefaults);
  EXPECT_EQ(fold_under(&KernelConfig::yield_exact), kDefaults);
}

// ---------- quarantined tasks journal the same bytes on every run ------------

// Every task payload of a campaign journal, by task key.
std::map<std::uint64_t, std::vector<std::uint8_t>> journaled_payloads(
    const std::string& path) {
  std::map<std::uint64_t, std::vector<std::uint8_t>> payloads;
  for (auto& [key, task] : read_campaign_snapshot(path).tasks)
    payloads.emplace(key, std::move(task.payload));
  return payloads;
}

// A quarantined task's payload carries its failure reason. Two runs of a
// sweep must journal the same bytes for it: the fabric's merge accepts a
// task committed twice only if both payloads are byte-identical.
TEST(JournalBytes, QuarantinedRegulationProbesRepeatByteForByte) {
  ChaosPolicy policy;
  policy.first_attempt_failure_rate = 1.0;
  policy.retry_failure_rate = 1.0;  // every probe exhausts its ladder
  policy.faults = {ChaosFault::NanResidual};
  const auto run = [&policy](int threads, const std::string& name) {
    const std::string path = journal_path(name);
    {
      ChaosEngine chaos(policy);
      const ChaosScope scope(chaos);
      Campaign campaign(path);
      SweepReport report;
      measure_regulation(tech(), Corner::Typical, VrefLevel::V070, &report,
                         nullptr, threads, &campaign);
      EXPECT_EQ(report.completed(), 0u);
      EXPECT_GT(report.quarantined_count(), 0u);
    }
    return journaled_payloads(path);
  };
  const auto golden = run(1, "bytes_regulation_t1a.journal");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(run(1, "bytes_regulation_t1b.journal"), golden);
  EXPECT_EQ(run(4, "bytes_regulation_t4a.journal"), golden);
  EXPECT_EQ(run(4, "bytes_regulation_t4b.journal"), golden);
}

TEST(JournalBytes, ChaosTableIISliceRepeatsByteForByte) {
  // The slice's chaos mixture with every retry sabotaged: a task whose
  // ladder is attacked at all is quarantined.
  ChaosPolicy policy = slice_chaos_policy();
  policy.retry_failure_rate = 1.0;
  const auto run = [&policy](int threads, const std::string& name) {
    const std::string path = journal_path(name);
    {
      ChaosEngine chaos(policy);
      const ChaosScope scope(chaos);
      Campaign campaign(path);
      const DefectCharacterizer ch(tech(), slice_options(threads, &campaign));
      const std::vector<DefectId> defects = {16, 19};
      const std::vector<CaseStudy> cs = {case_study(1, true)};
      const auto rows = ch.table(defects, cs);
      std::size_t quarantined = 0;
      for (const auto& row : rows)
        for (const DefectCsResult& cell : row)
          quarantined += cell.sweep.quarantined_count();
      EXPECT_GT(quarantined, 0u);
    }
    return journaled_payloads(path);
  };
  const auto golden = run(1, "bytes_slice_t1a.journal");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(run(1, "bytes_slice_t1b.journal"), golden);
  EXPECT_EQ(run(4, "bytes_slice_t4a.journal"), golden);
  EXPECT_EQ(run(4, "bytes_slice_t4b.journal"), golden);
}

// ---------- cooperative cancellation ----------------------------------------

TEST(Cancellation, CancelledTokenQuarantinesEveryPointAsSolveTimeout) {
  CancelToken token;
  token.cancel();
  DefectCharacterizationOptions options = slice_options(1, nullptr);
  options.cancel = &token;
  const DefectCharacterizer ch(tech(), options);
  const DefectCsResult result = ch.characterize(16, case_study(1, true));

  EXPECT_EQ(result.sweep.completed(), 0u);
  ASSERT_EQ(result.sweep.quarantined_count(), options.pvt.size());
  for (const QuarantinedPoint& q : result.sweep.quarantined())
    EXPECT_EQ(q.error_type, "SolveTimeout");
  // The task-start poll trips before any solve is attempted, so the sweep
  // spends zero solver work on a cancelled campaign.
  EXPECT_EQ(result.telemetry.solves.solves, 0u);
}

// The per-iteration poll site: a token cancelled while the ladder runs cuts
// the Newton loop off from inside, and the outcome (and telemetry cancels
// counter) records it as a cancellation, not a numerical failure.
TEST(Cancellation, LadderPollsTokenInsideNewton) {
  Netlist n;
  const NodeId in = n.add_node("in");
  const NodeId mid = n.add_node("mid");
  n.add_vsource("V1", in, kGround, 1.0);
  n.add_resistor("R1", in, mid, 1e3);
  n.add_resistor("R2", mid, kGround, 1e3);

  CancelToken token;
  token.cancel();
  DcOptions options;
  options.cancel = &token;
  const SolveOutcome outcome = solve_dc_resilient(n, 25.0, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.cancelled);

  SolveTelemetry telemetry;
  telemetry.record(outcome);
  EXPECT_EQ(telemetry.cancels, 1u);
  EXPECT_EQ(telemetry.timeouts, 1u);

  // The typed throw carries the cancelled flag to fail-fast callers.
  try {
    throw_outcome(outcome);
    FAIL() << "expected SolveTimeout";
  } catch (const SolveTimeout& e) {
    EXPECT_TRUE(e.info().cancelled);
  }

  // Un-cancelled, the same solve converges normally.
  CancelToken fresh;
  options.cancel = &fresh;
  EXPECT_TRUE(solve_dc_resilient(n, 25.0, options).ok());
}

TEST(Cancellation, FailFastPropagatesSolveTimeoutWithCancelledFlag) {
  CancelToken token;
  token.cancel();
  DefectCharacterizationOptions options = slice_options(1, nullptr);
  options.cancel = &token;
  options.quarantine = false;
  const DefectCharacterizer ch(tech(), options);
  try {
    ch.characterize(16, case_study(1, true));
    FAIL() << "expected SolveTimeout";
  } catch (const SolveTimeout& e) {
    EXPECT_TRUE(e.info().cancelled);
  }
}

TEST(Cancellation, UncancelledTokenIsFree) {
  const auto golden = run_slice(1, nullptr);
  CancelToken token;  // never cancelled
  ChaosEngine chaos(slice_chaos_policy());
  const ChaosScope scope(chaos);
  DefectCharacterizationOptions options = slice_options(1, nullptr);
  options.cancel = &token;
  const DefectCharacterizer ch(tech(), options);
  const std::vector<DefectId> defects = {16, 19};
  const std::vector<CaseStudy> cs = {case_study(1, true)};
  const auto rows = ch.table(defects, cs);
  std::vector<CellFingerprint> fps;
  for (const auto& row : rows)
    for (const DefectCsResult& cell : row) fps.push_back(fingerprint(cell));
  EXPECT_EQ(fps, golden);
}

TEST(Cancellation, Fig4CancelsPerPoint) {
  const RetentionAnalyzer analyzer(tech());
  CancelToken token;
  token.cancel();
  const std::vector<double> sigmas = {3.0};
  const std::vector<Corner> corners = {Corner::Typical};
  const std::vector<double> temps = {25.0};
  SweepReport report;
  const auto points = analyzer.fig4_sweep(sigmas, corners, temps, &report,
                                          nullptr, 1, nullptr, &token);
  EXPECT_TRUE(points.empty());
  EXPECT_EQ(report.completed(), 0u);
  EXPECT_EQ(report.quarantined_count(), kAllCellTransistors.size());
  for (const QuarantinedPoint& q : report.quarantined())
    EXPECT_EQ(q.error_type, "SolveTimeout");
}

}  // namespace
}  // namespace lpsram
