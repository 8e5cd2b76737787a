// Durable-campaign suite: the kill-replay harness (crash a journaled sweep
// at record boundaries with injected journal kills, resume it, and demand
// final tables bit-identical to the uninterrupted run — at 1 and 8 threads,
// under chaos fault injection), manifest mismatch refusal, operating-point
// seeding semantics, and cooperative cancellation through the solve stack.
//
// Journals are written under ./campaign-journals/ so CI can pick them up as
// an artifact (and run tools/journal_inspect.py over them) when a
// kill-replay assertion fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
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

TEST(Campaign, OpPointsSeedOnlyForCompletedTasks) {
  const std::string path = journal_path("unit_oppoints.journal");
  const SolveCacheKey done_key{/*circuit=*/10, /*task=*/100, /*defect=*/16};
  const SolveCacheKey lost_key{/*circuit=*/10, /*task=*/200, /*defect=*/16};
  {
    Campaign campaign(path);
    campaign.note_op_point(done_key, 1e6, {0.5, 0.25});
    campaign.record_result(100, {1});  // commit point for task 100
    // Task 200 buffers a point but never completes (crash before TaskDone).
    campaign.note_op_point(lost_key, 2e6, {0.75});
  }
  Campaign campaign(path);
  SolveCache cache;
  campaign.seed_cache(cache);
  std::vector<double> x;
  EXPECT_TRUE(cache.lookup_nearest(done_key, 1e6, &x));
  EXPECT_EQ(x, (std::vector<double>{0.5, 0.25}));
  // The uncommitted task's point must NOT seed: its task re-runs from
  // scratch, exactly as in the uninterrupted run.
  x.clear();
  EXPECT_FALSE(cache.lookup_nearest(lost_key, 2e6, &x));
}

TEST(Campaign, CompactionPreservesResultsAndManifests) {
  const std::string path = journal_path("unit_compact.journal");
  {
    Campaign campaign(path);
    campaign.bind_sweep(0xABCULL, 111);
    campaign.note_op_point({1, 100, 16}, 1e6, {0.5});
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
  SolveCache cache;
  campaign.seed_cache(cache);
  std::vector<double> x;
  EXPECT_TRUE(cache.lookup_nearest({1, 100, 16}, 1e6, &x));
}

// ---------- kill-replay harness ---------------------------------------------

// The Table II slice used throughout: 2 defects x CS1 x 2 PVT points, the
// same reduced grid as the thread-determinism suite, under the same chaos
// mixture (some first attempts and some retries sabotaged) so quarantined
// points flow through the journal codec too.
DefectCharacterizationOptions slice_options(int threads, bool solve_cache,
                                            Campaign* campaign) {
  DefectCharacterizationOptions o;
  o.pvt = {PvtPoint{Corner::FastNSlowP, 1.0, 125.0},
           PvtPoint{Corner::Typical, 1.1, 125.0}};
  o.rel_tolerance = 1.10;
  o.threads = threads;
  o.solve_cache = solve_cache;
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
std::vector<CellFingerprint> run_slice(int threads, bool solve_cache,
                                       Campaign* campaign) {
  ChaosEngine chaos(slice_chaos_policy());
  const ChaosScope scope(chaos);
  const DefectCharacterizer ch(tech(),
                               slice_options(threads, solve_cache, campaign));
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
                                             int threads, bool solve_cache,
                                             std::uint64_t boundary,
                                             bool* killed) {
  fs::remove(path);
  {
    Campaign campaign(path);
    const ScopedJournalCrash crash(boundary);
    try {
      run_slice(threads, solve_cache, &campaign);
      *killed = false;  // boundary beyond the run's append count
    } catch (const JournalCrash&) {
      *killed = true;
    }
  }
  // The "restarted process": a fresh Campaign replays the torn journal and
  // the same sweep runs again on top of it.
  Campaign campaign(path);
  return run_slice(threads, solve_cache, &campaign);
}

TEST(KillReplay, EveryRecordBoundarySingleThreaded) {
  const auto golden = run_slice(1, /*solve_cache=*/false, nullptr);
  const std::string path = journal_path("killreplay_t1.journal");

  // Cache off, the journal is manifest + one TaskDone per (defect x CS x
  // PVT) task — few enough to kill at EVERY boundary (and one past the end,
  // proving the harness also passes crash-free).
  bool killed = true;
  std::uint64_t boundary = 1;
  for (; killed; ++boundary) {
    SCOPED_TRACE("killed at append " + std::to_string(boundary));
    const auto resumed =
        kill_and_resume(path, 1, false, boundary, &killed);
    EXPECT_EQ(resumed, golden);
  }
  // The slice is 4 tasks: manifest + 4 TaskDone records = 5 appends, so the
  // first crash-free boundary is 6. Guards against the harness silently
  // degenerating (e.g. journaling nothing and "resuming" by recomputing).
  EXPECT_EQ(boundary - 1, 6u);
  EXPECT_EQ(journal_record_count(path), 5u);
}

TEST(KillReplay, EveryRecordBoundaryEightThreads) {
  const auto golden = run_slice(1, false, nullptr);
  const std::string path = journal_path("killreplay_t8.journal");

  bool killed = true;
  for (std::uint64_t boundary = 1; killed; ++boundary) {
    SCOPED_TRACE("killed at append " + std::to_string(boundary));
    // Which tasks survive the kill is scheduling-dependent at 8 threads;
    // the resumed tables must be bit-identical regardless.
    const auto resumed = kill_and_resume(path, 8, false, boundary, &killed);
    EXPECT_EQ(resumed, golden);
  }
}

TEST(KillReplay, SampledBoundariesWithWarmStartCache) {
  const auto golden = run_slice(1, /*solve_cache=*/true, nullptr);
  const std::string path = journal_path("killreplay_cache.journal");

  // With the cache on, every stored operating point is journaled too, so a
  // full run has hundreds of appends. Kill at sampled boundaries spread
  // across the run (plus both ends) rather than every single one.
  {
    Campaign campaign(path);
    EXPECT_EQ(run_slice(1, true, &campaign), golden);
  }
  const std::size_t total = journal_record_count(path);
  ASSERT_GT(total, 10u);  // op points actually journaled

  for (const double frac : {0.0, 0.1, 0.35, 0.6, 0.85, 0.99}) {
    const std::uint64_t boundary =
        1 + static_cast<std::uint64_t>(frac * static_cast<double>(total - 1));
    SCOPED_TRACE("killed at append " + std::to_string(boundary) + " of ~" +
                 std::to_string(total));
    bool killed = false;
    EXPECT_EQ(kill_and_resume(path, 1, true, boundary, &killed), golden);
    EXPECT_TRUE(killed);
  }
  // And once at 8 threads, mid-run.
  bool killed = false;
  EXPECT_EQ(kill_and_resume(path, 8, true, total / 2, &killed), golden);
  EXPECT_TRUE(killed);
}

TEST(KillReplay, CompletedJournalReplaysWithoutRecompute) {
  const auto golden = run_slice(1, false, nullptr);
  const std::string path = journal_path("killreplay_complete.journal");
  {
    Campaign campaign(path);
    EXPECT_EQ(run_slice(1, false, &campaign), golden);
    EXPECT_EQ(campaign.completed_tasks(), 4u);
  }
  // Resuming a finished campaign replays every task: bit-identical tables,
  // and — because replay decodes journal payloads instead of solving — an
  // armed journal crash never fires (nothing is appended).
  Campaign campaign(path);
  const ScopedJournalCrash crash(1);
  EXPECT_EQ(run_slice(1, false, &campaign), golden);
  EXPECT_EQ(campaign.completed_tasks(), 4u);
}

TEST(KillReplay, JournalingItselfDoesNotPerturbResults) {
  const auto golden = run_slice(1, false, nullptr);
  const std::string path = journal_path("killreplay_passthrough.journal");
  Campaign campaign(path);
  EXPECT_EQ(run_slice(8, false, &campaign), golden);
}

TEST(KillReplay, ResumeWithChangedOptionsIsRefused) {
  const std::string path = journal_path("killreplay_mismatch.journal");
  {
    Campaign campaign(path);
    run_slice(1, false, &campaign);
  }
  // Same journal, different bisection tolerance: the manifest fingerprint
  // differs and the driver must refuse instead of mixing results.
  Campaign campaign(path);
  DefectCharacterizationOptions options = slice_options(1, false, &campaign);
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

// ---------- cooperative cancellation ----------------------------------------

TEST(Cancellation, CancelledTokenQuarantinesEveryPointAsSolveTimeout) {
  CancelToken token;
  token.cancel();
  DefectCharacterizationOptions options = slice_options(1, false, nullptr);
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
  RetryLadderOptions options;
  options.cancel = &token;
  const ResilientDcSolver solver(n, 25.0, DcOptions{}, options);
  const SolveOutcome outcome = solver.solve();
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.cancelled);

  SolveTelemetry telemetry;
  telemetry.record(outcome);
  EXPECT_EQ(telemetry.cancels, 1u);
  EXPECT_EQ(telemetry.timeouts, 1u);

  // The typed throw carries the cancelled flag to fail-fast callers.
  try {
    solver.throw_outcome(outcome);
    FAIL() << "expected SolveTimeout";
  } catch (const SolveTimeout& e) {
    EXPECT_TRUE(e.info().cancelled);
  }

  // Un-cancelled, the same solver converges normally.
  CancelToken fresh;
  RetryLadderOptions clean = options;
  clean.cancel = &fresh;
  const ResilientDcSolver ok_solver(n, 25.0, DcOptions{}, clean);
  EXPECT_TRUE(ok_solver.solve().ok());
}

TEST(Cancellation, FailFastPropagatesSolveTimeoutWithCancelledFlag) {
  CancelToken token;
  token.cancel();
  DefectCharacterizationOptions options = slice_options(1, false, nullptr);
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
  const auto golden = run_slice(1, false, nullptr);
  CancelToken token;  // never cancelled
  ChaosEngine chaos(slice_chaos_policy());
  const ChaosScope scope(chaos);
  DefectCharacterizationOptions options = slice_options(1, false, nullptr);
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
