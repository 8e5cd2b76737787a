// Yield-engine suite: counter-RNG properties, surrogate-vs-exact and
// lane-vs-scalar equivalence on sampled variation fields, estimator algebra,
// statistical acceptance of the fast estimators against brute-force ground
// truth, and the determinism contracts — bit-identical results across
// thread counts, kill-at-every-record-boundary campaign resume, and a
// fabric-sharded fleet reduced from its merged journal.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/cell/drv.hpp"
#include "lpsram/runtime/fabric/fabric.hpp"
#include "lpsram/stats/yield/counter_rng.hpp"
#include "lpsram/stats/yield/engine.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/simd.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define LPSRAM_YIELD_POSIX 1
#endif

namespace lpsram {
namespace {

namespace fs = std::filesystem;

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

const DrvSurrogate& surrogate() {
  static const DrvSurrogate s = DrvSurrogate::train(tech());
  return s;
}

std::string journal_path(const std::string& name) {
  fs::create_directories("yield-journals");
  return (fs::path("yield-journals") / name).string();
}

// Bitwise equality of two yield results (the determinism contract: every
// double must match exactly, not approximately).
void expect_bit_identical(const YieldResult& a, const YieldResult& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.exact_solves, b.exact_solves);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    EXPECT_EQ(key_bits(a.points[k].tail.p), key_bits(b.points[k].tail.p));
    EXPECT_EQ(key_bits(a.points[k].tail.ci95), key_bits(b.points[k].tail.ci95));
    EXPECT_EQ(key_bits(a.points[k].tail.ess), key_bits(b.points[k].tail.ess));
    EXPECT_EQ(a.points[k].failures, b.points[k].failures);
    EXPECT_EQ(key_bits(a.points[k].sigma), key_bits(b.points[k].sigma));
    EXPECT_EQ(key_bits(a.points[k].array_yield),
              key_bits(b.points[k].array_yield));
  }
  ASSERT_EQ(a.array_dist.samples.size(), b.array_dist.samples.size());
  for (std::size_t i = 0; i < a.array_dist.samples.size(); ++i)
    EXPECT_EQ(key_bits(a.array_dist.samples[i]),
              key_bits(b.array_dist.samples[i]));
  EXPECT_EQ(key_bits(a.array_dist.mean), key_bits(b.array_dist.mean));
  EXPECT_EQ(key_bits(a.array_dist.gumbel_mu), key_bits(b.array_dist.gumbel_mu));
}

// ---------- counter RNG ----------------------------------------------------

TEST(CounterRng, PureFunctionOfCoordinates) {
  const std::uint64_t a = counter_u64(1, 2, 3, 4);
  // Same coordinates, any call order: same draw.
  (void)counter_u64(9, 9, 9, 9);
  EXPECT_EQ(counter_u64(1, 2, 3, 4), a);
  // Every coordinate matters.
  EXPECT_NE(counter_u64(2, 2, 3, 4), a);
  EXPECT_NE(counter_u64(1, 3, 3, 4), a);
  EXPECT_NE(counter_u64(1, 2, 4, 4), a);
  EXPECT_NE(counter_u64(1, 2, 3, 5), a);
  // Argument order matters (trial/cell/lane are not interchangeable).
  EXPECT_NE(counter_u64(1, 3, 2, 4), a);
}

TEST(CounterRng, UniformStrictlyInsideUnitInterval) {
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = counter_uniform(42, 0, static_cast<std::uint64_t>(i), 0);
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sq += u * u;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
}

TEST(CounterRng, NormalQuantileInvertsCdf) {
  for (const double p : {1e-12, 1e-9, 1e-6, 1e-3, 0.02, 0.02425, 0.1, 0.3,
                         0.5, 0.7, 0.9, 0.97575, 0.999, 1.0 - 1e-9}) {
    const double x = normal_quantile(p);
    EXPECT_NEAR(normal_cdf(x), p, 1e-15 + 1e-12 * p) << "p=" << p;
    // Antisymmetry of the inverse CDF — only where 1-p is representable to
    // the tail's own precision (below ~1e-9 the rounding of 1-p dominates).
    if (p >= 1e-9)
      EXPECT_NEAR(normal_quantile(1.0 - p), -x, 1e-8 * (1.0 + std::fabs(x)))
          << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(normal_quantile(0.5), 0.0);
  EXPECT_NEAR(normal_quantile(normal_cdf(-4.0)), -4.0, 1e-10);
  EXPECT_THROW(normal_quantile(0.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(1.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(-0.5), InvalidArgument);
}

TEST(CounterRng, NormalMoments) {
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double z = counter_normal(7, 1, static_cast<std::uint64_t>(i), 2);
    sum += z;
    sq += z * z;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(sq / kN - mean * mean), 1.0, 0.01);
}

TEST(CounterRng, SampleCellVariationMatchesLanes) {
  const CellVariation v = sample_cell_variation(11, 3, 17);
  for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane)
    EXPECT_DOUBLE_EQ(v.get(kAllCellTransistors[lane]),
                     counter_normal(11, 3, 17, lane));
}

// ---------- surrogate / lane-kernel equivalence -----------------------------

TEST(YieldEquivalence, SurrogateErrorBoundedOnSampledFields) {
  // The blockade gate trusts the surrogate to classify sub-gate cells; its
  // error on nominally-sampled fields must stay within the blockade margin.
  double sq = 0.0, worst = 0.0;
  constexpr int kN = 48;
  for (int i = 0; i < kN; ++i) {
    const CellVariation v =
        sample_cell_variation(0xE0u, 0, static_cast<std::uint64_t>(i));
    const CoreCell cell(tech(), v);
    const double exact = drv_ds(cell, 25.0).drv();
    const double err = surrogate().predict_drv(v) - exact;
    sq += err * err;
    worst = std::max(worst, std::fabs(err));
  }
  EXPECT_LT(std::sqrt(sq / kN), 0.030);  // RMS under 30 mV on nominal fields
  EXPECT_LT(worst, 0.060);               // worst under the blockade margin
}

TEST(YieldEquivalence, LaneKernelAgreesWithScalarOnSampledFields) {
  for (int i = 0; i < 12; ++i) {
    const CellVariation v =
        sample_cell_variation(0xE1u, 0, static_cast<std::uint64_t>(i));
    const CoreCell cell(tech(), v);
    double scalar, batched;
    {
      const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Reference);
      scalar = drv_ds(cell, 25.0).drv();
    }
    {
      const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Production);
      batched = drv_ds(cell, 25.0).drv();
    }
    EXPECT_NEAR(scalar, batched, 0.005 * scalar + 1e-6) << "sample " << i;
  }
}

// ---------- estimator algebra ----------------------------------------------

TEST(TailEstimator, CollapsesToExactBinomialAtUnitWeights) {
  BlockAccum acc;
  acc.points.resize(1);
  constexpr std::uint64_t kN = 5000, kFails = 37;
  for (std::uint64_t i = 0; i < kN; ++i) {
    acc.points[0].add(1.0, i < kFails);
    acc.sum_w += 1.0;
    acc.sum_w2 += 1.0;
    ++acc.samples;
  }
  const TailEstimate est = estimate_tail(acc, 0);
  const double p = static_cast<double>(kFails) / kN;
  EXPECT_DOUBLE_EQ(est.p, p);
  EXPECT_DOUBLE_EQ(est.ess, static_cast<double>(kN));
  EXPECT_NEAR(est.ci95, 1.96 * std::sqrt(p * (1.0 - p) / kN), 1e-12);
  EXPECT_NEAR(est.rel_ci, est.ci95 / p, 1e-15);
}

TEST(TailEstimator, ZeroFailuresFallsBackToRuleOfThree) {
  BlockAccum acc;
  acc.points.resize(1);
  acc.samples = 1000;
  acc.sum_w = 1000.0;
  acc.sum_w2 = 1000.0;
  const TailEstimate est = estimate_tail(acc, 0);
  EXPECT_DOUBLE_EQ(est.p, 0.0);
  EXPECT_DOUBLE_EQ(est.ci95, 3.0 / 1000.0);
  EXPECT_DOUBLE_EQ(est.rel_ci, 0.0);
}

TEST(TailEstimator, MergeAndValidation) {
  BlockAccum a, b;
  a.points.resize(2);
  b.points.resize(2);
  a.points[0].add(2.0, true);
  a.sum_w = 2.0;
  a.sum_w2 = 4.0;
  a.samples = 1;
  a.max_drv = 0.3;
  b.points[1].add(0.5, true);
  b.sum_w = 0.5;
  b.sum_w2 = 0.25;
  b.samples = 1;
  b.max_drv = 0.4;
  a.merge(b);
  EXPECT_EQ(a.samples, 2u);
  EXPECT_DOUBLE_EQ(a.sum_w, 2.5);
  EXPECT_DOUBLE_EQ(a.max_drv, 0.4);
  EXPECT_EQ(a.points[0].fail_raw, 1u);
  EXPECT_EQ(a.points[1].fail_raw, 1u);

  BlockAccum wrong;
  wrong.points.resize(3);
  EXPECT_THROW(a.merge(wrong), InvalidArgument);
  EXPECT_THROW(estimate_tail(a, 5), InvalidArgument);
  BlockAccum empty;
  empty.points.resize(1);
  EXPECT_THROW(estimate_tail(empty, 0), InvalidArgument);
}

TEST(TailEstimator, BruteForceBudgetAndSigma) {
  // N = z^2 (1-p) / (p rel^2): pinning p = 1e-5 to +/-10% at 95% needs
  // ~3.8e7 exact solves.
  const double n = brute_force_solves_needed(1e-5, 0.1);
  EXPECT_NEAR(n, 1.96 * 1.96 * (1.0 - 1e-5) / (1e-5 * 0.01), 1e3);
  EXPECT_THROW(brute_force_solves_needed(0.0, 0.1), InvalidArgument);
  EXPECT_THROW(brute_force_solves_needed(0.5, 0.0), InvalidArgument);

  EXPECT_NEAR(sigma_of_tail(normal_cdf(-3.0)), 3.0, 1e-9);
  EXPECT_NEAR(sigma_of_tail(0.5), 0.0, 1e-12);
  EXPECT_THROW(sigma_of_tail(0.0), InvalidArgument);
}

// ---------- engine: plan mechanics ------------------------------------------

YieldEngineOptions small_options(YieldMode mode) {
  YieldEngineOptions options;
  options.rows = 64;
  options.cols = 16;
  options.trials = 2;
  options.vreg_grid = {0.25, 0.30};
  options.block_cells = 512;
  options.mode = mode;
  options.is_samples = 3000;
  options.is_shift = 2.5;
  options.threads = 1;
  return options;
}

TEST(YieldPlan, ValidatesOptions) {
  YieldEngineOptions bad = small_options(YieldMode::Blockade);
  bad.trials = 0;
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
  bad = small_options(YieldMode::Blockade);
  bad.vreg_grid = {};
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
  bad = small_options(YieldMode::Blockade);
  bad.vreg_grid = {0.4, 0.3};  // descending
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
  bad = small_options(YieldMode::ImportanceSampled);
  bad.is_defensive = 1.0;
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
  bad = small_options(YieldMode::Blockade);
  bad.blockade_margin = -0.01;
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
}

TEST(YieldPlan, BlocksNeverSpanTrialsAndCoverEveryCell) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 10;
  options.cols = 10;  // 100 cells/trial, not a multiple of block_cells
  options.trials = 3;
  options.block_cells = 32;
  const YieldPlan plan(tech(), surrogate(), options);
  EXPECT_EQ(plan.blocks_per_trial(), 4u);
  EXPECT_EQ(plan.task_count(), 12u);
  const YieldResult result = run_yield(plan);
  EXPECT_EQ(result.samples, 300u);
  EXPECT_EQ(result.array_dist.samples.size(), 3u);
}

TEST(YieldPlan, FingerprintSeparatesConfigurations) {
  const YieldPlan base(tech(), surrogate(), small_options(YieldMode::Blockade));
  YieldEngineOptions other = small_options(YieldMode::Blockade);
  other.seed ^= 1;
  EXPECT_NE(base.fingerprint(),
            YieldPlan(tech(), surrogate(), other).fingerprint());
  other = small_options(YieldMode::Blockade);
  other.vreg_grid.push_back(0.35);
  EXPECT_NE(base.fingerprint(),
            YieldPlan(tech(), surrogate(), other).fingerprint());
  EXPECT_NE(base.fingerprint(),
            YieldPlan(tech(), surrogate(), small_options(YieldMode::BruteForceExact))
                .fingerprint());
  // Same configuration: same fingerprint (it must be stable, not salted).
  EXPECT_EQ(base.fingerprint(),
            YieldPlan(tech(), surrogate(), small_options(YieldMode::Blockade))
                .fingerprint());
}

TEST(YieldPlan, ImportanceWeightIsMirrorSymmetricAndBounded) {
  YieldEngineOptions options = small_options(YieldMode::ImportanceSampled);
  const YieldPlan plan(tech(), surrogate(), options);
  for (int i = 0; i < 32; ++i) {
    const CellVariation v =
        sample_cell_variation(0xE2u, 0, static_cast<std::uint64_t>(i));
    const double w = plan.importance_weight(v);
    EXPECT_GT(w, 0.0);
    // Defensive component bounds every likelihood ratio at 1/alpha.
    EXPECT_LE(w, 1.0 / options.is_defensive + 1e-12);
    // The mixture proposal is symmetric under the cell mirror.
    EXPECT_DOUBLE_EQ(plan.importance_weight(v.mirrored()), w);
  }
}

// ---------- statistical acceptance ------------------------------------------

TEST(YieldAcceptance, BlockadeMatchesBruteForceGroundTruth) {
  const YieldPlan brute(tech(), surrogate(),
                        small_options(YieldMode::BruteForceExact));
  const YieldPlan blockade(tech(), surrogate(),
                           small_options(YieldMode::Blockade));
  const YieldResult exact = run_yield(brute);
  const YieldResult gated = run_yield(blockade);
  ASSERT_EQ(exact.points.size(), gated.points.size());
  EXPECT_EQ(exact.samples, gated.samples);
  EXPECT_LT(gated.exact_solves, exact.exact_solves);
  for (std::size_t k = 0; k < exact.points.size(); ++k) {
    // Same sampled cells; the only divergence channel is a surrogate
    // misclassification of a sub-gate cell, bounded by the margin.
    const double combined = std::sqrt(
        exact.points[k].tail.ci95 * exact.points[k].tail.ci95 +
        gated.points[k].tail.ci95 * gated.points[k].tail.ci95);
    EXPECT_NEAR(gated.points[k].tail.p, exact.points[k].tail.p, combined)
        << "vreg " << exact.points[k].vreg;
  }
}

TEST(YieldAcceptance, ImportanceSamplingMatchesBruteForceWithinCi) {
  const YieldPlan brute(tech(), surrogate(),
                        small_options(YieldMode::BruteForceExact));
  const YieldPlan is_plan(tech(), surrogate(),
                          small_options(YieldMode::ImportanceSampled));
  const YieldResult exact = run_yield(brute);
  const YieldResult shifted = run_yield(is_plan);
  ASSERT_EQ(exact.points.size(), shifted.points.size());
  for (std::size_t k = 0; k < exact.points.size(); ++k) {
    const double combined = std::sqrt(
        exact.points[k].tail.ci95 * exact.points[k].tail.ci95 +
        shifted.points[k].tail.ci95 * shifted.points[k].tail.ci95);
    EXPECT_NEAR(shifted.points[k].tail.p, exact.points[k].tail.p, combined)
        << "vreg " << exact.points[k].vreg;
    EXPECT_GT(shifted.points[k].tail.ess, 100.0);
  }
}

// ---------- determinism contracts -------------------------------------------

TEST(YieldDeterminism, BitIdenticalAcrossThreadCounts) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 128;
  options.block_cells = 256;
  options.threads = 1;
  const YieldPlan plan1(tech(), surrogate(), options);
  const YieldResult r1 = run_yield(plan1);
  for (const int threads : {2, 8}) {
    options.threads = threads;
    const YieldPlan plan(tech(), surrogate(), options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bit_identical(run_yield(plan), r1);
  }
}

TEST(YieldDeterminism, KillAtEveryRecordBoundaryResumesBitIdentical) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  options.block_cells = 256;  // 512 cells/trial -> 2 blocks/trial, 4 tasks
  const YieldPlan plan(tech(), surrogate(), options);
  ASSERT_EQ(plan.task_count(), 4u);
  const YieldResult golden = run_yield(plan);

  const std::string path = journal_path("kill_resume.journal");
  bool killed = true;
  std::uint64_t boundary = 1;
  for (; killed; ++boundary) {
    SCOPED_TRACE("killed at append " + std::to_string(boundary));
    fs::remove(path);
    {
      Campaign campaign(path);
      const ScopedJournalCrash crash(boundary);
      try {
        run_yield(plan, &campaign);
        killed = false;  // boundary beyond the run's total appends
      } catch (const JournalCrash&) {
        killed = true;
      }
    }
    // The "restarted process": a fresh Campaign replays the torn journal.
    Campaign campaign(path);
    expect_bit_identical(run_yield(plan, &campaign), golden);
  }
  // Manifest + 4 task records = 5 appends; first crash-free boundary is 6.
  EXPECT_EQ(boundary - 1, 6u);
}

TEST(YieldDeterminism, CampaignRefusesMismatchedConfiguration) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  const YieldPlan plan(tech(), surrogate(), options);
  const std::string path = journal_path("manifest_refusal.journal");
  fs::remove(path);
  {
    Campaign campaign(path);
    run_yield(plan, &campaign);
  }
  // Same journal, different grid: the manifest fingerprint must refuse.
  options.vreg_grid = {0.32};
  const YieldPlan other(tech(), surrogate(), options);
  Campaign campaign(path);
  EXPECT_THROW(run_yield(other, &campaign), InvalidArgument);
}

TEST(YieldDeterminism, ReduceJournalRequiresMatchingFingerprintAndAllTasks) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  options.block_cells = 256;
  const YieldPlan plan(tech(), surrogate(), options);
  const std::string path = journal_path("reduce_validation.journal");
  fs::remove(path);
  {
    Campaign campaign(path);
    run_yield(plan, &campaign);
  }
  // A full journal reduces to the same result without re-sampling.
  expect_bit_identical(reduce_yield_journal(plan, path), run_yield(plan));

  // A plan with another configuration must be refused.
  YieldEngineOptions other = options;
  other.seed ^= 0xBEEF;
  EXPECT_THROW(
      reduce_yield_journal(YieldPlan(tech(), surrogate(), other), path),
      InvalidArgument);

  // A journal missing tasks must be refused, not silently under-reduced.
  const std::string partial = journal_path("reduce_partial.journal");
  fs::remove(partial);
  {
    Campaign campaign(partial);
    campaign.bind_sweep(YieldPlan::kSalt, plan.fingerprint());
    campaign.record_result(plan.key_of(0),
                           plan.encode_block(plan.run_block(0)));
  }
  EXPECT_THROW(reduce_yield_journal(plan, partial), InvalidArgument);
}

// ---------- cross-cell candidate batching ------------------------------------

// Sampled variation fields for the cross-kernel equivalence matrix; the
// seeds deliberately span weak and strong fields so lanes retire at
// different rounds inside one batch.
std::vector<CellVariation> cross_fields(std::uint64_t seed, int n) {
  std::vector<CellVariation> fields;
  fields.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    fields.push_back(sample_cell_variation(seed, 0, static_cast<std::uint64_t>(i)));
  return fields;
}

TEST(CrossBatch, AgreesWithSoloKernelOnSampledFields) {
  const std::vector<CellVariation> fields = cross_fields(0xC5u, 13);
  std::vector<CoreCell> cells;
  cells.reserve(fields.size());
  std::vector<const CoreCell*> ptrs;
  for (const CellVariation& v : fields) {
    cells.emplace_back(tech(), v);
    ptrs.push_back(&cells.back());
  }
  std::vector<DrvResult> cross(cells.size());
  drv_ds_cross_batched(ptrs.data(), ptrs.size(), 25.0, CrossDrvOptions{},
                       cross.data());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const DrvResult solo = drv_ds(cells[i], 25.0);
    // The cross engine replays the solo per-lane trajectory exactly (same
    // expression trees, same round schedule, per-lane state only), so the
    // vector backend owes agreement to within the lane solver's own ulp
    // contract — measured bit-exact on every shipped backend.
    EXPECT_NEAR(cross[i].drv1, solo.drv1, 1e-12) << "cell " << i;
    EXPECT_NEAR(cross[i].drv0, solo.drv0, 1e-12) << "cell " << i;
  }
}

TEST(CrossBatch, BitIdenticalToSoloUnderForcedScalarSimd) {
  const ScopedKernelConfig simd(&KernelConfig::simd, Kernel::Reference);
  const std::vector<CellVariation> fields = cross_fields(0xC6u, 7);
  std::vector<CoreCell> cells;
  cells.reserve(fields.size());
  std::vector<const CoreCell*> ptrs;
  for (const CellVariation& v : fields) {
    cells.emplace_back(tech(), v);
    ptrs.push_back(&cells.back());
  }
  std::vector<DrvResult> cross(cells.size());
  drv_ds_cross_batched(ptrs.data(), ptrs.size(), 25.0, CrossDrvOptions{},
                       cross.data());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const DrvResult solo = drv_ds(cells[i], 25.0);
    EXPECT_EQ(key_bits(cross[i].drv1), key_bits(solo.drv1)) << "cell " << i;
    EXPECT_EQ(key_bits(cross[i].drv0), key_bits(solo.drv0)) << "cell " << i;
  }
}

TEST(CrossBatch, StragglerEvictionIsResultNeutral) {
  const std::vector<CellVariation> fields = cross_fields(0xC7u, 9);
  std::vector<CoreCell> cells;
  cells.reserve(fields.size());
  std::vector<const CoreCell*> ptrs;
  for (const CellVariation& v : fields) {
    cells.emplace_back(tech(), v);
    ptrs.push_back(&cells.back());
  }
  CrossDrvOptions starved;
  starved.scan_round_budget = 1;  // no lane can finish its scan in one round
  CrossDrvStats stats;
  std::vector<DrvResult> evicted(cells.size());
  drv_ds_cross_batched(ptrs.data(), ptrs.size(), 25.0, starved,
                       evicted.data(), &stats);
  EXPECT_GT(stats.evicted, 0u);
  // Evicted lanes re-solve through the solo batched kernel, so starving the
  // budget must change cost accounting only, never a result bit.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const DrvResult solo = drv_ds(cells[i], 25.0);
    EXPECT_EQ(key_bits(evicted[i].drv1), key_bits(solo.drv1)) << "cell " << i;
    EXPECT_EQ(key_bits(evicted[i].drv0), key_bits(solo.drv0)) << "cell " << i;
  }
}

TEST(YieldExactBatch, CurveBitIdenticalAcrossBatchKinds) {
  const YieldEngineOptions options = small_options(YieldMode::Blockade);
  YieldResult one, lane;
  {
    const ScopedKernelConfig s(&KernelConfig::yield_exact, Kernel::Reference);
    one = run_yield(YieldPlan(tech(), surrogate(), options));
  }
  {
    const ScopedKernelConfig s(&KernelConfig::yield_exact, Kernel::Production);
    lane = run_yield(YieldPlan(tech(), surrogate(), options));
  }
  ASSERT_GT(lane.candidates, 0u);  // the gate must actually stage work
  expect_bit_identical(lane, one);

  // BruteForceExact stages *every* sampled cell through the batch path.
  YieldEngineOptions brute = small_options(YieldMode::BruteForceExact);
  brute.rows = 16;
  brute.cols = 16;
  brute.trials = 1;
  brute.block_cells = 128;
  {
    const ScopedKernelConfig s(&KernelConfig::yield_exact, Kernel::Reference);
    one = run_yield(YieldPlan(tech(), surrogate(), brute));
  }
  {
    const ScopedKernelConfig s(&KernelConfig::yield_exact, Kernel::Production);
    lane = run_yield(YieldPlan(tech(), surrogate(), brute));
  }
  EXPECT_EQ(lane.exact_solves, lane.samples);
  expect_bit_identical(lane, one);
}

TEST(YieldExactBatch, ScalarCellKernelFallsBackResultNeutral) {
  // LaneBatch requires the batched cell kernel; under a scalar cell-kernel
  // default the engine must quietly take the one-at-a-time path and still
  // produce the scalar oracle's exact bits.
  const ScopedKernelConfig kernel(&KernelConfig::cell, Kernel::Reference);
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  YieldResult one, lane;
  {
    const ScopedKernelConfig s(&KernelConfig::yield_exact, Kernel::Reference);
    one = run_yield(YieldPlan(tech(), surrogate(), options));
  }
  {
    const ScopedKernelConfig s(&KernelConfig::yield_exact, Kernel::Production);
    lane = run_yield(YieldPlan(tech(), surrogate(), options));
  }
  expect_bit_identical(lane, one);
}

TEST(YieldExactBatch, FingerprintAndManifestRefuseMismatchedBatchKind) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  const std::string path = journal_path("batch_kind_refusal.journal");
  fs::remove(path);
  std::uint64_t lane_fp = 0;
  {
    const ScopedKernelConfig s(&KernelConfig::yield_exact, Kernel::Production);
    const YieldPlan plan(tech(), surrogate(), options);
    lane_fp = plan.fingerprint();
    Campaign campaign(path);
    run_yield(plan, &campaign);
  }
  const ScopedKernelConfig s(&KernelConfig::yield_exact, Kernel::Reference);
  const YieldPlan plan(tech(), surrogate(), options);
  EXPECT_NE(plan.fingerprint(), lane_fp);
  // Same options, same journal — but the journal was recorded under the
  // other batch kind, so the bit-identity claim is exactly what the resume
  // refusal enforces.
  Campaign campaign(path);
  EXPECT_THROW(run_yield(plan, &campaign), InvalidArgument);
}

// ---------- pilot shift search ----------------------------------------------

TEST(YieldPilot, DeterministicInRangeAndFingerprinted) {
  YieldEngineOptions options = small_options(YieldMode::ImportanceSampled);
  options.auto_shift = true;
  options.pilot_samples = 2048;
  const YieldPlan a(tech(), surrogate(), options);
  const YieldPlan b(tech(), surrogate(), options);
  ASSERT_TRUE(a.pilot().tuned);
  EXPECT_GE(a.pilot().shift, options.pilot_shift_lo);
  EXPECT_LE(a.pilot().shift, options.pilot_shift_hi);
  EXPECT_GT(a.pilot().objective, 0.0);
  EXPECT_EQ(a.pilot().samples, options.pilot_samples);
  // Pure function of (seed, surrogate, options): the twin plan lands on the
  // same shift bit-for-bit and the same manifest fingerprint.
  EXPECT_EQ(key_bits(a.pilot().shift), key_bits(b.pilot().shift));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  expect_bit_identical(run_yield(a), run_yield(b));

  // Every pilot knob is part of the manifest...
  YieldEngineOptions other = options;
  other.pilot_steps += 2;
  EXPECT_NE(a.fingerprint(),
            YieldPlan(tech(), surrogate(), other).fingerprint());
  // ...and a hand-shifted plan that happens to match the tuned shift is
  // still a distinct configuration.
  YieldEngineOptions hand = small_options(YieldMode::ImportanceSampled);
  hand.is_shift = a.pilot().shift;
  EXPECT_NE(a.fingerprint(),
            YieldPlan(tech(), surrogate(), hand).fingerprint());
}

TEST(YieldPilot, TunedShiftTailEssNoWorseThanHandTuned) {
  // The suite's hand-tuned baseline (is_shift = 2.5 in small_options) vs the
  // pilot-tuned plan, scored by the quantity the pilot optimizes: the worst
  // failure-restricted ESS over grid points that saw failures.
  const auto min_tail_ess = [](const YieldResult& r) {
    double m = std::numeric_limits<double>::infinity();
    for (const YieldPoint& pt : r.points)
      if (pt.failures > 0) m = std::min(m, pt.tail.tail_ess);
    return m;
  };
  const YieldEngineOptions hand = small_options(YieldMode::ImportanceSampled);
  YieldEngineOptions tuned = hand;
  tuned.auto_shift = true;
  const YieldPlan hand_plan(tech(), surrogate(), hand);
  const YieldPlan tuned_plan(tech(), surrogate(), tuned);
  const double hand_ess = min_tail_ess(run_yield(hand_plan));
  const double tuned_ess = min_tail_ess(run_yield(tuned_plan));
  ASSERT_TRUE(std::isfinite(hand_ess));
  ASSERT_TRUE(std::isfinite(tuned_ess));
  // "No worse" up to pilot-vs-final sampling noise: the pilot scores shifts
  // on its own 4096-sample surrogate run, so it can trade a few percent at
  // the achieved optimum but must never fall materially below the baseline.
  EXPECT_GE(tuned_ess, 0.9 * hand_ess)
      << "tuned shift " << tuned_plan.pilot().shift << " vs hand 2.5";
}

// ---------- operator summary -------------------------------------------------

TEST(YieldSummary, LineReportsEngineAccounting) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  const YieldPlan plan(tech(), surrogate(), options);
  const YieldResult result = run_yield(plan);
  const std::string line = yield_summary_line(plan, result);
  EXPECT_NE(line.find("mode=blockade"), std::string::npos) << line;
  EXPECT_NE(line.find("exact-batch="), std::string::npos) << line;
  EXPECT_NE(line.find("samples=" + std::to_string(result.samples)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("candidates=" + std::to_string(result.candidates)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("exact_solves=" + std::to_string(result.exact_solves)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("ess="), std::string::npos) << line;
  EXPECT_EQ(line.find("shift="), std::string::npos) << line;  // not IS mode

  YieldEngineOptions is_options = small_options(YieldMode::ImportanceSampled);
  is_options.auto_shift = true;
  const YieldPlan is_plan(tech(), surrogate(), is_options);
  const std::string is_line =
      yield_summary_line(is_plan, run_yield(is_plan));
  EXPECT_NE(is_line.find("mode=importance-sampled"), std::string::npos)
      << is_line;
  EXPECT_NE(is_line.find("shift="), std::string::npos) << is_line;
  EXPECT_NE(is_line.find("(pilot-tuned)"), std::string::npos) << is_line;
}

#ifdef LPSRAM_YIELD_POSIX
TEST(YieldDeterminism, FabricShardedFleetReducesBitIdentical) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  options.block_cells = 256;  // 4 tasks across 2 workers
  const YieldPlan plan(tech(), surrogate(), options);
  const YieldResult golden = run_yield(plan);

  const fs::path dir = fs::path("yield-journals") / "fabric_fleet";
  fs::remove_all(dir);
  fs::create_directories(dir);

  fabric::FabricOptions fabric_options;
  fabric_options.dir = dir.string();
  fabric_options.workers = 2;
  fabric_options.worker_threads = 1;
  fabric_options.salt = YieldPlan::kSalt;
  fabric_options.fingerprint = plan.fingerprint();
  const fabric::FabricReport report = fabric::run_fabric(
      fabric_options, plan.task_count(),
      [&plan](std::uint64_t i) { return plan.key_of(i); },
      [&plan](std::uint64_t i, int) {
        return plan.encode_block(plan.run_block(i));
      });
  EXPECT_EQ(report.tasks_total, plan.task_count());

  expect_bit_identical(reduce_yield_journal(plan, fabric_options.merged_path()),
                       golden);
}
#endif  // LPSRAM_YIELD_POSIX

}  // namespace
}  // namespace lpsram
