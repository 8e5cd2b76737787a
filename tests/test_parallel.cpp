// Tests for the parallel sweep executor, the warm-start solve cache, the
// task-scoped observer hooks, and — the load-bearing property — bit-identical
// sweep results at any thread count, cache on or off, under chaos.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "lpsram/regulator/regulator.hpp"
#include "lpsram/runtime/chaos.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/spice/hooks.hpp"
#include "lpsram/testflow/defect_characterization.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"

namespace lpsram {
namespace {

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

// ---------- SweepExecutor ---------------------------------------------------

TEST(SweepExecutor, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    SweepExecutorOptions options;
    options.threads = threads;
    SweepExecutor executor(options);
    EXPECT_EQ(executor.threads(), threads);

    std::vector<std::atomic<int>> hits(97);
    executor.run(hits.size(), [&](std::size_t i, int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, threads);
      hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(SweepExecutor, ZeroTasksReturnsImmediately) {
  SweepExecutor executor({4, 0, true});
  bool ran = false;
  executor.run(0, [&](std::size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(SweepExecutor, IsReusableAcrossRuns) {
  SweepExecutor executor({4, 0, true});
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> count{0};
    executor.run(20, [&](std::size_t, int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 20);
  }
}

TEST(SweepExecutor, SerialThrowPropagatesImmediately) {
  SweepExecutor executor({1, 0, true});
  std::vector<int> ran;
  try {
    executor.run(6, [&](std::size_t i, int) {
      ran.push_back(static_cast<int>(i));
      if (i == 2) throw Error("boom at 2");
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom at 2");
  }
  // Inline serial loop: nothing past the throwing index ran.
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
}

TEST(SweepExecutor, ParallelRethrowsLowestIndexError) {
  // fail_fast off: every task runs, so the error choice is deterministic.
  SweepExecutor executor({4, 0, false});
  try {
    executor.run(16, [&](std::size_t i, int) {
      if (i == 3 || i == 11)
        throw Error("boom at " + std::to_string(i));
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom at 3");
  }
}

TEST(SweepExecutor, FailFastStopsClaimingNewWork) {
  SweepExecutor executor({2, 0, true});
  std::atomic<int> ran{0};
  EXPECT_THROW(executor.run(10000,
                            [&](std::size_t, int) {
                              ran.fetch_add(1);
                              throw Error("first task fails");
                            }),
               Error);
  // Cancellation kicks in after the first failure; with 2 workers only a
  // handful of tasks can already be in flight.
  EXPECT_LT(ran.load(), 100);
}

TEST(SweepExecutor, WorkerSlotsAreExclusive) {
  const int threads = 4;
  SweepExecutor executor({threads, 0, true});
  std::vector<std::atomic<int>> in_use(threads);
  std::atomic<bool> overlap{false};
  executor.run(200, [&](std::size_t, int worker) {
    if (in_use[worker].fetch_add(1) != 0) overlap.store(true);
    // A tiny busy loop widens the window a real overlap would need.
    volatile int sink = 0;
    for (int k = 0; k < 1000; ++k) sink = sink + k;
    in_use[worker].fetch_sub(1);
  });
  EXPECT_FALSE(overlap.load());
}

TEST(SweepExecutor, DefaultThreadsReadsEnvironment) {
  const char* saved = std::getenv("LPSRAM_THREADS");
  const std::string saved_value = saved ? saved : "";
  ::setenv("LPSRAM_THREADS", "3", 1);
  EXPECT_EQ(SweepExecutor::default_threads(), 3);
  if (saved)
    ::setenv("LPSRAM_THREADS", saved_value.c_str(), 1);
  else
    ::unsetenv("LPSRAM_THREADS");
  EXPECT_GE(SweepExecutor::default_threads(), 1);
}

// ---------- SolveCache ------------------------------------------------------

TEST(SolveCache, NearestNeighbourInLogResistance) {
  SolveCache cache;
  const SolveCacheKey key{1, 2, 3};
  cache.store(key, 1e3, {1.0, 2.0});
  cache.store(key, 1e6, {3.0, 4.0});
  EXPECT_EQ(cache.size(), 2u);

  std::vector<double> x;
  // 2e3 sits closest to the 1e3 entry...
  ASSERT_TRUE(cache.lookup_nearest(key, 2e3, &x));
  EXPECT_EQ(x, (std::vector<double>{1.0, 2.0}));
  // ...1e5 is one decade from 1e6 but two from 1e3.
  ASSERT_TRUE(cache.lookup_nearest(key, 1e5, &x));
  EXPECT_EQ(x, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(SolveCache, KeysIsolateCircuitTaskAndDefect) {
  SolveCache cache;
  cache.store(SolveCacheKey{1, 2, 3}, 1e3, {1.0});
  std::vector<double> x;
  EXPECT_FALSE(cache.lookup_nearest(SolveCacheKey{9, 2, 3}, 1e3, &x));
  EXPECT_FALSE(cache.lookup_nearest(SolveCacheKey{1, 9, 3}, 1e3, &x));
  EXPECT_FALSE(cache.lookup_nearest(SolveCacheKey{1, 2, 9}, 1e3, &x));
  EXPECT_TRUE(cache.lookup_nearest(SolveCacheKey{1, 2, 3}, 1e3, &x));
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(SolveCache, StoreReplacesExactResistance) {
  SolveCache cache;
  const SolveCacheKey key{1, 1, 1};
  cache.store(key, 1e4, {1.0});
  cache.store(key, 1e4, {2.0});
  EXPECT_EQ(cache.size(), 1u);
  std::vector<double> x;
  ASSERT_TRUE(cache.lookup_nearest(key, 1e4, &x));
  EXPECT_EQ(x, (std::vector<double>{2.0}));
}

TEST(SolveCache, ClearEmptiesAllShards) {
  SolveCache cache;
  for (std::uint64_t i = 0; i < 64; ++i)
    cache.store(SolveCacheKey{i, i, 0}, 1e3, {1.0});
  EXPECT_EQ(cache.size(), 64u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  std::vector<double> x;
  EXPECT_FALSE(cache.lookup_nearest(SolveCacheKey{1, 1, 0}, 1e3, &x));
}

// ---------- task-scoped observer hooks -------------------------------------

class CountingObserver : public SolverObserver {
 public:
  void on_solve_begin() override { ++solves; }
  int solves = 0;
};

TEST(TaskObserver, NonForkingObserverIsSuppressedInsideTasks) {
  CountingObserver observer;
  const ScopedSolverObserver install(&observer);
  EXPECT_EQ(solver_observer(), &observer);
  {
    const ScopedTaskObserver task(42);
    // A plain observer cannot be shared across concurrent tasks, so inside
    // a task scope it is suppressed entirely.
    EXPECT_EQ(task.fork(), nullptr);
    EXPECT_EQ(solver_observer(), nullptr);
    EXPECT_EQ(session_solver_observer(), &observer);
  }
  EXPECT_EQ(solver_observer(), &observer);
}

TEST(TaskObserver, ChaosForkIsInstalledAndMergesCounters) {
  ChaosPolicy policy;
  policy.seed = 5;
  policy.first_attempt_failure_rate = 1.0;
  policy.retry_failure_rate = 1.0;
  ChaosEngine chaos(policy);
  const ChaosScope scope(chaos);
  {
    const ScopedTaskObserver task(7);
    ASSERT_NE(task.fork(), nullptr);
    EXPECT_EQ(solver_observer(), task.fork());
    for (int i = 0; i < 5; ++i) solver_observer()->on_solve_begin();
    // The parent has not absorbed the fork yet.
    EXPECT_EQ(chaos.solves_seen(), 0u);
  }
  EXPECT_EQ(chaos.solves_seen(), 5u);
  EXPECT_EQ(chaos.solves_sabotaged(), 5u);  // rate 1.0
}

TEST(TaskObserver, ChaosForkDecisionsDependOnlyOnTaskKey) {
  ChaosPolicy policy;
  policy.seed = 99;
  policy.first_attempt_failure_rate = 0.4;
  ChaosEngine chaos(policy);

  // Drives a fork through 32 solve-begin events and records the cumulative
  // sabotage count after each: the exact decision sequence.
  const auto sabotage_pattern = [&](std::uint64_t task_key) {
    auto fork = chaos.fork_for_task(task_key);
    auto* child = static_cast<ChaosEngine*>(fork.get());
    std::vector<std::uint64_t> pattern;
    for (int i = 0; i < 32; ++i) {
      child->on_solve_begin();
      pattern.push_back(child->solves_sabotaged());
    }
    return pattern;
  };

  const auto a = sabotage_pattern(123);
  const auto b = sabotage_pattern(123);
  const auto c = sabotage_pattern(124);
  EXPECT_EQ(a, b);   // same task: same decisions
  EXPECT_NE(a, c);   // different task: reseeded stream
}

// ---------- regulator + cache integration ----------------------------------

TEST(RegulatorCache, ColdStartsSeedFromNearestNeighbour) {
  SolveCache cache;
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_solve_cache(&cache, 1);
  reg.set_regon(true);
  reg.set_power_switch(false);

  // First solve of a defect sweep: cold, miss, stored.
  reg.inject_defect(16, 1e5);
  const double v1 = reg.vreg_dc(25.0);
  EXPECT_EQ(reg.solve_telemetry().cache_misses, 1u);
  EXPECT_GE(reg.solve_telemetry().cache_stores, 1u);

  // Next bisection probe: inject_defect cleared the warm start, but the
  // cache supplies the neighbouring operating point.
  reg.inject_defect(16, 2e5);
  const double v2 = reg.vreg_dc(25.0);
  EXPECT_EQ(reg.solve_telemetry().cache_hits, 1u);
  // The cache seed entered through the warm-start rung.
  EXPECT_GE(reg.solve_telemetry().warm_hits, 1u);
  (void)v1;

  // The cached seed accelerates the solve but must not distort it: a fresh
  // cache-less regulator lands on the same operating point.
  VoltageRegulator reference(tech(), Corner::Typical);
  reference.inject_defect(16, 2e5);
  EXPECT_NEAR(v2, reference.vreg_dc(25.0), 1e-6);
}

TEST(RegulatorCache, DetachingStopsCounting) {
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_regon(true);
  reg.set_power_switch(false);
  reg.vreg_dc(25.0);
  EXPECT_EQ(reg.solve_telemetry().cache_hits, 0u);
  EXPECT_EQ(reg.solve_telemetry().cache_misses, 0u);
  EXPECT_EQ(reg.solve_telemetry().cache_stores, 0u);
}

// ---------- determinism across thread counts (the tentpole contract) --------

DefectCharacterizationOptions sweep_options(int threads, bool solve_cache) {
  DefectCharacterizationOptions o;
  o.pvt = {PvtPoint{Corner::FastNSlowP, 1.0, 125.0},
           PvtPoint{Corner::Typical, 1.1, 125.0}};
  o.rel_tolerance = 1.10;
  o.threads = threads;
  o.solve_cache = solve_cache;
  return o;
}

// Deterministic fingerprint of everything a sweep result asserts.
struct CellFingerprint {
  double min_resistance;
  bool open_only;
  Corner worst_corner;
  double worst_vdd;
  double worst_temp;
  VrefLevel vref;
  std::size_t attempted;
  std::size_t completed;
  std::vector<std::string> quarantined;  // context + error_type, in order
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

std::vector<CellFingerprint> run_sweep(
    int threads, bool solve_cache, Kernel solver = Kernel::Production) {
  // Pin the whole sweep (every Newton solve down the stack) onto one linear
  // kernel: the production sparse LU or the dense reference.
  const ScopedKernelConfig kernel(&KernelConfig::linear_solver, solver);
  // Chaos that sabotages some first attempts AND some retries: a fixed,
  // seed-driven mixture of recovered solves and quarantined points. The
  // fingerprints below assert both kinds are identical at every thread
  // count.
  ChaosPolicy policy;
  policy.seed = 11;
  policy.first_attempt_failure_rate = 0.35;
  policy.retry_failure_rate = 0.10;
  ChaosEngine chaos(policy);
  const ChaosScope scope(chaos);

  const DefectCharacterizer ch(tech(), sweep_options(threads, solve_cache));
  const std::vector<DefectId> defects = {16, 19};
  const std::vector<CaseStudy> cs = {case_study(1, true)};
  const auto rows = ch.table(defects, cs);

  std::vector<CellFingerprint> fps;
  for (const auto& row : rows)
    for (const DefectCsResult& cell : row) fps.push_back(fingerprint(cell));
  return fps;
}

TEST(SweepDeterminism, BitIdenticalAcrossThreadCountsCacheOff) {
  const auto serial = run_sweep(1, false);
  EXPECT_EQ(run_sweep(2, false), serial);
  EXPECT_EQ(run_sweep(8, false), serial);
}

TEST(SweepDeterminism, BitIdenticalAcrossThreadCountsCacheOn) {
  const auto serial = run_sweep(1, true);
  EXPECT_EQ(run_sweep(2, true), serial);
  EXPECT_EQ(run_sweep(8, true), serial);
  // The cache actually engaged (bisection probes after the first find a
  // neighbour).
  std::uint64_t hits = 0;
  for (const auto& fp : serial) hits += fp.cache_hits;
  EXPECT_GT(hits, 0u);
}

// The determinism contract holds separately on each linear kernel: like the
// solve cache, the sparse/dense choice may change which operating point a
// solve lands on by last-ulp amounts, but thread count never may.
TEST(SweepDeterminism, BitIdenticalAcrossThreadCountsSparseKernel) {
  const auto serial = run_sweep(1, false, Kernel::Production);
  EXPECT_EQ(run_sweep(2, false, Kernel::Production), serial);
  EXPECT_EQ(run_sweep(8, false, Kernel::Production), serial);
}

TEST(SweepDeterminism, BitIdenticalAcrossThreadCountsDenseKernel) {
  const auto serial = run_sweep(1, false, Kernel::Reference);
  EXPECT_EQ(run_sweep(2, false, Kernel::Reference), serial);
  EXPECT_EQ(run_sweep(8, false, Kernel::Reference), serial);
}

}  // namespace
}  // namespace lpsram
