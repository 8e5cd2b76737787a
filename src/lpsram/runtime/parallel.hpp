// Parallel sweep execution for the resilient runtime.
//
// Three pieces, designed together so parallel sweeps stay bit-identical to
// serial ones:
//
//  - SweepExecutor: a fixed-size thread pool running an indexed task list.
//    Tasks are claimed in chunks off an atomic cursor; results (and
//    exceptions) land in per-index slots, and every *reduction* the sweep
//    drivers perform happens afterwards in index order on the calling
//    thread. The parallel schedule therefore affects wall-clock only, never
//    results. With threads == 1 the executor degenerates to a plain serial
//    loop (no pool, immediate exception propagation).
//
//  - OperatingPointChain: the DC operating points one sweep task has
//    solved, keyed by circuit state and defect and sorted by defect
//    resistance. Each SweepTask owns one and lends it to the task's
//    regulators, whose warm-start rung then seeds from the nearest solved
//    neighbour during bisection instead of cold-starting every point. A
//    chain never outlives its task and no two threads share one, so a
//    task's solve sequence is identical whether other tasks run before,
//    after, or concurrently.
//
//  - SweepTelemetry: per-sweep aggregate (task count, thread count, wall/CPU
//    time, merged SolveTelemetry with per-rung attempt and chain counters)
//    surfaced on every sweep result.
//
// Determinism contract (relied on by tests/test_parallel.cpp): for a fixed
// input, every sweep driver built on this executor produces bit-identical
// results and identical quarantine sets at any thread count, including
// under chaos fault injection (tasks scope their chaos via
// ScopedTaskObserver, see spice/hooks.hpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lpsram/runtime/solve_outcome.hpp"

namespace lpsram {

// splitmix64 finalizer — the runtime's standard mixing function (shared with
// the chaos harness). Exposed so sweep drivers derive task keys uniformly;
// inline because the yield engine's counter RNG runs it per random draw.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-sensitive key fold: task_key(a, b, c) != task_key(b, a, c) etc.
inline std::uint64_t fold_key(std::uint64_t h, std::uint64_t v) noexcept {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

// Raw IEEE-754 bits of a double — how real-valued configuration (tolerances,
// grid values) folds into task keys and campaign manifest fingerprints
// without rounding ambiguity.
inline std::uint64_t key_bits(double v) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// ---------------------------------------------------------------------------
// SweepExecutor

struct SweepExecutorOptions {
  // Worker count. 0 = automatic: the LPSRAM_THREADS environment variable if
  // set, else std::thread::hardware_concurrency(). Clamped to >= 1.
  int threads = 0;
  // Indices claimed per cursor fetch. 0 = automatic (1: sweep tasks are
  // seconds-long solve chains, so fine-grained claiming balances best).
  int chunk = 0;
  // Stop claiming new work once a task throws. The first-by-index exception
  // is rethrown either way; fail_fast only controls how much of the
  // remaining work still runs before the rethrow.
  bool fail_fast = true;
};

class SweepExecutor {
 public:
  explicit SweepExecutor(SweepExecutorOptions options = {});
  ~SweepExecutor();

  SweepExecutor(const SweepExecutor&) = delete;
  SweepExecutor& operator=(const SweepExecutor&) = delete;

  // Runs body(i) for every i in [0, count) and returns when all claimed
  // work has finished. The calling thread participates as worker slot 0;
  // body receives (index, worker) where worker in [0, threads()) identifies
  // the executing slot (for per-worker scratch state such as characterizer
  // instances — a slot runs at most one task at a time). If any body threw,
  // the exception with the lowest index is rethrown after the pool drains;
  // with threads() == 1 tasks run inline in index order, so the first throw
  // propagates immediately (same exception choice, less work executed).
  void run(std::size_t count,
           const std::function<void(std::size_t index, int worker)>& body);

  // Resolved worker count (>= 1).
  int threads() const noexcept { return threads_; }

  // The automatic thread count used when options.threads == 0.
  static int default_threads();

  // Per-process executor budget for a fleet of `processes` cooperating
  // worker processes (the campaign fabric forks one executor per worker):
  // splits default_threads() evenly so the fleet as a whole does not
  // oversubscribe the host. Always >= 1.
  static int threads_per_process(int processes);

 private:
  struct Batch;  // one run() invocation's shared state

  void worker_loop(int worker);

  int threads_ = 1;
  int chunk_ = 1;
  bool fail_fast_ = true;

  // Pool state (only initialised when threads_ > 1).
  std::mutex mutex_;
  std::condition_variable cv_;       // workers wait for a batch or shutdown
  std::condition_variable done_cv_;  // run() waits for batch completion
  Batch* batch_ = nullptr;           // current batch, guarded by mutex_
  std::uint64_t batch_id_ = 0;       // bumped per run() so workers re-wake
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// ---------------------------------------------------------------------------
// OperatingPointChain

// The DC operating points one sweep task has solved. Points fall into
// families by Key; within a family they are kept sorted by log(defect
// resistance), and nearest() returns the neighbour nearest in |log r| — the
// natural warm start while a bisection closes in on a threshold. Not
// thread-safe: a chain belongs to one task on one thread. Allocates nothing
// until the first store.
class OperatingPointChain {
 public:
  // `circuit` fingerprints the netlist state *excluding* the swept defect
  // resistance, folded with what the netlist does not capture (temperature
  // and test load); `defect` is the injected defect id (0 = none).
  struct Key {
    std::uint64_t circuit = 0;
    std::int32_t defect = 0;

    bool operator==(const Key&) const noexcept = default;
  };

  // The point of `key` nearest r by |log r - log entry.r|, the lower one on
  // a tie; nullptr when `key` has none. Valid until the next store().
  const std::vector<double>* nearest(const Key& key, double r) const;

  // Stores (r, x) under `key`, replacing the point already stored at r.
  void store(const Key& key, double r, const std::vector<double>& x);

 private:
  struct Point {
    double log_r = 0.0;
    std::vector<double> x;
  };
  struct Family {
    Key key;
    std::vector<Point> points;  // sorted by log_r
  };

  // A task touches a handful of circuit states, so a linear scan finds its
  // family.
  std::vector<Family> families_;
};

// ---------------------------------------------------------------------------
// SweepTelemetry

// Aggregate telemetry of one sweep run, surfaced on every sweep result.
// The `solves` sub-telemetry (solve counts, per-rung attempts, chain
// counters) is deterministic for a fixed input; the wall/CPU timings are
// not.
struct SweepTelemetry {
  std::size_t tasks = 0;   // executor tasks run (attempted + quarantined)
  int threads = 1;         // worker count the sweep ran with
  double wall_s = 0.0;     // wall-clock of the sweep [s]
  double cpu_s = 0.0;      // sum of per-task wall-clock [s] (~CPU time)
  SolveTelemetry solves;   // merged per-task solve telemetry, in task order

  double cache_hit_rate() const noexcept {
    const std::uint64_t total = solves.cache_hits + solves.cache_misses;
    return total ? static_cast<double>(solves.cache_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }

  // "12 tasks on 4 threads: 312 solves, 58.3% cache hits, 1.9 s wall
  //  (7.1 s cpu)"
  std::string summary() const;
};

}  // namespace lpsram
