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
//  - SolveCache: a sharded, thread-safe memo of DC operating points keyed by
//    (netlist signature, sweep-task key, defect id) with entries sorted by
//    defect resistance. Sweep drivers hand it to the VoltageRegulator, whose
//    warm-start rung then seeds from the nearest cached neighbour during
//    bisection instead of cold-starting every point. Keys carry the task key
//    so lookups never cross task boundaries — a task's solve sequence is
//    identical whether other tasks run before, after, or concurrently.
//
//  - SweepTelemetry: per-sweep aggregate (task count, thread count, wall/CPU
//    time, merged SolveTelemetry with per-rung attempt and cache counters)
//    surfaced on every sweep result.
//
// Determinism contract (relied on by tests/test_parallel.cpp): for a fixed
// input and cache mode, every sweep driver built on this executor produces
// bit-identical results and identical quarantine sets at any thread count,
// including under chaos fault injection (tasks scope their chaos via
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
#include <unordered_map>
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
// SolveCache

// Key of one cached operating-point family. `circuit` fingerprints the
// netlist state *excluding* the swept defect resistance (plus ambient
// conditions the netlist does not capture, e.g. temperature and test load);
// `task` scopes entries to one sweep task so lookups are deterministic under
// parallel execution; `defect` is the injected defect id (0 = none).
struct SolveCacheKey {
  std::uint64_t circuit = 0;
  std::uint64_t task = 0;
  std::int32_t defect = 0;

  bool operator==(const SolveCacheKey&) const noexcept = default;
};

struct SolveCacheKeyHash {
  std::size_t operator()(const SolveCacheKey& k) const noexcept {
    return static_cast<std::size_t>(
        mix64(k.circuit ^ mix64(k.task ^ static_cast<std::uint64_t>(
                                             static_cast<std::uint32_t>(k.defect)))));
  }
};

// Thread-safe memo of DC operating points, sharded by key hash so concurrent
// tasks rarely contend. Within a key, entries are kept sorted by
// log(defect resistance) and lookup returns the nearest stored neighbour —
// the natural warm start while a bisection closes in on a threshold.
class SolveCache {
 public:
  SolveCache();

  // Nearest stored operating point for `key` by |log r - log entry.r|.
  // Returns false (and leaves *x alone) when the key has no entries.
  bool lookup_nearest(const SolveCacheKey& key, double r,
                      std::vector<double>* x) const;

  // Stores (r, x) under `key`; replaces the entry if this exact r is already
  // present.
  void store(const SolveCacheKey& key, double r, const std::vector<double>& x);

  void clear();
  std::size_t size() const;  // total entries across all keys

  // Process-lifetime counters (atomic; monotonically increasing across
  // clear()). For deterministic per-sweep accounting use the cache_* fields
  // of SolveTelemetry, which the solve owner counts locally.
  std::uint64_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const noexcept { return misses_.load(std::memory_order_relaxed); }
  std::uint64_t stores() const noexcept { return stores_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    double log_r = 0.0;
    std::vector<double> x;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<SolveCacheKey, std::vector<Entry>, SolveCacheKeyHash> map;
  };

  static constexpr std::size_t kShards = 16;

  Shard& shard_for(const SolveCacheKey& key) const noexcept;

  mutable std::vector<Shard> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
};

// ---------------------------------------------------------------------------
// SweepTelemetry

// Aggregate telemetry of one sweep run, surfaced on every sweep result.
// The `solves` sub-telemetry (solve counts, per-rung attempts, cache
// counters) is deterministic for a fixed input + cache mode; the wall/CPU
// timings are not.
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
