// The one sweep runner every journaled driver (Tables II and III, Fig. 4,
// regulation metrics, the yield engine) runs on.
//
// A driver describes its sweep as a SweepPlan: manifest salt and
// configuration fingerprint, task count, stable task keys, and a task body
// returning the task's journal payload. SweepRunner does the rest: it binds
// the manifest with the kernel kinds folded in, replays journaled tasks, runs
// the others on its executor (one ScopedTaskObserver per task, a cancel poll
// at each start), times them, quarantines a failing task when the plan
// allows, journals each payload with the operating points its task cached,
// and totals the SweepTelemetry. Fresh and replayed payloads are decoded by
// the same code, so a resumed run reduces exactly as an uninterrupted one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/runtime/quarantine.hpp"
#include "lpsram/util/cancel.hpp"

namespace lpsram {

// Folds the cell-analysis, SIMD and transient-batching fields of the
// kernel config (util/kernel_config.hpp), in that order, into a
// fingerprint. Each moves results within solver noise, so a journal
// recorded under one kernel must be refused under another rather than
// silently blend near-identical tables. The linear solver stays unfolded.
std::uint64_t fold_kernel_kinds(std::uint64_t fingerprint) noexcept;

// A task in flight, as the plan's task body sees it.
class SweepTask {
 public:
  std::size_t index = 0;
  int worker = 0;               // executor slot, for per-worker scratch
  std::uint64_t key = 0;        // plan.key_of(index)
  SolveCache* cache = nullptr;  // the sweep's warm-start cache, or nullptr

  // Attributes to this task what `source` counts from now until the task
  // ends, a quarantined failure included — so `source` must outlive the
  // task body (a solver in per-worker scratch, not on the body's stack).
  void count_solves(std::function<SolveTelemetry()> source);

 private:
  friend class SweepRunner;
  std::function<SolveTelemetry()> source_;
  SolveTelemetry before_;
};

struct SweepPlan {
  std::uint64_t salt = 0;
  std::uint64_t fingerprint = 0;  // the kernel kinds are folded in on bind
  std::size_t count = 0;
  std::function<std::uint64_t(std::size_t index)> key_of;
  std::function<std::vector<std::uint8_t>(SweepTask& task)> task;
  // Quarantine context of a task ("Df16 x CS1-1 @ ..."). A plan with one
  // journals each task framed as
  //   [u8 flags][SolveTelemetry if counted][QuarantinedPoint | payload];
  // one without journals the payload verbatim (the yield engine's blocks,
  // which fleet shards carry too).
  std::function<std::string(std::size_t index)> context;
  bool quarantine = false;  // record a task's Error instead of rethrowing it
  const CancelToken* cancel = nullptr;  // polled at each task's start
  const char* cancel_label = "sweep";
  // Hand tasks a SolveCache, seeded from and journaled to the campaign.
  bool solve_cache = false;
};

// One task's outcome, decoded from its payload.
struct SweepResult {
  std::vector<std::uint8_t> payload;  // empty when quarantined
  std::optional<QuarantinedPoint> quarantined;
  SolveTelemetry solves;  // zero unless counted
  double wall_s = 0.0;    // zero when replayed
};

struct SweepRun {
  std::vector<SweepResult> tasks;  // index order
  SweepReport report;              // every task's outcome, in index order
  SweepTelemetry telemetry;
};

class SweepRunner {
 public:
  explicit SweepRunner(int threads = 0);  // as SweepExecutorOptions::threads

  // Worker slots a task's `worker` indexes.
  int threads() const noexcept { return executor_.threads(); }

  // Runs the plan, replaying what `campaign` (optional) already holds.
  // Throws InvalidArgument if the journal has another manifest, else
  // rethrows the lowest-index task error that was not quarantined.
  SweepRun run(const SweepPlan& plan, Campaign* campaign = nullptr);

 private:
  SweepExecutor executor_;
};

// Decodes every task of a finished journal (a campaign's, or a fabric
// fleet's merge) without running any. Throws InvalidArgument on another
// manifest or a missing task.
SweepRun replay_sweep_journal(const SweepPlan& plan, const std::string& path);

}  // namespace lpsram
