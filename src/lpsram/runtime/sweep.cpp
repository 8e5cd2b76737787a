#include "lpsram/runtime/sweep.hpp"

#include <chrono>

#include "lpsram/spice/dc_solver.hpp"
#include "lpsram/spice/hooks.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"

namespace lpsram {
namespace {

using Clock = std::chrono::steady_clock;
using Payload = std::vector<std::uint8_t>;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Flags byte of a framed payload (a plan with a quarantine context).
constexpr std::uint8_t kQuarantined = 1;  // a QuarantinedPoint, not a payload
constexpr std::uint8_t kCounted = 2;      // the task's SolveTelemetry leads

// Folded into the manifest of every framed plan, so a journal written under
// another payload layout is refused instead of mis-decoded.
constexpr std::uint64_t kFrameLayout = 0x6672616d6531ULL;  // "frame1"

std::uint64_t manifest_of(const SweepPlan& plan) {
  const std::uint64_t fingerprint = fold_kernel_kinds(plan.fingerprint);
  return plan.context ? fold_key(fingerprint, kFrameLayout) : fingerprint;
}

SweepResult decode(const SweepPlan& plan, Payload payload, double wall_s) {
  SweepResult result{std::move(payload), std::nullopt, {}, wall_s};
  if (!plan.context) return result;
  PayloadReader in(result.payload);
  const std::uint8_t flags = in.u8();
  if (flags & kCounted) result.solves = decode_telemetry(in);
  if (flags & kQuarantined) result.quarantined = decode_quarantine(in);
  result.payload.erase(result.payload.begin(),
                       result.payload.end() -
                           static_cast<std::ptrdiff_t>(in.remaining()));
  return result;
}

// Index-ordered decode and totals, shared by a run and a journal replay.
SweepRun collect(const SweepPlan& plan, std::vector<Payload>& payloads,
                 const std::vector<double>& wall_s) {
  SweepRun run;
  run.telemetry.tasks = plan.count;
  run.tasks.reserve(plan.count);
  for (std::size_t i = 0; i < plan.count; ++i) {
    const SweepResult& result = run.tasks.emplace_back(
        decode(plan, std::move(payloads[i]), wall_s[i]));
    if (result.quarantined)
      run.report.quarantine(*result.quarantined);
    else
      run.report.add_success();
    run.telemetry.cpu_s += result.wall_s;
    run.telemetry.solves.merge(result.solves);
  }
  return run;
}

}  // namespace

std::uint64_t fold_kernel_kinds(std::uint64_t fingerprint) noexcept {
  const KernelConfig kernels = kernel_config();
  fingerprint = fold_key(fingerprint, static_cast<std::uint64_t>(kernels.cell));
  fingerprint = fold_key(fingerprint, static_cast<std::uint64_t>(kernels.simd));
  return fold_key(fingerprint, static_cast<std::uint64_t>(kernels.transient));
}

void SweepTask::count_solves(std::function<SolveTelemetry()> source) {
  before_ = source();
  source_ = std::move(source);
}

SweepRunner::SweepRunner(int threads)
    : executor_(SweepExecutorOptions{threads, 0, true}) {}

SweepRun SweepRunner::run(const SweepPlan& plan, Campaign* campaign) {
  const Clock::time_point started = Clock::now();
  if (campaign) campaign->bind_sweep(plan.salt, manifest_of(plan));

  // Replay pass: journaled tasks keep their payloads and are skipped.
  std::vector<Payload> payloads(plan.count);
  std::vector<double> wall_s(plan.count, 0.0);
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < plan.count; ++i) {
    const Payload* journaled =
        campaign ? campaign->find_result(plan.key_of(i)) : nullptr;
    if (journaled)
      payloads[i] = *journaled;
    else
      pending.push_back(i);
  }

  executor_.run(pending.size(), [&](std::size_t j, int worker) {
    SweepTask task;
    task.index = pending[j];
    task.worker = worker;
    task.key = plan.key_of(task.index);
    const ScopedTaskObserver task_scope(task.key);
    const Clock::time_point task_started = Clock::now();

    Payload payload;
    std::optional<QuarantinedPoint> quarantined;
    try {
      // A cancel that lands between tasks skips the whole task up front;
      // the per-iteration polls inside the Newton loops handle mid-solve.
      poll_cancel(plan.cancel, plan.cancel_label, 0, 0.0);
      payload = plan.task(task);
    } catch (const Error& e) {
      if (!plan.quarantine) throw;  // executor: fail fast, rethrow first
      quarantined = quarantined_point(plan.context(task.index), e);
    }
    if (plan.context) {
      PayloadWriter out;
      out.u8((quarantined ? kQuarantined : 0) | (task.source_ ? kCounted : 0));
      if (task.source_)
        encode_telemetry(out, telemetry_delta(task.before_, task.source_()));
      if (quarantined) encode_quarantine(out, *quarantined);
      Payload framed = out.take();
      framed.insert(framed.end(), payload.begin(), payload.end());
      payload = std::move(framed);
    }
    wall_s[task.index] = seconds_since(task_started);
    if (campaign) campaign->record_result(task.key, payload);
    payloads[task.index] = std::move(payload);
  });

  SweepRun run = collect(plan, payloads, wall_s);
  run.telemetry.threads = executor_.threads();
  run.telemetry.wall_s = seconds_since(started);
  return run;
}

SweepRun replay_sweep_journal(const SweepPlan& plan, const std::string& path) {
  const ShardSnapshot snapshot = read_campaign_snapshot(path);
  const auto manifest = snapshot.manifests.find(plan.salt);
  if (manifest == snapshot.manifests.end() ||
      manifest->second != manifest_of(plan))
    throw InvalidArgument("replay: journal '" + path +
                          "' was recorded for a different sweep "
                          "configuration");
  std::vector<Payload> payloads;
  payloads.reserve(plan.count);
  for (std::size_t i = 0; i < plan.count; ++i) {
    const auto task = snapshot.tasks.find(plan.key_of(i));
    if (task == snapshot.tasks.end())
      throw InvalidArgument("replay: journal '" + path +
                            "' is missing task " + std::to_string(i));
    payloads.push_back(task->second.payload);
  }
  return collect(plan, payloads, std::vector<double>(plan.count, 0.0));
}

}  // namespace lpsram
