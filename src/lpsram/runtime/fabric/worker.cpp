#include "lpsram/runtime/fabric/worker.hpp"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram::fabric {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::uint8_t> hello_payload(int worker_id) {
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(worker_id));
  return w.take();
}

}  // namespace

WorkerReport run_fabric_worker(MessageChannel& channel,
                               const WorkerOptions& options,
                               const FabricKeyFn& key_of,
                               const FabricTaskFn& task_fn) {
  Campaign campaign(options.shard_journal);
  campaign.bind_sweep(options.salt, options.fingerprint);

  std::unique_ptr<ScopedJournalCrash> shard_crash;
  if (options.chaos.crash_shard_at_append > 0)
    shard_crash = std::make_unique<ScopedJournalCrash>(
        options.chaos.crash_shard_at_append);

  WorkerReport report;
  std::uint64_t results_sent = 0;
  bool wedge_pending = options.chaos.wedge_after_results > 0;

  if (!channel.send(kMsgHello, hello_payload(options.worker_id)))
    return report;  // coordinator already gone

  SweepExecutorOptions exec_options;
  exec_options.threads = options.threads > 0 ? options.threads : 1;
  SweepExecutor executor(exec_options);

  WireMessage msg;
  for (;;) {
    const RecvStatus status = channel.recv(&msg, /*timeout_ms=*/-1);
    if (status != RecvStatus::Ok) return report;  // EOF: coordinator died
    if (msg.type == kMsgShutdown) return report;
    if (msg.type != kMsgGrant)
      throw Error("fabric: worker received unexpected message type " +
                  std::to_string(int(msg.type)));

    PayloadReader grant(msg.payload);
    const std::uint64_t lease_id = grant.u64();
    const std::uint32_t n = grant.u32();
    std::vector<std::uint64_t> indices(n);
    for (std::uint32_t i = 0; i < n; ++i) indices[i] = grant.u64();
    ++report.leases_served;

    // With an intra-worker pool, execute the whole grant batch up front so
    // solves overlap; commits and acknowledgements stay sequential below
    // either way. (threads == 1 computes lazily in the commit loop instead,
    // so heartbeats interleave with long solves.)
    std::vector<std::vector<std::uint8_t>> computed(indices.size());
    std::vector<std::uint8_t> precomputed(indices.size(), 0);
    if (executor.threads() > 1 && indices.size() > 1) {
      executor.run(indices.size(), [&](std::size_t j, int slot) {
        if (campaign.find_result(key_of(indices[j])) != nullptr) return;
        computed[j] = task_fn(indices[j], slot);
        precomputed[j] = 1;
      });
    }

    double last_heartbeat = now_s();
    for (std::size_t j = 0; j < indices.size(); ++j) {
      if (wedge_pending && results_sent == options.chaos.wedge_after_results) {
        wedge_pending = false;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.chaos.wedge_s));
      }

      const std::uint64_t index = indices[j];
      const std::uint64_t key = key_of(index);
      const std::vector<std::uint8_t>* existing = campaign.find_result(key);
      std::vector<std::uint8_t> payload;
      if (existing != nullptr) {
        payload = *existing;
        ++report.tasks_skipped;
      } else {
        if (!precomputed[j]) computed[j] = task_fn(index, 0);
        payload = std::move(computed[j]);
        // Commit point: fsync'd into the shard journal BEFORE the
        // coordinator hears about it.
        campaign.record_result(key, payload);
        ++report.tasks_executed;
      }

      PayloadWriter done;
      done.u64(lease_id);
      done.u64(index);
      done.u64(key);
      std::vector<std::uint8_t> done_bytes = done.take();
      done_bytes.insert(done_bytes.end(), payload.begin(), payload.end());
      if (!channel.send(kMsgTaskDone, done_bytes)) return report;
      ++results_sent;

      if (options.chaos.exit_after_results > 0 &&
          results_sent == options.chaos.exit_after_results)
        std::_Exit(9);

      const double t = now_s();
      if (t - last_heartbeat >= options.heartbeat_interval_s) {
        last_heartbeat = t;
        PayloadWriter hb;
        hb.u32(static_cast<std::uint32_t>(options.worker_id));
        hb.u64(lease_id);
        hb.u64(results_sent);
        if (!channel.send(kMsgHeartbeat, hb.take())) return report;
      }
    }

    PayloadWriter fin;
    fin.u64(lease_id);
    if (!channel.send(kMsgLeaseDone, fin.take())) return report;
  }
}

}  // namespace lpsram::fabric
