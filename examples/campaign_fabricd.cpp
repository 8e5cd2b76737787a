// campaign_fabricd — the multi-process campaign fabric as a long-running
// service: a bounded admission queue in front of a forked worker fleet.
//
//   * Jobs arrive at the admission queue; when it is full they are REFUSED
//     (load shedding) instead of buffered, so the daemon's footprint stays
//     bounded no matter the offered load.
//   * Each accepted job runs through run_fabric: leases, heartbeats,
//     straggler re-issue, shard journals, merge. Kill a worker mid-job
//     (tools/fabric_inspect.py killall <dir>, or kill -9 by hand) and watch
//     the sweep finish on the survivors.
//   * SIGTERM / Ctrl-C drains gracefully: the queue closes, the job in
//     flight finishes its leases and merges, queued jobs stay admitted, and
//     the daemon exits resumable — restarting it with the same directory
//     picks every journal back up.
//
// With --listen host:port (plus --token-file) the fleet is remote instead of
// forked: authenticated fabric_worker processes on other hosts connect over
// TCP, lease tasks, and replicate their shard journals back with resumable
// upload. The durability story is unchanged — kill workers, cut the network,
// restart the daemon: the same merged journal comes out.
//
// Usage:
//   campaign_fabricd [--dir D] [--workers N] [--queue N] [--jobs N]
//                    [--tasks N] [--listen host:port] [--token-file F]
//                    [--selftest] [--net-selftest]
//
// Jobs are synthetic deterministic sweeps (this is a runtime demo, not a
// solver demo): task payloads are pure functions of (seed, index), so merged
// journals are bit-identical no matter how the fleet schedules them.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fabricd_synth.hpp"
#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/fabric/admission.hpp"
#include "lpsram/runtime/fabric/fabric.hpp"
#include "lpsram/runtime/fabric/net/auth.hpp"
#include "lpsram/runtime/fabric/net/net.hpp"
#include "lpsram/runtime/fabric/net/remote_worker.hpp"
#include "lpsram/runtime/fabric/net/server.hpp"
#include "lpsram/runtime/journal.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/signal_cancel.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define FABRICD_HAVE_FORK 1
#endif

using namespace lpsram;
using namespace lpsram::fabric;

namespace {

using fabricd::synth_payload;

// One job through the fabric: a forked fleet, or — when the daemon listens —
// whichever remote fabric_worker processes connect. The daemon owns the
// lease table either way.
int run_job(TcpListener& listener, const std::string& root,
            const FabricJob& job, int workers, const std::string& token,
            const CancelToken* drain) {
  FabricSweepOptions sweep;
  sweep.dir = root + "/" + job.name;
  sweep.lease_span = 4;
  sweep.lease_timeout_s = 10.0;
  sweep.heartbeat_interval_s = 0.25;
  sweep.salt = fabricd::synth_salt(job.seed);
  sweep.fingerprint = fabricd::synth_fingerprint(job.seed, job.tasks);
  sweep.drain = drain;

  const std::uint64_t seed = job.seed;
  const auto key_of = [seed](std::uint64_t index) {
    return fabricd::synth_key(seed, index);
  };
  FabricReport report;
  std::string net;  // transport counters, remote fleets only
  try {
    if (listener.is_open()) {
      NetFabricOptions options;
      static_cast<FabricSweepOptions&>(options) = sweep;
      options.token = token;
      const NetFabricReport r =
          run_net_fabric(listener, options, job.tasks, key_of);
      report = r.fabric;
      char buf[256];
      std::snprintf(
          buf, sizeof(buf),
          " | net: %llu conns, %llu handshakes, %llu drops, %llu resumes, "
          "%llu refused, %llu bytes",
          static_cast<unsigned long long>(r.connections_accepted),
          static_cast<unsigned long long>(r.handshakes_completed),
          static_cast<unsigned long long>(r.connections_dropped),
          static_cast<unsigned long long>(r.lease_resumes),
          static_cast<unsigned long long>(r.refusals_protocol +
                                          r.refusals_manifest +
                                          r.refusals_auth + r.refusals_busy),
          static_cast<unsigned long long>(r.shard_bytes_received));
      net = buf;
    } else {
      FabricOptions options;
      static_cast<FabricSweepOptions&>(options) = sweep;
      options.workers = workers;
      options.worker_threads = 1;
      report = run_fabric(options, job.tasks, key_of,
                          [seed](std::uint64_t index, int) {
                            return synth_payload(seed, index);
                          });
    }
  } catch (const Error& err) {
    // Job-scoped failure (every worker lost, a corrupt shard, ...): the
    // daemon stays up and the directory stays resumable — rerunning the
    // same job against the same --dir, with a fresh fleet, picks the lease
    // log and shard journals back up.
    std::printf("[fabricd] job %-12s FAILED: %s\n", job.name.c_str(),
                err.what());
    return 1;
  }

  std::printf(
      "[fabricd] job %-12s %s: %llu/%llu tasks (%llu recovered, %llu run, "
      "%llu dup) | %llu leases, %llu expired, %llu workers died%s%s\n",
      job.name.c_str(), report.complete ? "complete" : "drained",
      static_cast<unsigned long long>(report.tasks_recovered +
                                      report.tasks_executed),
      static_cast<unsigned long long>(report.tasks_total),
      static_cast<unsigned long long>(report.tasks_recovered),
      static_cast<unsigned long long>(report.tasks_executed),
      static_cast<unsigned long long>(report.duplicates),
      static_cast<unsigned long long>(report.leases_issued),
      static_cast<unsigned long long>(report.leases_expired),
      static_cast<unsigned long long>(report.workers_died), net.c_str(),
      report.complete ? (" -> " + sweep.merged_path()).c_str() : "");
  return report.complete ? 0 : 1;
}

#if defined(FABRICD_HAVE_FORK)

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// Forks one remote worker against 127.0.0.1:port. The child maps its report
// to an exit code (0 shutdown, 3 refused, 4 gave up, 5 error) and dies at
// _Exit(9) when exit_after_results chaos fires, exactly like a pulled plug.
pid_t spawn_net_worker(int port, const std::string& dir,
                       const std::string& token, int worker_id,
                       std::uint64_t seed, std::uint64_t tasks,
                       WorkerChaos chaos) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  RemoteWorkerOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.token = token;
  options.worker_id = worker_id;
  options.shard_journal =
      dir + "/shard-" + std::to_string(worker_id) + ".journal";
  options.heartbeat_interval_s = 0.1;
  options.salt = fabricd::synth_salt(seed);
  options.fingerprint = fabricd::synth_fingerprint(seed, tasks);
  options.chaos = chaos;
  try {
    std::filesystem::create_directories(dir);
    const RemoteWorkerReport report = run_remote_worker(
        options,
        [seed](std::uint64_t index) { return fabricd::synth_key(seed, index); },
        [seed](std::uint64_t index, int) {
          return fabricd::synth_payload(seed, index);
        });
    if (report.refused != NetRefusal::None) std::_Exit(3);
    if (report.gave_up) std::_Exit(4);
    std::_Exit(report.shutdown ? 0 : 5);
  } catch (...) {
    std::_Exit(5);
  }
}

bool reap_net_worker(pid_t pid, int expected_status) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == expected_status;
}

// End-to-end demo of the multi-host transport on loopback:
//   1. a fleet of two authenticated workers starts the sweep, each dies
//      mid-campaign (exit_after_results) — the server survives the drops,
//      then reports FabricWorkersLost once the whole fleet is gone;
//   2. a worker launched with the wrong manifest is refused at the
//      handshake, before any lease;
//   3. a FRESH fleet pointed at the same server directory resumes from the
//      lease log + shard replicas and completes;
//   4. the merged journal is byte-identical to a single-process golden run.
int net_selftest(const std::string& dir) {
  constexpr std::uint64_t kSeed = 0x5eedfab0;
  constexpr std::uint64_t kTasks = 32;

  std::filesystem::create_directories(dir);
  const std::string token = "net-selftest-campaign-token";

  TcpListener listener;
  listener.listen("127.0.0.1", 0);
  const int port = listener.port();

  NetFabricOptions options;
  options.dir = dir + "/server";
  options.token = token;
  options.lease_span = 4;
  options.lease_timeout_s = 2.0;
  options.heartbeat_interval_s = 0.1;
  options.all_lost_grace_s = 1.0;
  options.salt = fabricd::synth_salt(kSeed);
  options.fingerprint = fabricd::synth_fingerprint(kSeed, kTasks);

  const auto key_of = [](std::uint64_t index) {
    return fabricd::synth_key(kSeed, index);
  };

  // Phase 1: doomed fleet + one impostor with the wrong manifest.
  WorkerChaos die3;
  die3.exit_after_results = 3;
  WorkerChaos die4;
  die4.exit_after_results = 4;
  const pid_t w0 =
      spawn_net_worker(port, dir + "/w0", token, 0, kSeed, kTasks, die3);
  const pid_t w1 =
      spawn_net_worker(port, dir + "/w1", token, 1, kSeed, kTasks, die4);
  const pid_t imp = spawn_net_worker(port, dir + "/imp", token, 9,
                                     kSeed ^ 0xbad, kTasks, WorkerChaos{});

  bool lost = false;
  try {
    run_net_fabric(listener, options, kTasks, key_of);
  } catch (const FabricWorkersLost& err) {
    lost = true;
    std::printf("[fabricd] net-selftest fleet lost as expected: %s\n",
                err.what());
  }
  if (!lost) {
    std::printf("[fabricd] net-selftest FAILED: fleet loss not detected\n");
    return 1;
  }
  bool ok = true;
  if (!reap_net_worker(w0, 9) || !reap_net_worker(w1, 9)) {
    std::printf("[fabricd] net-selftest FAILED: chaos workers died oddly\n");
    ok = false;
  }
  // Exit 3 = the worker reported a refusal: the mismatched manifest was
  // turned away at the handshake, before any lease.
  if (!reap_net_worker(imp, 3)) {
    std::printf("[fabricd] net-selftest FAILED: impostor was not refused\n");
    ok = false;
  }
  if (!ok) return 1;

  // Phase 2: fresh fleet, fresh worker ids, same server directory.
  const pid_t w2 = spawn_net_worker(port, dir + "/w2", token, 2, kSeed, kTasks,
                                    WorkerChaos{});
  const pid_t w3 = spawn_net_worker(port, dir + "/w3", token, 3, kSeed, kTasks,
                                    WorkerChaos{});
  NetFabricReport second;
  try {
    second = run_net_fabric(listener, options, kTasks, key_of);
  } catch (const Error& err) {
    std::printf("[fabricd] net-selftest FAILED on resume: %s\n", err.what());
    return 1;
  }
  ok &= reap_net_worker(w2, 0);
  ok &= reap_net_worker(w3, 0);
  ok &= second.fabric.complete;
  ok &= second.fabric.tasks_recovered > 0;  // phase-1 uploads survived

  // Phase 3: byte-identical to a single-process run.
  {
    Campaign golden(dir + "/golden.journal");
    golden.bind_sweep(options.salt, options.fingerprint);
    for (std::uint64_t i = 0; i < kTasks; ++i)
      golden.record_result(fabricd::synth_key(kSeed, i),
                           fabricd::synth_payload(kSeed, i));
  }
  const auto merged = read_file_bytes(options.merged_path());
  const auto golden = read_file_bytes(dir + "/golden.journal");
  ok &= !merged.empty() && merged == golden;

  std::printf(
      "[fabricd] net-selftest %s: %llu recovered + %llu run of %llu | "
      "merged %zu bytes %s golden\n",
      ok ? "ok" : "FAILED",
      static_cast<unsigned long long>(second.fabric.tasks_recovered),
      static_cast<unsigned long long>(second.fabric.tasks_executed),
      static_cast<unsigned long long>(second.fabric.tasks_total),
      merged.size(), merged == golden ? "==" : "!=");
  return ok ? 0 : 1;
}

#else  // !FABRICD_HAVE_FORK

int net_selftest(const std::string&) {
  std::fprintf(stderr, "--net-selftest needs fork(); not available here\n");
  return 2;
}

#endif

}  // namespace

int main(int argc, char** argv) {
  std::string dir = "fabricd-journals";
  int workers = 2;
  std::size_t queue_capacity = 2;
  std::uint64_t jobs = 3;
  std::uint64_t tasks = 24;
  bool selftest = false;
  bool net_selftest_mode = false;
  std::string listen_spec;
  std::string token_file;

  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return true;
    };
    if (want("--dir")) dir = argv[++i];
    else if (want("--workers")) workers = std::atoi(argv[++i]);
    else if (want("--queue")) queue_capacity = std::strtoull(argv[++i], nullptr, 10);
    else if (want("--jobs")) jobs = std::strtoull(argv[++i], nullptr, 10);
    else if (want("--tasks")) tasks = std::strtoull(argv[++i], nullptr, 10);
    else if (want("--listen")) listen_spec = argv[++i];
    else if (want("--token-file")) token_file = argv[++i];
    else if (std::strcmp(argv[i], "--selftest") == 0) selftest = true;
    else if (std::strcmp(argv[i], "--net-selftest") == 0) net_selftest_mode = true;
    else {
      std::fprintf(stderr,
                   "usage: %s [--dir D] [--workers N] [--queue N] [--jobs N] "
                   "[--tasks N] [--listen host:port] [--token-file F] "
                   "[--selftest] [--net-selftest]\n",
                   argv[0]);
      return 2;
    }
  }
  if (net_selftest_mode) return net_selftest(dir + "/net-selftest");
  if (!listen_spec.empty() && token_file.empty()) {
    std::fprintf(stderr,
                 "--listen needs --token-file (the campaign secret is never "
                 "taken from argv)\n");
    return 2;
  }
  if (selftest) {
    // Deterministic shedding demo: more jobs than queue slots, submitted
    // before the consumer starts, so exactly jobs - queue are refused.
    workers = 2;
    queue_capacity = 2;
    jobs = 4;
    tasks = 24;
  }

  CancelToken drain;
  install_cancel_on_signal(drain);

  // Remote mode binds once, up front: workers can start dialing (and
  // retrying with backoff) while jobs queue, and every job's fleet
  // handshakes against the same endpoint.
  TcpListener listener;
  std::string token;
  if (!listen_spec.empty()) {
    try {
      const HostPort hp = parse_hostport(listen_spec);
      token = load_token_file(token_file);
      listener.listen(hp.host, hp.port);
      std::printf("[fabricd] listening on %s:%d for remote workers\n",
                  hp.host.c_str(), listener.port());
    } catch (const Error& err) {
      std::fprintf(stderr, "fabricd: %s\n", err.what());
      return 2;
    }
  }

  AdmissionQueue queue(queue_capacity);
  std::uint64_t shed = 0;
  for (std::uint64_t j = 0; j < jobs; ++j) {
    FabricJob job;
    job.name = "job-" + std::to_string(j);
    job.tasks = tasks;
    job.seed = 0x5eed0000 + j;
    const Admission verdict = queue.try_submit(job);
    if (verdict == Admission::Shed) {
      ++shed;
      std::printf("[fabricd] %s SHED (queue full, depth %zu/%zu)\n",
                  job.name.c_str(), queue.depth(), queue_capacity);
    } else {
      std::printf("[fabricd] %s accepted (depth %zu/%zu)\n", job.name.c_str(),
                  queue.depth(), queue_capacity);
    }
  }
  queue.close();  // demo producer is done; drain what was admitted

  int failures = 0;
  std::uint64_t served = 0;
  FabricJob job;
  while (!drain.cancelled() && queue.pop_for(&job, 0.25)) {
    failures += run_job(listener, dir, job, workers, token, &drain);
    ++served;
  }
  if (drain.cancelled())
    std::printf("[fabricd] drain requested — %zu job(s) left admitted; "
                "restart with --dir %s to resume them\n",
                queue.depth(), dir.c_str());

  std::printf("[fabricd] served %llu job(s), shed %llu, failures %d\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(shed), failures);

  if (selftest) {
    const bool ok = failures == 0 && served == queue_capacity &&
                    shed == jobs - queue_capacity && !drain.cancelled();
    std::printf("[fabricd] selftest %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}
