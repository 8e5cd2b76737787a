#include "lpsram/runtime/fabric/fabric.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "lpsram/runtime/fabric/net/remote_worker.hpp"
#include "lpsram/runtime/parallel.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define LPSRAM_HAVE_FABRIC 1
#endif

namespace lpsram::fabric {

namespace fs = std::filesystem;

std::string shard_journal_path(const std::string& dir, int worker_id) {
  return dir + "/shard-" + std::to_string(worker_id) + ".journal";
}
std::string coordinator_log_path(const std::string& dir) {
  return dir + "/coordinator.journal";
}
std::string worker_pid_path(const std::string& dir, int worker_id) {
  return dir + "/worker-" + std::to_string(worker_id) + ".pid";
}

#ifdef LPSRAM_HAVE_FABRIC

namespace {

// Reaps `pid`, escalating to SIGKILL if it has not exited within
// `patience_s` (a worker can legitimately lag by one wedge/solve before it
// notices the closed channel). False when the worker did not exit cleanly.
bool reap(long pid, double patience_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(patience_s);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
    if (r < 0) return true;  // ECHILD: someone else reaped it
    if (r > 0) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(static_cast<pid_t>(pid), SIGKILL);
      ::waitpid(static_cast<pid_t>(pid), &status, 0);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

struct Fleet {
  std::vector<long> pids;
  std::string dir;
  bool killed = false;

  // Exception path: the run is being abandoned, take the workers with it.
  void kill_all() noexcept {
    if (killed) return;
    killed = true;
    for (const long pid : pids) ::kill(static_cast<pid_t>(pid), SIGKILL);
    for (const long pid : pids) {
      int status = 0;
      ::waitpid(static_cast<pid_t>(pid), &status, 0);
    }
    cleanup_pidfiles();
  }

  void cleanup_pidfiles() noexcept {
    std::error_code ec;
    for (std::size_t i = 0; i < pids.size(); ++i)
      fs::remove(worker_pid_path(dir, static_cast<int>(i)), ec);
  }

  ~Fleet() { kill_all(); }
};

}  // namespace

FabricReport run_fabric(const FabricOptions& options, std::uint64_t count,
                        const FabricKeyFn& key_of,
                        const FabricTaskFn& task_fn) {
  if (options.workers <= 0)
    throw InvalidArgument("fabric: need at least one worker");
  if (options.dir.empty())
    throw InvalidArgument("fabric: journal directory required");
  fs::create_directories(options.dir);

  const int threads = options.worker_threads > 0
                          ? options.worker_threads
                          : SweepExecutor::threads_per_process(options.workers);

  // All socketpairs before any fork, so each child can close every end that
  // is not its own — otherwise a sibling's inherited fd copy would keep a
  // dead peer's channel from ever reaching EOF.
  std::vector<std::pair<MessageChannel, MessageChannel>> channels;
  channels.reserve(static_cast<std::size_t>(options.workers));
  for (int w = 0; w < options.workers; ++w)
    channels.push_back(MessageChannel::make_pair());

  Fleet fleet;
  fleet.dir = options.dir;
  for (int w = 0; w < options.workers; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0)
      throw Error(std::string("fabric: fork failed: ") + std::strerror(errno));
    if (pid == 0) {
      // Child: crash-injection state is process-global and inherited — a
      // coordinator-side ScopedJournalCrash must not fire on shard appends.
      disarm_journal_crash();
      for (int o = 0; o < options.workers; ++o) {
        channels[static_cast<std::size_t>(o)].first.close();
        if (o != w) channels[static_cast<std::size_t>(o)].second.close();
      }
      RemoteWorkerOptions wopt;
      wopt.worker_id = w;
      wopt.shard_journal = shard_journal_path(options.dir, w);
      wopt.heartbeat_interval_s = options.heartbeat_interval_s;
      wopt.salt = options.salt;
      wopt.fingerprint = options.fingerprint;
      wopt.threads = threads;
      if (static_cast<std::size_t>(w) < options.chaos.size())
        wopt.chaos = options.chaos[static_cast<std::size_t>(w)];
      try {
        run_forked_worker(channels[static_cast<std::size_t>(w)].second, wopt,
                          key_of, task_fn);
      } catch (const JournalCrash&) {
        std::_Exit(10);  // injected shard-journal death
      } catch (...) {
        std::_Exit(11);
      }
      std::_Exit(0);
    }
    fleet.pids.push_back(pid);
    channels[static_cast<std::size_t>(w)].second.close();
    std::ofstream pidfile(worker_pid_path(options.dir, w), std::ios::trunc);
    pidfile << pid << "\n";
  }

  // The children wait for their Welcome, so the server's recovery scan of
  // the shard journals runs before any of them opens its own.
  NetFabricOptions net;
  static_cast<FabricSweepOptions&>(net) = options;
  net.max_workers = options.workers;
  std::vector<MessageChannel> forked;
  forked.reserve(channels.size());
  for (auto& pair : channels) forked.push_back(std::move(pair.first));
  TcpListener no_listener;
  FabricReport report =
      run_net_fabric(no_listener, net, count, key_of, std::move(forked)).fabric;

  // Orderly teardown: the server already sent kMsgShutdown; give each
  // worker a moment to exit on its own before escalating. The server counted
  // the deaths it saw mid-sweep; one that raced the last commit shows only
  // in the exit status.
  std::uint64_t unclean = 0;
  for (const long pid : fleet.pids)
    if (!reap(pid, /*patience_s=*/10.0)) ++unclean;
  report.workers_died = std::max(report.workers_died, unclean);
  fleet.killed = true;  // all reaped; the guard has nothing left to do
  fleet.cleanup_pidfiles();
  return report;
}

int kill_all_workers(const std::string& dir) {
  int killed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("worker-", 0) != 0 ||
        entry.path().extension() != ".pid")
      continue;
    std::ifstream in(entry.path());
    long pid = 0;
    if ((in >> pid) && pid > 1 && ::kill(static_cast<pid_t>(pid), SIGKILL) == 0)
      ++killed;
    fs::remove(entry.path(), ec);
  }
  return killed;
}

#else  // !LPSRAM_HAVE_FABRIC

FabricReport run_fabric(const FabricOptions&, std::uint64_t,
                        const FabricKeyFn&, const FabricTaskFn&) {
  throw Error("fabric: multi-process execution requires a POSIX platform");
}

int kill_all_workers(const std::string&) { return 0; }

#endif  // LPSRAM_HAVE_FABRIC

}  // namespace lpsram::fabric
