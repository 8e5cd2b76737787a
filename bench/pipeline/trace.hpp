// Benchmark-side instrumentation; nothing here lives in the library.
//
//  - Tracer: an in-memory span sink, written once at exit as Chrome
//    trace-event JSON (loads in Perfetto and chrome://tracing).
//  - Stage: a span around one call into a layer, made on the driving thread.
//  - CountingObserver: a SolverObserver that counts DC solves, Newton
//    iterations and retry-ladder rungs, and times every sweep task over the
//    lifetime of its fork_for_task child (one child per executor task).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lpsram/spice/hooks.hpp"

namespace lpsram::bench {

// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  std::string name;
  std::string cat;
  double start_s = 0.0;
  double dur_s = 0.0;
  int tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // span that caused this one; 0 = none
  int rep = 0;               // repetition, shared by all spans of one run
  std::string args;          // extra JSON members, e.g. "\"index\":3"
};

class Tracer {
 public:
  std::uint64_t next_id() noexcept { return next_id_.fetch_add(1); }
  void record(Span span);  // thread-safe

  // The stage span open on the driving thread: the parent of the executor
  // task spans that stage causes on worker threads.
  void set_stage(std::uint64_t id) noexcept { stage_.store(id); }
  std::uint64_t stage() const noexcept { return stage_.load(); }
  void set_rep(int rep) noexcept { rep_.store(rep); }
  int rep() const noexcept { return rep_.load(); }

  // Writes every recorded span; throws std::runtime_error on I/O failure.
  void write_chrome_json(const std::string& path,
                         const std::string& process_name) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> stage_{0};
  std::atomic<int> rep_{0};
};

// Small stable id of the calling thread, for the trace's "tid".
int thread_slot() noexcept;

// Times one stage call on the driving thread and, given a tracer, records it
// as a span and makes it the parent of the task spans it causes.
class Stage {
 public:
  Stage(Tracer* tracer, std::string name);
  ~Stage() { stop(); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  // Ends the span (once) and returns its duration in seconds.
  double stop();

 private:
  Tracer* tracer_;
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t saved_stage_ = 0;
  double start_s_ = 0.0;
  double dur_s_ = -1.0;
};

struct SolveCounts {
  std::uint64_t solves = 0;
  std::uint64_t newton_iters = 0;
  std::uint64_t ladder_attempts = 0;
};

class CountingObserver final : public SolverObserver {
 public:
  explicit CountingObserver(Tracer& tracer) : tracer_(tracer) {}

  void on_solve_begin() override;
  void on_newton_iteration(NewtonEvent& event) override;
  void on_ladder_attempt(int attempt, const std::string& strategy) override;
  std::unique_ptr<SolverObserver> fork_for_task(
      std::uint64_t task_key) override;

  // Totals over the session: solves outside tasks plus every merged task.
  SolveCounts counts() const;
  // Duration of every finished task, in completion order.
  std::vector<double> task_seconds() const;
  // Tasks whose span could not be stored (allocation failure in a child's
  // destructor); a complete trace has none.
  std::uint64_t lost_tasks() const noexcept { return lost_.load(); }

  // Called by a task child as it is destroyed.
  void finish_task(const SolveCounts& counts, double start_s,
                   std::uint64_t task_key) noexcept;

 private:
  Tracer& tracer_;
  std::atomic<std::uint64_t> solves_{0};
  std::atomic<std::uint64_t> newton_iters_{0};
  std::atomic<std::uint64_t> ladder_attempts_{0};
  std::atomic<std::uint64_t> lost_{0};
  mutable std::mutex mutex_;
  std::vector<double> task_s_;
};

}  // namespace lpsram::bench
