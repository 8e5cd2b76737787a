#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "json.hpp"

namespace lpsram::bench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

int thread_slot() noexcept {
  static std::atomic<int> next{1};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":%s}}",
               json_quote(process_name).c_str());
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"rep\":%d%s%s}}",
                 json_quote(s.name).c_str(), json_quote(s.cat).c_str(),
                 s.start_s * 1e6, s.dur_s * 1e6, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.rep,
                 s.args.empty() ? "" : ",", s.args.c_str());
  }
  std::fprintf(f, "\n]}\n");
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed)
    throw std::runtime_error("error writing trace " + path);
}

Stage::Stage(Tracer* tracer, std::string name)
    : tracer_(tracer), name_(std::move(name)), start_s_(now_s()) {
  if (tracer_) {
    id_ = tracer_->next_id();
    saved_stage_ = tracer_->stage();
    tracer_->set_stage(id_);
  }
}

double Stage::stop() {
  if (dur_s_ >= 0.0) return dur_s_;
  dur_s_ = now_s() - start_s_;
  if (tracer_) {
    tracer_->set_stage(saved_stage_);
    Span span;
    span.name = name_;
    span.cat = "stage";
    span.start_s = start_s_;
    span.dur_s = dur_s_;
    span.tid = thread_slot();
    span.id = id_;
    span.parent = saved_stage_;
    span.rep = tracer_->rep();
    tracer_->record(std::move(span));
  }
  return dur_s_;
}

namespace {

// Task-private child: driven by one executor thread for one task, merged
// into the parent when the task scope destroys it.
class TaskObserver final : public SolverObserver {
 public:
  TaskObserver(CountingObserver& parent, std::uint64_t key)
      : parent_(parent), key_(key), start_s_(now_s()) {}
  ~TaskObserver() override { parent_.finish_task(counts_, start_s_, key_); }

  void on_solve_begin() override { ++counts_.solves; }
  void on_newton_iteration(NewtonEvent&) override { ++counts_.newton_iters; }
  void on_ladder_attempt(int, const std::string&) override {
    ++counts_.ladder_attempts;
  }

 private:
  CountingObserver& parent_;
  std::uint64_t key_;
  double start_s_;
  SolveCounts counts_;
};

}  // namespace

void CountingObserver::on_solve_begin() { solves_.fetch_add(1); }

void CountingObserver::on_newton_iteration(NewtonEvent&) {
  newton_iters_.fetch_add(1);
}

void CountingObserver::on_ladder_attempt(int, const std::string&) {
  ladder_attempts_.fetch_add(1);
}

std::unique_ptr<SolverObserver> CountingObserver::fork_for_task(
    std::uint64_t task_key) {
  return std::make_unique<TaskObserver>(*this, task_key);
}

SolveCounts CountingObserver::counts() const {
  SolveCounts c;
  c.solves = solves_.load();
  c.newton_iters = newton_iters_.load();
  c.ladder_attempts = ladder_attempts_.load();
  return c;
}

std::vector<double> CountingObserver::task_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return task_s_;
}

void CountingObserver::finish_task(const SolveCounts& counts, double start_s,
                                   std::uint64_t task_key) noexcept {
  solves_.fetch_add(counts.solves);
  newton_iters_.fetch_add(counts.newton_iters);
  ladder_attempts_.fetch_add(counts.ladder_attempts);
  const double end_s = now_s();
  try {
    Span span;
    span.name = "task";
    span.cat = "executor";
    span.start_s = start_s;
    span.dur_s = end_s - start_s;
    span.tid = thread_slot();
    span.id = tracer_.next_id();
    span.parent = tracer_.stage();
    span.rep = tracer_.rep();
    span.args = "\"key\":" + std::to_string(task_key) +
                ",\"solves\":" + std::to_string(counts.solves) +
                ",\"newton_iters\":" + std::to_string(counts.newton_iters);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      task_s_.push_back(span.dur_s);
    }
    tracer_.record(std::move(span));
  } catch (...) {
    lost_.fetch_add(1);
  }
}

}  // namespace lpsram::bench
