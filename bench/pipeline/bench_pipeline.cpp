// bench_pipeline: the repository's end-to-end benchmark (see README.md).
//
// Usage:
//   bench_pipeline --workload W [--seed N] [--seconds S] [--report FILE]
//                  [--trace OUT.json] [--work-dir DIR]
//   bench_pipeline --smoke [--work-dir DIR] [--trace OUT.json]
//
// One process runs one workload as a closed loop: one client submits the
// next repetition only after the previous one finished. After one untimed
// warm-up repetition come a fixed number of timed ones: --seconds divided by
// the workload's nominal repetition time, rounded up, and at least
// kMinTimedReps. Setup and body are timed from outside the library. The correctness checks run after the timed repetitions,
// outside the timings, and any failure exits 1.
//
// With --trace, traced repetitions alternate with untraced ones. The traced
// ones install a counting SolverObserver and record spans, giving the
// per-layer metrics and the Chrome trace-event file; the untraced ones give
// the end-to-end metrics, and the difference is the tracing overhead.
//
// --smoke runs every workload at tiny sizes, one untraced and one traced
// repetition each, with every check. A debug build refuses to run (exit 2).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "json.hpp"
#include "lpsram/util/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace lpsram;
using namespace lpsram::bench;

namespace {

#ifdef NDEBUG
constexpr bool kReleaseBuild = true;
#else
constexpr bool kReleaseBuild = false;
#endif

constexpr std::size_t kMinTimedReps = 5;
constexpr int kMaxThreads = 4;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports; a metric that does not apply
// to the workload reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"executor.tasks", "count"},
    {"executor.task_s.p50", "s"},
    {"executor.task_s.p99", "s"},
    {"executor.busy_share", "ratio"},
    {"cache.hit_rate", "ratio"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"ladder.warm_hits", "count"},
    {"ladder.fallbacks", "count"},
    {"ladder.degraded", "count"},
    {"ladder.failures", "count"},
    {"ladder.rung.warm_start", "count"},
    {"ladder.rung.cold_start", "count"},
    {"ladder.rung.dense_gmin", "count"},
    {"ladder.rung.relaxed_polish", "count"},
    {"ladder.rung.perturbed_guess", "count"},
    {"spice.dc_solves", "count"},
    {"spice.newton_iters", "count"},
    {"spice.newton_per_solve", "iter/solve"},
    {"spice.ladder_attempts", "count"},
    {"spice.unscoped_solves", "count"},
    {"cell.table1_s", "s"},
    {"cell.fig4_s", "s"},
    {"testflow.table2_s", "s"},
    {"testflow.matrix_s", "s"},
    {"march.validation_s", "s"},
    {"yield.train_s", "s"},
    {"yield.blockade_s", "s"},
    {"yield.is_s", "s"},
    {"yield.block_s.p50", "s"},
    {"yield.block_s.p99", "s"},
    {"yield.reduce_s", "s"},
    {"yield.samples", "count"},
    {"yield.candidates", "count"},
    {"yield.exact_solves", "count"},
    {"yield.candidate_precision", "ratio"},
    {"yield.is_ess_share", "ratio"},
    {"journal.bytes", "B"},
    {"journal.records", "count"},
    {"journal.open_replay_s", "s"},
    {"journal.decode_s", "s"},
    {"journal.resume_s", "s"},
    {"journal.compact_s", "s"},
    {"journal.overhead_s", "s"},
    {"fabric.leases_issued", "count"},
    {"fabric.leases_expired", "count"},
    {"fabric.duplicates", "count"},
    {"fabric.workers_died", "count"},
    {"fabric.shard_bytes", "B"},
    {"fabric.merge_reduce_s", "s"},
    {"fabric.overhead_s", "s"},
    {"trace_overhead_s", "s"},
    {"failed_share", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string report;
  std::string trace;
  std::string work_dir = "bench-pipeline-work";
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || *end != '\0')
        throw std::invalid_argument("--seed: not a non-negative integer: " + v);
    } else if (flag == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !std::isfinite(a.seconds) ||
          a.seconds < 0.0 || a.seconds > 3600.0)
        throw std::invalid_argument("--seconds: expected 0..3600, got " + v);
    } else if (flag == "--report") {
      a.report = value();
    } else if (flag == "--trace") {
      a.trace = value();
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (!a.smoke && a.workload.empty())
    throw std::invalid_argument("--workload or --smoke is required");
  return a;
}

double seconds_of(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

// User + system time of this process and its reaped children.
double cpu_seconds() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return seconds_of(self.ru_utime) + seconds_of(self.ru_stime) +
         seconds_of(children.ru_utime) + seconds_of(children.ru_stime);
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// One traced stretch of work: a repetition body or the finish() pass.
struct Section {
  double wall_s = 0.0;
  LayerValues layers;
};

// Runs `body` under a fresh counting observer and derives the executor,
// solver and cache values from what it saw. Values a stretch did not see
// stay absent, so another stretch may supply them.
Section traced_section(Tracer& tracer, int rep, int threads,
                       const std::function<void(LayerValues&)>& body,
                       std::uint64_t* lost_tasks) {
  CountingObserver observer(tracer);
  Section s;
  tracer.set_rep(rep);
  {
    const ScopedSolverObserver scope(&observer);
    const double start = now_s();
    body(s.layers);
    s.wall_s = now_s() - start;
  }
  LayerValues& l = s.layers;
  const auto get = [&l](const char* name) {
    const auto found = l.find(name);
    return found == l.end() ? 0.0 : found->second;
  };
  const std::vector<double> tasks = observer.task_seconds();
  if (!tasks.empty()) {
    double busy = 0.0;
    for (const double t : tasks) busy += t;
    l["executor.tasks"] = static_cast<double>(tasks.size());
    l["executor.task_s.p50"] = quantile(tasks, 0.50);
    l["executor.task_s.p99"] = quantile(tasks, 0.99);
    l["executor.busy_share"] = busy / (s.wall_s * threads);
  }
  const SolveCounts c = observer.counts();
  if (c.solves > 0) {
    const double solves = static_cast<double>(c.solves);
    l["spice.dc_solves"] = solves;
    l["spice.newton_iters"] = static_cast<double>(c.newton_iters);
    l["spice.newton_per_solve"] = static_cast<double>(c.newton_iters) / solves;
    l["spice.ladder_attempts"] = static_cast<double>(c.ladder_attempts);
    l["spice.unscoped_solves"] = solves - get("_telemetry_solves");
  }
  const double lookups = get("cache.hits") + get("cache.misses");
  if (lookups > 0.0) l["cache.hit_rate"] = get("cache.hits") / lookups;
  *lost_tasks += observer.lost_tasks();
  return s;
}

struct RunResult {
  std::vector<double> setup_s, wall_s, cpu_s;
  std::vector<Section> traced;
  std::optional<Section> finish;
  std::vector<Check> checks;
  double attempted = 0.0;
  std::uint64_t failed_ops = 0;
  std::uint64_t lost_tasks = 0;
  double peak_rss_mb = 0.0;
};

// Runs `reps` timed repetitions; with a tracer, traced ones alternate with
// them, at least one.
RunResult run_workload(Workload& w, std::size_t reps, bool warmup,
                       Tracer* tracer, int threads) {
  RunResult r;
  LayerValues scratch;
  if (warmup) {
    w.setup();
    w.run(nullptr, scratch);
  }
  for (int rep = 1;; ++rep) {
    const bool traced = tracer && r.traced.size() < r.wall_s.size();
    const double setup_start = now_s();
    w.setup();
    const double setup_s = now_s() - setup_start;
    if (traced) {
      r.traced.push_back(traced_section(
          *tracer, rep, threads, [&](LayerValues& l) { w.run(tracer, l); },
          &r.lost_tasks));
    } else {
      scratch.clear();
      const double cpu_start = cpu_seconds();
      const double body_start = now_s();
      w.run(nullptr, scratch);
      r.wall_s.push_back(now_s() - body_start);
      r.cpu_s.push_back(cpu_seconds() - cpu_start);
      r.setup_s.push_back(setup_s);
    }
    r.attempted += w.work();
    r.failed_ops += w.failed_ops();
    if (r.wall_s.size() >= reps && (!tracer || !r.traced.empty())) break;
  }
  if (tracer) {
    r.finish = traced_section(
        *tracer, 0, threads,
        [&](LayerValues& l) { w.finish(tracer, l, r.checks); }, &r.lost_tasks);
    r.checks.push_back(
        Check{"trace_complete", r.lost_tasks == 0,
              std::to_string(r.lost_tasks) + " task spans lost"});
  } else {
    w.finish(nullptr, scratch, r.checks);
  }
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

std::size_t failed_checks(const RunResult& r) {
  std::size_t n = 0;
  for (const Check& c : r.checks)
    if (!c.ok) ++n;
  return n;
}

// Per-layer values: the median over traced repetitions; finish() fills in
// what the repetitions did not measure.
LayerValues layer_values(const RunResult& r) {
  std::map<std::string, std::vector<double>> samples;
  for (const Section& s : r.traced)
    for (const auto& [name, v] : s.layers) samples[name].push_back(v);
  LayerValues out;
  for (const auto& [name, values] : samples) out[name] = median(values);
  if (r.finish)
    for (const auto& [name, v] : r.finish->layers) out.emplace(name, v);
  std::vector<double> traced_walls;
  for (const Section& s : r.traced) traced_walls.push_back(s.wall_s);
  out["trace_overhead_s"] = median(traced_walls) - median(r.wall_s);
  out["failed_share"] =
      static_cast<double>(r.failed_ops + failed_checks(r)) / r.attempted;
  return out;
}

std::string context_json(const Args& a, int threads) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"commit\": %s, \"simd_backend\": %s, \"simd_width\": %zu, "
      "\"threads\": %d, \"nproc\": %u, \"seed\": %llu, \"build_type\": %s, "
      "\"load\": \"closed loop, one client\", \"fleet\": \"2 workers x %d "
      "threads\"}",
      json_quote(BENCH_PIPELINE_COMMIT).c_str(),
      json_quote(simd_backend_name()).c_str(), simd_width(), threads,
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(a.seed),
      json_quote(BENCH_PIPELINE_BUILD_TYPE).c_str(), std::max(1, threads / 2));
  return buf;
}

// Every digit of the measurement, so the report round-trips exactly.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string samples_json(const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    s += (i ? ", " : "") + num(values[i]);
  return s + "]";
}

void print_checks(const std::string& workload, const RunResult& r) {
  for (const Check& c : r.checks)
    std::printf("check %s/%s: %s (%s)\n", workload.c_str(), c.name.c_str(),
                c.ok ? "ok" : "FAILED", c.detail.c_str());
}

int run_one(const Args& a, const JsonValue& expected, int threads) {
  WorkloadEnv env;
  env.seed = a.seed;
  env.threads = threads;
  env.work_dir = a.work_dir;
  env.expected = &expected;
  const auto workload = make_workload(a.workload, env);
  const bool traced = !a.trace.empty();
  const std::size_t reps = std::max(
      kMinTimedReps, static_cast<std::size_t>(
                         std::ceil(a.seconds / workload->nominal_rep_s())));
  Tracer tracer;
  const RunResult r = run_workload(*workload, reps, true,
                                   traced ? &tracer : nullptr, threads);
  if (traced) tracer.write_chrome_json(a.trace, "bench_pipeline " + a.workload);

  const double work = workload->work();
  const double wall = median(r.wall_s);
  struct E2e {
    const char* name;
    const char* unit;
    double value;
    const std::vector<double>* samples;
  };
  const E2e e2e[] = {
      {"setup_s", "s", median(r.setup_s), &r.setup_s},
      {"wall_s", "s", wall, &r.wall_s},
      {"throughput", "1/s", work / wall, nullptr},
      {"cpu_s", "s", median(r.cpu_s), &r.cpu_s},
      {"peak_rss_mb", "MB", r.peak_rss_mb, nullptr},
  };
  const std::size_t bad = failed_checks(r);

  std::printf("bench_pipeline %s: seed %llu, %zu timed + %zu traced "
              "repetitions after 1 warm-up, %.6g %s each\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              r.wall_s.size(), r.traced.size(), work, workload->work_unit());
  std::printf("context %s\n", context_json(a, threads).c_str());
  for (const E2e& m : e2e)
    std::printf("metric %-12s %.6g %s\n", m.name, m.value, m.unit);
  const LayerValues layers = traced ? layer_values(r) : LayerValues{};
  if (traced)
    for (const MetricDef& m : kLayerMetrics) {
      const auto found = layers.find(m.name);
      std::printf("layer  %-28s %.6g %s\n", m.name,
                  found == layers.end() ? 0.0 : found->second, m.unit);
    }
  print_checks(a.workload, r);

  if (!a.report.empty()) {
    std::FILE* f = std::fopen(a.report.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write report " + a.report);
    std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
                 json_quote(a.workload).c_str(),
                 static_cast<unsigned long long>(a.seed));
    std::fprintf(f, "  \"context\": %s,\n", context_json(a, threads).c_str());
    std::fprintf(f,
                 "  \"reps\": {\"timed\": %zu, \"traced\": %zu, "
                 "\"warmup\": 1},\n"
                 "  \"work\": {\"per_rep\": %s, \"unit\": %s},\n"
                 "  \"correct\": %s,\n  \"attempted\": %.0f,\n"
                 "  \"failed\": %llu,\n",
                 r.wall_s.size(), r.traced.size(), num(work).c_str(),
                 json_quote(workload->work_unit()).c_str(),
                 bad == 0 ? "true" : "false", std::round(r.attempted),
                 static_cast<unsigned long long>(r.failed_ops + bad));
    std::fprintf(f, "  \"checks\": [");
    for (std::size_t i = 0; i < r.checks.size(); ++i)
      std::fprintf(f, "%s\n    {\"name\": %s, \"ok\": %s, \"detail\": %s}",
                   i ? "," : "", json_quote(r.checks[i].name).c_str(),
                   r.checks[i].ok ? "true" : "false",
                   json_quote(r.checks[i].detail).c_str());
    std::fprintf(f, "\n  ],\n  \"metrics\": {");
    for (std::size_t i = 0; i < std::size(e2e); ++i) {
      std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s",
                   i ? "," : "", json_quote(e2e[i].name).c_str(),
                   num(e2e[i].value).c_str(), json_quote(e2e[i].unit).c_str());
      if (e2e[i].samples)
        std::fprintf(f, ", \"samples\": %s",
                     samples_json(*e2e[i].samples).c_str());
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  },\n  \"layers\": {");
    if (traced) {
      const char* sep = "";
      for (const MetricDef& m : kLayerMetrics) {
        const auto found = layers.find(m.name);
        std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s}", sep,
                     json_quote(m.name).c_str(),
                     num(found == layers.end() ? 0.0 : found->second).c_str(),
                     json_quote(m.unit).c_str());
        sep = ",";
      }
    }
    std::fprintf(f, "\n  },\n  \"observed\": {%s}\n}\n",
                 workload->observed_json().c_str());
    const bool write_error = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || write_error)
      throw std::runtime_error("error writing report " + a.report);
  }
  return bad == 0 ? 0 : 1;
}

int run_smoke(const Args& a, const JsonValue& expected, int threads) {
  Tracer tracer;
  std::size_t bad = 0;
  for (const std::string& name : kWorkloadNames) {
    WorkloadEnv env;
    env.seed = a.seed;
    env.threads = threads;
    env.smoke = true;
    env.work_dir = a.work_dir;
    env.expected = &expected;
    const auto workload = make_workload(name, env);
    const double start = now_s();
    const RunResult r =
        run_workload(*workload, 1, false, &tracer, threads);
    print_checks(name, r);
    const std::string observed = workload->observed_json();
    if (!observed.empty())
      std::printf("observed %s {%s}\n", name.c_str(), observed.c_str());
    std::printf("smoke %s: %.2f s\n", name.c_str(), now_s() - start);
    bad += failed_checks(r);
  }
  if (!a.trace.empty())
    tracer.write_chrome_json(a.trace, "bench_pipeline smoke");
  std::printf("smoke: %s\n", bad == 0 ? "all checks passed" : "CHECKS FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!kReleaseBuild) {
      std::fprintf(stderr,
                   "bench_pipeline: refusing to run a debug build (NDEBUG is "
                   "not defined); configure with -DCMAKE_BUILD_TYPE=Release\n");
      return 2;
    }
    const JsonValue expected = read_json_file(BENCH_PIPELINE_EXPECTED);
    std::filesystem::create_directories(a.work_dir);
    const int threads = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, kMaxThreads);
    return a.smoke ? run_smoke(a, expected, threads)
                   : run_one(a, expected, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
    return 2;
  }
}
