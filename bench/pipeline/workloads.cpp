#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "lpsram/cell/core_cell.hpp"
#include "lpsram/core/retention_analyzer.hpp"
#include "lpsram/core/test_flow_generator.hpp"
#include "lpsram/runtime/fabric/fabric.hpp"
#include "lpsram/sram/sram.hpp"
#include "lpsram/stats/yield/engine.hpp"
#include "lpsram/testflow/case_studies.hpp"
#include "lpsram/testflow/defect_characterization.hpp"
#include "lpsram/testflow/pvt.hpp"

namespace lpsram::bench {

namespace fs = std::filesystem;

const std::vector<std::string> kWorkloadNames = {
    "paper_pipeline", "yield_tail", "table2_campaign", "yield_fleet"};

namespace {

// --- inputs from the seed ------------------------------------------------

class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& v, SeedStream& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

std::vector<DefectId> defects_for(const WorkloadEnv& env, SeedStream& rng) {
  const auto& all = table2_defects();
  std::vector<DefectId> defects(all.begin(),
                                all.begin() + (env.smoke ? 3 : all.size()));
  shuffle(defects, rng);
  return defects;
}

// --- small comparisons ------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The solve counters that repeat exactly. warm_hits, fallbacks, degraded
// and the cold-start rung are left out: a worker slot reuses its regulators
// across tasks, and solver state that outlives a task (such as the reused
// sparse-LU workspace) shifts which rung converges, and how tightly, by a
// few per cell with the schedule.
std::vector<std::uint64_t> counter_signature(const SolveTelemetry& s) {
  return {s.solves, s.failures, s.timeouts, s.cache_hits, s.cache_misses,
          s.cache_stores};
}

// Library-reported solve counters into the per-layer values. The
// "_telemetry_solves" entry is not reported itself: bench_pipeline.cpp
// subtracts it from the observer's count for spice.unscoped_solves.
void add_telemetry(const SweepTelemetry& t, LayerValues& layers) {
  const SolveTelemetry& s = t.solves;
  layers["_telemetry_solves"] += static_cast<double>(s.solves);
  layers["cache.hits"] += static_cast<double>(s.cache_hits);
  layers["cache.misses"] += static_cast<double>(s.cache_misses);
  layers["ladder.warm_hits"] += static_cast<double>(s.warm_hits);
  layers["ladder.fallbacks"] += static_cast<double>(s.fallbacks);
  layers["ladder.degraded"] += static_cast<double>(s.degraded);
  layers["ladder.failures"] += static_cast<double>(s.failures);
  for (std::size_t k = 0; k < kSolveStrategyCount; ++k) {
    std::string rung = strategy_name(static_cast<SolveStrategy>(k));
    std::replace(rung.begin(), rung.end(), '-', '_');
    layers["ladder.rung." + rung] += static_cast<double>(s.rung_attempts[k]);
  }
}

// One Table II cell, reduced to what the table reports.
struct Cell {
  double rmin = 0.0;
  bool open_only = false;
  PvtPoint worst;
  VrefLevel vref = VrefLevel::V070;
  std::vector<std::uint64_t> counters;

  bool operator==(const Cell& o) const {
    return same_bits(rmin, o.rmin) && open_only == o.open_only &&
           worst.corner == o.worst.corner &&
           same_bits(worst.vdd, o.worst.vdd) &&
           same_bits(worst.temp_c, o.worst.temp_c) && vref == o.vref &&
           counters == o.counters;
  }
};

// Table II keyed by (defect, case-study index), whatever order it ran in.
using Table2 = std::map<std::pair<DefectId, int>, Cell>;

Table2 canonical(const std::vector<std::vector<DefectCsResult>>& rows,
                 const std::vector<CaseStudy>& cases,
                 std::uint64_t* quarantined) {
  Table2 table;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const DefectCsResult& r = row[c];
      table[{r.id, cases[c].index}] =
          Cell{r.min_resistance, r.open_only, r.worst_pvt, r.vref_at_worst,
               counter_signature(r.telemetry.solves)};
      *quarantined += r.sweep.quarantined_count();
    }
  }
  return table;
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0,
                double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

// A pin from expected.json; a missing or malformed pin fails its check
// instead of aborting the run, so a run still reports what it observed.
template <typename F>
Check pinned_check(const std::string& name, F&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return Check{name, false, std::string("pin unreadable: ") + e.what()};
  }
}

// --- yield helpers ----------------------------------------------------------

YieldEngineOptions yield_options(const WorkloadEnv& env, YieldMode mode) {
  YieldEngineOptions o;
  o.rows = env.smoke ? 256 : 4096;
  o.cols = 64;
  o.trials = env.smoke ? 4 : 64;
  o.vreg_grid = {0.38, 0.40, 0.42};
  o.seed = env.seed;
  o.mode = mode;
  o.threads = env.threads;
  if (env.smoke) o.block_cells = 4096;
  o.is_samples = env.smoke ? 2000 : 20000;
  o.is_shift = 4.5;
  return o;
}

constexpr std::size_t kGatePoint = 1;  // vreg_grid[1] = 0.40 V
constexpr double kZ95 = 1.96;          // TailEstimate::ci95 in sigmas

bool curves_identical(const YieldResult& a, const YieldResult& b) {
  if (a.samples != b.samples || a.candidates != b.candidates ||
      a.exact_solves != b.exact_solves || a.points.size() != b.points.size())
    return false;
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    const YieldPoint& x = a.points[k];
    const YieldPoint& y = b.points[k];
    if (x.failures != y.failures || !same_bits(x.tail.p, y.tail.p) ||
        !same_bits(x.tail.ci95, y.tail.ci95) ||
        !same_bits(x.tail.ess, y.tail.ess))
      return false;
  }
  return true;
}

// The traced yield path: one span per block, driven from here on a
// SweepExecutor, then the index-ordered reduce.
YieldResult traced_yield(const YieldPlan& plan, int threads, Tracer& tracer,
                         std::vector<double>& block_s, double& reduce_s) {
  const std::size_t count = plan.task_count();
  std::vector<BlockAccum> blocks(count);
  std::vector<double> durations(count, 0.0);
  const std::uint64_t parent = tracer.stage();
  SweepExecutorOptions exec_options;
  exec_options.threads = threads;
  SweepExecutor executor(exec_options);
  executor.run(count, [&](std::size_t i, int) {
    const double start = now_s();
    blocks[i] = plan.run_block(i);
    durations[i] = now_s() - start;
    Span span;
    span.name = "yield.block";
    span.cat = "yield";
    span.start_s = start;
    span.dur_s = durations[i];
    span.tid = thread_slot();
    span.id = tracer.next_id();
    span.parent = parent;
    span.rep = tracer.rep();
    span.args = "\"index\":" + std::to_string(i);
    tracer.record(std::move(span));
  });
  block_s.insert(block_s.end(), durations.begin(), durations.end());
  Stage stage(&tracer, "yield.reduce");
  YieldResult result = plan.reduce(blocks);
  reduce_s += stage.stop();
  return result;
}

void add_yield_counts(const YieldResult& r, LayerValues& layers) {
  layers["yield.samples"] += static_cast<double>(r.samples);
  layers["yield.candidates"] += static_cast<double>(r.candidates);
  layers["yield.exact_solves"] += static_cast<double>(r.exact_solves);
}

// Failures at the lowest grid point per surrogate-gated candidate: how much
// of the blockade's exact-solve budget lands on real tail cells.
double candidate_precision(const YieldResult& blockade) {
  return blockade.candidates
             ? static_cast<double>(blockade.points.front().failures) /
                   static_cast<double>(blockade.candidates)
             : 0.0;
}

// Owns a trained surrogate and the plans built on it (plans keep pointers
// to both the technology and the surrogate, so they are torn down first).
class YieldSetup {
 public:
  explicit YieldSetup(const Technology& tech) : tech_(tech) {}

  double train() {
    plans_.clear();
    surrogate_.reset();
    const double start = now_s();
    surrogate_ = std::make_unique<DrvSurrogate>(DrvSurrogate::train(tech_));
    return now_s() - start;
  }
  const YieldPlan& plan(const YieldEngineOptions& options) {
    plans_.push_back(std::make_unique<YieldPlan>(tech_, *surrogate_, options));
    return *plans_.back();
  }

 private:
  const Technology& tech_;
  std::unique_ptr<DrvSurrogate> surrogate_;
  std::vector<std::unique_ptr<YieldPlan>> plans_;
};

// --- paper_pipeline ---------------------------------------------------------

constexpr std::size_t kValidationWords = 4096;
constexpr int kValidationBits = 64;
constexpr double kCycleTime = 10e-9;

struct Validation {
  bool healthy_passes = false;
  std::size_t injected = 0;
  std::size_t detected = 0;
};

// Section V validation: a 4Kx64 device with one worst-case (CS1) weak cell
// must pass the flow, and the same device with each detectable defect
// injected at 4x its best matrix Rmin must fail it.
Validation validate_flow(const Technology& tech, const GeneratedTestFlow& flow,
                         const FlowOptimizer::Options& flow_options,
                         std::size_t weak_word, int weak_bit) {
  const CoreCell weak_cell(tech, case_study(1, true).variation,
                           flow_options.corner);
  const DrvResult weak_drv = drv_ds(weak_cell, flow_options.temp_c);
  const auto make_sram = [&] {
    SramConfig config;
    config.words = kValidationWords;
    config.bits = kValidationBits;
    config.corner = flow_options.corner;
    config.vdd = tech.vdd_nominal();
    config.temp_c = flow_options.temp_c;
    auto sram = std::make_unique<LowPowerSram>(config);
    sram->add_weak_cell(weak_word, weak_bit, weak_drv);
    return sram;
  };

  Validation v;
  v.healthy_passes = !run_flow(*make_sram(), flow).any_failure;
  const DetectionMatrix& m = flow.matrix;
  for (std::size_t d = 0; d < m.defects.size(); ++d) {
    double best = m.r_high * 2.0;
    for (const auto& row : m.rmin) best = std::min(best, row[d]);
    if (best > m.r_high) continue;  // undetectable under every condition
    auto sram = make_sram();
    sram->inject_regulator_defect(m.defects[d], best * 4.0);
    ++v.injected;
    if (run_flow(*sram, flow).any_failure) ++v.detected;
  }
  return v;
}

class PaperPipeline final : public Workload {
 public:
  explicit PaperPipeline(const WorkloadEnv& env)
      : env_(env), tech_(Technology::lp40nm()) {
    // The seed permutes submission order and places the weak cell; the
    // results must not depend on either.
    SeedStream rng(env.seed);
    defects_ = defects_for(env, rng);
    cases_ = table2_case_studies();
    shuffle(cases_, rng);
    table1_cases_ = paper_case_studies();
    shuffle(table1_cases_, rng);
    weak_word_ = rng.below(kValidationWords);
    weak_bit_ = static_cast<int>(rng.below(kValidationBits));
    if (env.smoke) {
      sigmas_ = {-6.0, 0.0, 6.0};
      corners_ = {Corner::Typical, Corner::FastNSlowP};
      temps_ = {25.0, 125.0};
      pvt_ = {PvtPoint{Corner::FastNSlowP, 1.0, 125.0},
              PvtPoint{Corner::Typical, 1.1, 25.0}};
    } else {
      sigmas_ = {-6.0, -4.5, -3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0, 4.5, 6.0};
      corners_.assign(kAllCorners.begin(), kAllCorners.end());
      temps_.assign(tech_.temperatures().begin(), tech_.temperatures().end());
    }
  }

  void setup() override {
    DefectCharacterizationOptions options;
    options.pvt = pvt_;  // empty: the full 45-point grid
    options.threads = env_.threads;
    characterizer_ = std::make_unique<DefectCharacterizer>(tech_, options);
    analyzer_ = std::make_unique<RetentionAnalyzer>(tech_);
  }

  void run(Tracer* tracer, LayerValues& layers) override {
    Output out;
    double tasks = 0.0;
    {
      Stage stage(tracer, "cell.table1");
      for (const CaseStudy& cs : table1_cases_)
        out.table1.push_back(characterize_case_study(tech_, cs));
      layers["cell.table1_s"] = stage.stop();
    }
    tasks += static_cast<double>(out.table1.size());
    double worst_drv = 0.0;
    for (const CaseStudyDrv& row : out.table1)
      worst_drv = std::max(worst_drv, row.drv_ds());

    {
      Stage stage(tracer, "cell.fig4");
      SweepReport report;
      SweepTelemetry telemetry;
      out.fig4 = analyzer_->fig4_sweep(sigmas_, corners_, temps_, &report,
                                       &telemetry, env_.threads);
      layers["cell.fig4_s"] = stage.stop();
      out.quarantined += report.quarantined_count();
      add_telemetry(telemetry, layers);
      tasks += static_cast<double>(telemetry.tasks);
    }

    {
      Stage stage(tracer, "testflow.table2");
      SweepTelemetry telemetry;
      const auto rows = characterizer_->table(defects_, cases_, &telemetry);
      layers["testflow.table2_s"] = stage.stop();
      out.table2 = canonical(rows, cases_, &out.quarantined);
      add_telemetry(telemetry, layers);
      tasks += static_cast<double>(telemetry.tasks);
    }

    FlowOptimizer::Options flow_options;
    flow_options.worst_drv = worst_drv;
    flow_options.threads = env_.threads;
    {
      Stage stage(tracer, "testflow.matrix");
      out.flow = TestFlowGenerator(tech_, flow_options).generate(defects_);
      layers["testflow.matrix_s"] = stage.stop();
    }
    out.quarantined += out.flow.matrix.sweep.quarantined_count();
    add_telemetry(out.flow.matrix.telemetry, layers);
    tasks += static_cast<double>(out.flow.matrix.telemetry.tasks);

    {
      Stage stage(tracer, "march.validation");
      out.validation =
          validate_flow(tech_, out.flow, flow_options, weak_word_, weak_bit_);
      layers["march.validation_s"] = stage.stop();
    }
    tasks += static_cast<double>(1 + out.validation.injected);

    work_ = tasks;
    failed_ = out.quarantined;
    quarantined_total_ += out.quarantined;
    if (!first_) {
      first_ = std::make_unique<Output>(std::move(out));
    } else if (std::string diff = first_difference(*first_, out);
               !diff.empty()) {
      if (mismatches_++ == 0) first_mismatch_ = std::move(diff);
    }
    ++runs_;
  }

  void finish(Tracer*, LayerValues&, std::vector<Check>& checks) override {
    if (!first_) throw std::logic_error("paper_pipeline: finish before run");
    const Output& out = *first_;
    const JsonValue& pins = *env_.expected;

    checks.push_back(pinned_check("cs1_drv", [&] {
      double drv = 0.0;
      for (const CaseStudyDrv& row : out.table1)
        if (row.cs.index == 1 && row.cs.degrades_one) drv = row.drv_ds();
      const double pin = pins.at("cs1_drv_v").num();
      const double tol = pins.at("drv_tolerance_v").num();
      return Check{"cs1_drv", std::fabs(drv - pin) <= tol,
                        fmt("%.9f V vs pin %.9f V (tolerance %.3g V)", drv, pin,
                            tol)};
    }));

    checks.push_back(pinned_check("table2_rmin", [&] {
      const JsonValue& table =
          pins.at(env_.smoke ? "smoke_table2_rmin_ohm" : "table2_rmin_ohm");
      const double rel = pins.at("rmin_rel_tolerance").num();
      std::size_t within = 0, total = 0;
      std::string first_miss;
      for (const auto& [key, cell] : out.table2) {
        const JsonValue& row = table.at(defect_name(key.first));
        const double pin =
            row.array.at(static_cast<std::size_t>(key.second - 1)).num();
        ++total;
        if (std::fabs(cell.rmin - pin) <= rel * pin) {
          ++within;
        } else if (first_miss.empty()) {
          first_miss = "; first miss " + defect_name(key.first) + " CS" +
                       std::to_string(key.second) +
                       fmt(": %.6g vs pin %.6g", cell.rmin, pin);
        }
      }
      return Check{"table2_rmin", total > 0 && within == total,
                        std::to_string(within) + "/" + std::to_string(total) +
                            fmt(" within %.3g%%", rel * 100.0) + first_miss};
    }));

    {
      std::size_t comparable = 0, tighter = 0;
      for (const DefectId id : defects_) {
        const Cell& cs2 = out.table2.at({id, 2});
        const Cell& cs5 = out.table2.at({id, 5});
        if (cs2.open_only || cs5.open_only) continue;
        ++comparable;
        if (cs5.rmin <= cs2.rmin * 1.0001) ++tighter;
      }
      checks.push_back(Check{
          "cs5_le_cs2", comparable > 0 && tighter == comparable,
          std::to_string(tighter) + "/" + std::to_string(comparable) +
              " comparable defects of " + std::to_string(defects_.size())});
    }

    checks.push_back(pinned_check("flow", [&] {
      const double iterations =
          static_cast<double>(out.flow.flow.iterations.size());
      const double reduction = out.flow.flow.time_reduction(
          out.flow.test, kValidationWords, kCycleTime);
      const double pin_iterations = pins.at("flow_iterations").num();
      const double pin_reduction = pins.at("flow_time_reduction").num();
      return Check{
          "flow",
          iterations == pin_iterations &&
              std::fabs(reduction - pin_reduction) < 1e-9,
          fmt("%.0f iterations, %.1f%% reduction (pins %.0f, %.1f%%)",
              iterations, reduction * 100.0, pin_iterations,
              pin_reduction * 100.0)};
    }));

    checks.push_back(pinned_check("validation", [&] {
      const Validation& v = out.validation;
      const double coverage =
          v.injected ? static_cast<double>(v.detected) /
                           static_cast<double>(v.injected)
                     : 0.0;
      const double pin = pins.at("validation_coverage").num();
      return Check{
          "validation", v.healthy_passes && v.injected > 0 && coverage == pin,
          std::string("healthy ") + (v.healthy_passes ? "passes" : "FAILS") +
              ", " + std::to_string(v.detected) + "/" +
              std::to_string(v.injected) + " defects detected, weak cell at " +
              std::to_string(weak_word_) + ":" + std::to_string(weak_bit_)};
    }));

    checks.push_back(Check{"no_quarantined_points", quarantined_total_ == 0,
                                std::to_string(quarantined_total_) +
                                    " quarantined over " +
                                    std::to_string(runs_) + " runs"});
    std::string detail =
        std::to_string(runs_ - mismatches_) + "/" + std::to_string(runs_) +
        " runs bit-identical (tables, counters, flow, validation)";
    if (!first_mismatch_.empty())
      detail += "; first difference: " + first_mismatch_;
    checks.push_back(
        Check{"repetitions_identical", mismatches_ == 0, std::move(detail)});
  }

  double work() const override { return work_; }
  const char* work_unit() const override { return "tasks"; }
  double nominal_rep_s() const override { return 4.6; }
  std::uint64_t failed_ops() const override { return failed_; }

  std::string observed_json() const override {
    if (!first_) return {};
    const Output& out = *first_;
    std::string json;
    for (const CaseStudyDrv& row : out.table1)
      if (row.cs.index == 1 && row.cs.degrades_one)
        json += fmt("\"cs1_drv_v\": %.9f, ", row.drv_ds());
    json += "\"table2_rmin_ohm\": {";
    const char* sep = "";
    for (const DefectId id : table2_defects()) {
      if (!out.table2.count({id, 1})) continue;
      json += sep + json_quote(defect_name(id)) + ": [";
      for (int cs = 1; cs <= 5; ++cs)
        json += fmt(cs > 1 ? ", %.17g" : "%.17g", out.table2.at({id, cs}).rmin);
      json += "]";
      sep = ", ";
    }
    json += "}, ";
    json += fmt("\"flow_iterations\": %.0f, \"flow_time_reduction\": %.17g",
                static_cast<double>(out.flow.flow.iterations.size()),
                out.flow.flow.time_reduction(out.flow.test, kValidationWords,
                                             kCycleTime));
    return json;
  }

 private:
  struct Output {
    std::vector<CaseStudyDrv> table1;
    std::vector<Fig4Point> fig4;
    Table2 table2;
    GeneratedTestFlow flow;
    Validation validation;
    std::uint64_t quarantined = 0;
  };

  // What differs between two runs, first difference only; empty if none.
  static std::string first_difference(const Output& a, const Output& b) {
    for (const auto& [key, cell] : a.table2) {
      const Cell& other = b.table2.at(key);
      if (cell == other) continue;
      const auto list = [](const std::vector<std::uint64_t>& values) {
        std::string s;
        for (std::size_t i = 0; i < values.size(); ++i)
          s += fmt(i ? ",%.0f" : "%.0f", static_cast<double>(values[i]));
        return s;
      };
      const std::string counters = list(cell.counters) + " vs " +
                                   list(other.counters);
      return "Table II " + defect_name(key.first) + " CS" +
             std::to_string(key.second) +
             fmt(": rmin %.17g vs %.17g, counters ", cell.rmin, other.rmin) +
             counters;
    }
    for (std::size_t i = 0; i < a.fig4.size(); ++i)
      if (!same_bits(a.fig4[i].drv1, b.fig4[i].drv1) ||
          !same_bits(a.fig4[i].drv0, b.fig4[i].drv0))
        return "Fig. 4 point " + std::to_string(i);
    if (a.flow.matrix.rmin != b.flow.matrix.rmin) return "detection matrix";
    if (counter_signature(a.flow.matrix.telemetry.solves) !=
        counter_signature(b.flow.matrix.telemetry.solves))
      return "detection matrix solve counters";
    if (a.flow.flow.iterations.size() != b.flow.flow.iterations.size())
      return "flow iterations";
    if (a.validation.healthy_passes != b.validation.healthy_passes ||
        a.validation.detected != b.validation.detected)
      return "validation";
    return {};
  }

  WorkloadEnv env_;
  Technology tech_;
  std::vector<DefectId> defects_;
  std::vector<CaseStudy> cases_;
  std::vector<CaseStudy> table1_cases_;
  std::size_t weak_word_ = 0;
  int weak_bit_ = 0;
  std::vector<double> sigmas_;
  std::vector<Corner> corners_;
  std::vector<double> temps_;
  std::vector<PvtPoint> pvt_;

  std::unique_ptr<DefectCharacterizer> characterizer_;
  std::unique_ptr<RetentionAnalyzer> analyzer_;

  std::unique_ptr<Output> first_;
  double work_ = 0.0;
  std::uint64_t failed_ = 0;
  std::uint64_t quarantined_total_ = 0;
  std::size_t runs_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_mismatch_;
};

// --- yield_tail -------------------------------------------------------------

class YieldTail final : public Workload {
 public:
  explicit YieldTail(const WorkloadEnv& env)
      : env_(env), tech_(Technology::lp40nm()), yield_(tech_) {}

  void setup() override {
    train_s_ = yield_.train();
    blockade_ = &yield_.plan(yield_options(env_, YieldMode::Blockade));
    is_ = &yield_.plan(yield_options(env_, YieldMode::ImportanceSampled));
  }

  void run(Tracer* tracer, LayerValues& layers) override {
    Output out;
    if (!tracer) {
      out.blockade = run_yield(*blockade_);
      out.is = run_yield(*is_);
    } else {
      std::vector<double> block_s;
      double reduce_s = 0.0;
      {
        Stage stage(tracer, "yield.blockade");
        out.blockade =
            traced_yield(*blockade_, env_.threads, *tracer, block_s, reduce_s);
        layers["yield.blockade_s"] = stage.stop();
      }
      {
        Stage stage(tracer, "yield.is");
        out.is = traced_yield(*is_, env_.threads, *tracer, block_s, reduce_s);
        layers["yield.is_s"] = stage.stop();
      }
      layers["yield.block_s.p50"] = quantile(block_s, 0.50);
      layers["yield.block_s.p99"] = quantile(block_s, 0.99);
      layers["yield.reduce_s"] = reduce_s;
    }
    layers["yield.train_s"] = train_s_;
    add_yield_counts(out.blockade, layers);
    add_yield_counts(out.is, layers);
    layers["yield.candidate_precision"] = candidate_precision(out.blockade);
    layers["yield.is_ess_share"] =
        out.is.samples ? out.is.points[kGatePoint].tail.ess /
                             static_cast<double>(out.is.samples)
                       : 0.0;

    work_ = static_cast<double>(out.blockade.samples + out.is.samples);
    if (!first_) {
      first_ = std::make_unique<Output>(std::move(out));
    } else if (!curves_identical(first_->blockade, out.blockade) ||
               !curves_identical(first_->is, out.is)) {
      ++mismatches_;
    }
    ++runs_;
  }

  void finish(Tracer*, LayerValues&, std::vector<Check>& checks) override {
    if (!first_) throw std::logic_error("yield_tail: finish before run");
    const YieldPoint& b = first_->blockade.points[kGatePoint];
    const YieldPoint& s = first_->is.points[kGatePoint];
    // The two estimates agree at the gate point within 5 sigma of their
    // difference. The blockade's failure count is Poisson (about 36 are
    // expected), so its sigma comes from the precise importance-sampled p,
    // not from its own count: a seed that draws 18 failures gets a 95% CI
    // too narrow to reach the true p. Requiring the two 95% CIs to overlap
    // failed on 1 of 50 seeds (seed 36); at 5 sigma a correct pair of
    // engines fails on about one seed in 10^5.
    const double blockade_sigma =
        std::sqrt(s.tail.p / static_cast<double>(first_->blockade.samples));
    const double sigma = std::hypot(blockade_sigma, s.tail.ci95 / kZ95);
    const double gap = std::fabs(b.tail.p - s.tail.p);
    checks.push_back(Check{
        "estimates_agree_0.40V", gap <= 5.0 * sigma,
        fmt("blockade %.3e (%.0f failures), importance %.3e +/- %.3e",
            b.tail.p, static_cast<double>(b.failures), s.tail.p,
            s.tail.ci95) +
            fmt("; gap %.2f sigma", sigma > 0.0 ? gap / sigma : 0.0)});
    const YieldEngineOptions& o = blockade_->options();
    const std::uint64_t want =
        static_cast<std::uint64_t>(o.trials) * o.rows * o.cols;
    checks.push_back(Check{
        "samples",
        first_->blockade.samples == want &&
            first_->is.samples == is_->options().is_samples,
        fmt("blockade %.0f of %.0f, importance %.0f",
            static_cast<double>(first_->blockade.samples),
            static_cast<double>(want),
            static_cast<double>(first_->is.samples))});
    checks.push_back(Check{
        "repetitions_identical", mismatches_ == 0,
        std::to_string(runs_ - mismatches_) + "/" + std::to_string(runs_) +
            " runs bit-identical (traced and untraced paths)"});
  }

  double work() const override { return work_; }
  const char* work_unit() const override { return "cells"; }
  double nominal_rep_s() const override { return 4.0; }

 private:
  struct Output {
    YieldResult blockade;
    YieldResult is;
  };

  WorkloadEnv env_;
  Technology tech_;
  YieldSetup yield_;
  const YieldPlan* blockade_ = nullptr;
  const YieldPlan* is_ = nullptr;
  double train_s_ = 0.0;
  std::unique_ptr<Output> first_;
  double work_ = 0.0;
  std::size_t runs_ = 0;
  std::size_t mismatches_ = 0;
};

// --- table2_campaign --------------------------------------------------------

class Table2Campaign final : public Workload {
 public:
  explicit Table2Campaign(const WorkloadEnv& env)
      : env_(env), tech_(Technology::lp40nm()) {
    SeedStream rng(env.seed);
    defects_ = defects_for(env, rng);
    cases_ = table2_case_studies();
    shuffle(cases_, rng);
    if (env.smoke) {
      options_.pvt = {PvtPoint{Corner::FastNSlowP, 1.0, 125.0}};
    } else {
      for (const Corner corner :
           {Corner::FastNSlowP, Corner::SlowNFastP, Corner::Typical})
        for (const double vdd : tech_.vdd_levels())
          options_.pvt.push_back(PvtPoint{corner, vdd, 125.0});
    }
    options_.threads = env.threads;
    resumes_ = env.smoke ? 2 : 20;
    journal_ = env.work_dir + "/table2_campaign.journal";
  }

  void setup() override {
    characterizer_.reset();
    campaign_.reset();
    fs::remove(journal_);
    fs::remove(journal_ + ".tmp");
    campaign_ = std::make_unique<Campaign>(journal_);
    DefectCharacterizationOptions options = options_;
    options.campaign = campaign_.get();
    characterizer_ = std::make_unique<DefectCharacterizer>(tech_, options);
  }

  void run(Tracer* tracer, LayerValues& layers) override {
    SweepTelemetry telemetry;
    std::uint64_t quarantined = 0;
    Table2 fresh;
    {
      Stage stage(tracer, "journal.sweep");
      fresh = canonical(characterizer_->table(defects_, cases_, &telemetry),
                        cases_, &quarantined);
      journaled_s_.push_back(stage.stop());
    }
    add_telemetry(telemetry, layers);
    worst_drv_ = characterizer_->worst_drv();
    // Close the writer before the resumes reopen the same file.
    characterizer_.reset();
    campaign_.reset();

    std::vector<double> open_s, decode_s, resume_s;
    for (int r = 0; r < resumes_; ++r) {
      Stage stage(tracer, "journal.resume");
      const double start = now_s();
      Campaign campaign(journal_);
      const double opened = now_s();
      DefectCharacterizationOptions options = options_;
      options.campaign = &campaign;
      options.worst_drv = worst_drv_;
      std::uint64_t replay_quarantined = 0;
      const Table2 resumed = canonical(
          DefectCharacterizer(tech_, options).table(defects_, cases_), cases_,
          &replay_quarantined);
      const double done = now_s();
      stage.stop();
      open_s.push_back(opened - start);
      decode_s.push_back(done - opened);
      resume_s.push_back(done - start);
      ++resumes_run_;
      if (resumed != fresh) ++resume_mismatches_;
    }
    layers["journal.open_replay_s"] = median(open_s);
    layers["journal.decode_s"] = median(decode_s);
    layers["journal.resume_s"] = median(resume_s);

    work_ = static_cast<double>(telemetry.tasks);
    failed_ = quarantined;
    quarantined_total_ += quarantined;
    if (first_.empty()) {
      first_ = std::move(fresh);
    } else if (fresh != first_) {
      ++mismatches_;
    }
    ++runs_;
  }

  void finish(Tracer* tracer, LayerValues& layers,
              std::vector<Check>& checks) override {
    checks.push_back(Check{
        "resume_bit_identical", resumes_run_ > 0 && resume_mismatches_ == 0,
        std::to_string(resumes_run_ - resume_mismatches_) + "/" +
            std::to_string(resumes_run_) +
            " resumed tables bit-identical to the fresh table"});
    checks.push_back(Check{"no_quarantined_points", quarantined_total_ == 0,
                                std::to_string(quarantined_total_) +
                                    " quarantined over " +
                                    std::to_string(runs_) + " runs"});
    checks.push_back(Check{
        "repetitions_identical", mismatches_ == 0,
        std::to_string(runs_ - mismatches_) + "/" + std::to_string(runs_) +
            " fresh tables bit-identical"});
    if (!tracer) return;

    // The last repetition's finished journal: size, records, compaction,
    // then the same sweep without a journal for the journaling overhead.
    layers["journal.bytes"] = static_cast<double>(fs::file_size(journal_));
    const ShardSnapshot snapshot = read_campaign_snapshot(journal_);
    double records = static_cast<double>(snapshot.manifests.size());
    for (const auto& [key, task] : snapshot.tasks)
      records += 1.0 + static_cast<double>(task.ops.size());
    layers["journal.records"] = records;
    {
      Campaign campaign(journal_);
      Stage stage(tracer, "journal.compact");
      campaign.compact();
      layers["journal.compact_s"] = stage.stop();
    }
    DefectCharacterizationOptions options = options_;
    options.worst_drv = worst_drv_;
    const DefectCharacterizer plain(tech_, options);
    Stage stage(tracer, "journal.unjournaled_sweep");
    plain.table(defects_, cases_);
    layers["journal.overhead_s"] = median(journaled_s_) - stage.stop();
  }

  double work() const override { return work_; }
  const char* work_unit() const override { return "tasks"; }
  double nominal_rep_s() const override { return 2.1; }
  std::uint64_t failed_ops() const override { return failed_; }

 private:
  WorkloadEnv env_;
  Technology tech_;
  std::vector<DefectId> defects_;
  std::vector<CaseStudy> cases_;
  DefectCharacterizationOptions options_;
  int resumes_ = 0;
  std::string journal_;

  std::unique_ptr<Campaign> campaign_;
  std::unique_ptr<DefectCharacterizer> characterizer_;
  double worst_drv_ = 0.0;

  Table2 first_;
  std::vector<double> journaled_s_;
  double work_ = 0.0;
  std::uint64_t failed_ = 0;
  std::uint64_t quarantined_total_ = 0;
  std::size_t runs_ = 0;
  std::size_t mismatches_ = 0;
  std::size_t resumes_run_ = 0;
  std::size_t resume_mismatches_ = 0;
};

// --- yield_fleet ------------------------------------------------------------

class YieldFleet final : public Workload {
 public:
  explicit YieldFleet(const WorkloadEnv& env)
      : env_(env), tech_(Technology::lp40nm()), yield_(tech_) {
    dir_ = env.work_dir + "/yield_fleet";
  }

  void setup() override {
    train_s_ = yield_.train();
    plan_ = &yield_.plan(yield_options(env_, YieldMode::Blockade));
  }

  void run(Tracer* tracer, LayerValues& layers) override {
    fs::remove_all(dir_);
    fabric::FabricOptions options;
    options.dir = dir_;
    options.workers = kWorkers;
    options.worker_threads = std::max(1, env_.threads / kWorkers);
    options.salt = YieldPlan::kSalt;
    options.fingerprint = plan_->fingerprint();
    const YieldPlan& plan = *plan_;

    Output out;
    double fleet_s = 0.0, reduce_s = 0.0;
    {
      Stage stage(tracer, "fabric.run_fabric");
      out.report = fabric::run_fabric(
          options, plan.task_count(),
          [&plan](std::uint64_t i) { return plan.key_of(i); },
          [&plan](std::uint64_t i, int) {
            return plan.encode_block(plan.run_block(i));
          });
      fleet_s = stage.stop();
    }
    {
      Stage stage(tracer, "fabric.reduce");
      out.curve = reduce_yield_journal(plan, options.merged_path());
      reduce_s = stage.stop();
    }
    fleet_walls_.push_back(fleet_s + reduce_s);

    double shard_bytes = 0.0;
    for (int w = 0; w < kWorkers; ++w) {
      std::error_code absent;  // a worker that never got a lease has no shard
      const auto bytes =
          fs::file_size(fabric::shard_journal_path(dir_, w), absent);
      if (!absent) shard_bytes += static_cast<double>(bytes);
    }
    const fabric::FabricReport& r = out.report;
    layers["fabric.leases_issued"] = static_cast<double>(r.leases_issued);
    layers["fabric.leases_expired"] = static_cast<double>(r.leases_expired);
    layers["fabric.duplicates"] = static_cast<double>(r.duplicates);
    layers["fabric.workers_died"] = static_cast<double>(r.workers_died);
    layers["fabric.shard_bytes"] = shard_bytes;
    layers["fabric.merge_reduce_s"] = reduce_s;
    add_yield_counts(out.curve, layers);

    work_ = static_cast<double>(out.curve.samples);
    if (!first_) {
      first_ = std::make_unique<Output>(std::move(out));
    } else if (!curves_identical(first_->curve, out.curve) ||
               !same_report(first_->report, out.report)) {
      ++mismatches_;
    }
    ++runs_;
  }

  void finish(Tracer* tracer, LayerValues& layers,
              std::vector<Check>& checks) override {
    if (!first_) throw std::logic_error("yield_fleet: finish before run");
    // The same plan in-process at the full thread count: the bit-identity
    // reference and the baseline of the fleet's overhead.
    YieldResult reference;
    double reference_s = 0.0;
    if (tracer) {
      std::vector<double> block_s;
      double reduce_s = 0.0;
      Stage stage(tracer, "yield.blockade");
      reference =
          traced_yield(*plan_, env_.threads, *tracer, block_s, reduce_s);
      reference_s = stage.stop();
      layers["yield.blockade_s"] = reference_s;
      layers["yield.block_s.p50"] = quantile(block_s, 0.50);
      layers["yield.block_s.p99"] = quantile(block_s, 0.99);
      layers["yield.reduce_s"] = reduce_s;
      layers["yield.train_s"] = train_s_;
      layers["yield.candidate_precision"] = candidate_precision(reference);
      layers["fabric.overhead_s"] = median(fleet_walls_) - reference_s;
    } else {
      reference = run_yield(*plan_);
    }

    const fabric::FabricReport& r = first_->report;
    checks.push_back(Check{
        "fleet_complete",
        r.complete && r.tasks_total == plan_->task_count() &&
            r.workers_died == 0,
        fmt("%.0f/%.0f tasks, %.0f leases, %.0f workers died",
            static_cast<double>(r.tasks_executed + r.tasks_recovered),
            static_cast<double>(r.tasks_total),
            static_cast<double>(r.leases_issued),
            static_cast<double>(r.workers_died))});
    checks.push_back(Check{
        "fleet_equals_in_process", curves_identical(first_->curve, reference),
        "merged curve vs in-process run_yield of the same plan"});
    checks.push_back(Check{
        "repetitions_identical", mismatches_ == 0,
        std::to_string(runs_ - mismatches_) + "/" + std::to_string(runs_) +
            " runs bit-identical (curves, tasks, leases)"});
  }

  double work() const override { return work_; }
  const char* work_unit() const override { return "cells"; }
  double nominal_rep_s() const override { return 3.5; }

 private:
  static constexpr int kWorkers = 2;

  struct Output {
    fabric::FabricReport report;
    YieldResult curve;
  };

  static bool same_report(const fabric::FabricReport& a,
                          const fabric::FabricReport& b) {
    return a.tasks_total == b.tasks_total && a.complete == b.complete &&
           a.leases_issued == b.leases_issued;
  }

  WorkloadEnv env_;
  Technology tech_;
  YieldSetup yield_;
  std::string dir_;
  const YieldPlan* plan_ = nullptr;
  double train_s_ = 0.0;
  std::vector<double> fleet_walls_;
  std::unique_ptr<Output> first_;
  double work_ = 0.0;
  std::size_t runs_ = 0;
  std::size_t mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadEnv& env) {
  if (name == "paper_pipeline") return std::make_unique<PaperPipeline>(env);
  if (name == "yield_tail") return std::make_unique<YieldTail>(env);
  if (name == "table2_campaign") return std::make_unique<Table2Campaign>(env);
  if (name == "yield_fleet") return std::make_unique<YieldFleet>(env);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace lpsram::bench
