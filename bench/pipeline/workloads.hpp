// The benchmark's four workloads. A repetition is setup() then run();
// bench_pipeline.cpp times both from outside. finish() runs once after the
// timed repetitions: the correctness checks, and any reference run a check
// or a per-layer metric needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "json.hpp"
#include "trace.hpp"

namespace lpsram::bench {

// Per-layer values of one traced stretch of work, by metric name.
using LayerValues = std::map<std::string, double>;

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct WorkloadEnv {
  std::uint64_t seed = 1;
  int threads = 4;          // executor threads of every in-process sweep
  bool smoke = false;       // tiny sizes for the ctest smoke run
  std::string work_dir;     // journals and fabric shards go here
  const JsonValue* expected = nullptr;  // correctness pins (expected.json)
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Plan construction: characterizers, surrogate training, journals.
  virtual void setup() = 0;
  // The timed body. With a tracer the workload records a span per stage
  // call and fills `layers`; without one it takes the untraced path.
  virtual void run(Tracer* tracer, LayerValues& layers) = 0;
  // After the timed repetitions: appends the correctness checks; with a
  // tracer, also fills the layer values the repetitions did not measure.
  virtual void finish(Tracer* tracer, LayerValues& layers,
                      std::vector<Check>& checks) = 0;

  // Fixed work of one repetition, in work_unit()s.
  virtual double work() const = 0;
  virtual const char* work_unit() const = 0;
  // Wall time of one repetition on the reference machine (README.md). Only
  // turns --seconds into a repetition count, so the count does not depend on
  // the speed of the commit under test.
  virtual double nominal_rep_s() const = 0;
  // Operations that failed (quarantined sweep points) in the last run().
  virtual std::uint64_t failed_ops() const { return 0; }
  // JSON object members ("\"k\": v, ...") with the values worth pinning in
  // expected.json; empty when the workload pins nothing.
  virtual std::string observed_json() const { return {}; }
};

extern const std::vector<std::string> kWorkloadNames;

// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadEnv& env);

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace lpsram::bench
