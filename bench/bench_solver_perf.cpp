// PERF: google-benchmark microbenchmarks of the numerical substrates — the
// cost centers behind every table: MNA DC solves (cold/warm), transient
// steps, SNM and DRV extraction, and March execution throughput.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "build_type_warning.hpp"
#include "lpsram/cell/drv.hpp"
#include "lpsram/cell/snm.hpp"
#include "lpsram/device/mosfet_lanes.hpp"
#include "lpsram/march/executor.hpp"
#include "lpsram/march/library.hpp"
#include "lpsram/regulator/regulator.hpp"
#include "lpsram/spice/batch_transient.hpp"
#include "lpsram/spice/dc_solver.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {
namespace {

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

void BM_MosfetEval(benchmark::State& state) {
  const Mosfet m{tech().cell_pulldown()};
  double vg = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.eval(vg, 1.1, 0.0, 25.0));
    vg = vg < 1.0 ? vg + 1e-6 : 0.3;
  }
}
BENCHMARK(BM_MosfetEval);

// Cold/warm regulator DC solves on a pinned kernel. BM_RegulatorDcCold /
// BM_RegulatorDcWarm (no suffix) measure the production default (sparse);
// the Sparse/Dense-suffixed variants are the head-to-head comparison
// tools/check_bench_solver.py gates CI on.
void regulator_dc_cold(benchmark::State& state, Kernel kernel) {
  const ScopedKernelConfig scope(&KernelConfig::linear_solver, kernel);
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_vdd(1.1);
  reg.select_vref(VrefLevel::V070);
  for (auto _ : state) {
    reg.clear_all_defects();  // invalidates the warm start
    benchmark::DoNotOptimize(reg.vreg_dc(25.0));
  }
}

void regulator_dc_warm(benchmark::State& state, Kernel kernel) {
  const ScopedKernelConfig scope(&KernelConfig::linear_solver, kernel);
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_vdd(1.1);
  reg.select_vref(VrefLevel::V070);
  benchmark::DoNotOptimize(reg.vreg_dc(25.0));  // prime the warm start
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.vreg_dc(25.0));
  }
}

void BM_RegulatorDcCold(benchmark::State& state) {
  regulator_dc_cold(state, kernel_config().linear_solver);
}
BENCHMARK(BM_RegulatorDcCold);

void BM_RegulatorDcColdSparse(benchmark::State& state) {
  regulator_dc_cold(state, Kernel::Production);
}
BENCHMARK(BM_RegulatorDcColdSparse);

void BM_RegulatorDcColdDense(benchmark::State& state) {
  regulator_dc_cold(state, Kernel::Reference);
}
BENCHMARK(BM_RegulatorDcColdDense);

void BM_RegulatorDcWarm(benchmark::State& state) {
  regulator_dc_warm(state, kernel_config().linear_solver);
}
BENCHMARK(BM_RegulatorDcWarm);

void BM_RegulatorDcWarmSparse(benchmark::State& state) {
  regulator_dc_warm(state, Kernel::Production);
}
BENCHMARK(BM_RegulatorDcWarmSparse);

void BM_RegulatorDcWarmDense(benchmark::State& state) {
  regulator_dc_warm(state, Kernel::Reference);
}
BENCHMARK(BM_RegulatorDcWarmDense);

void BM_DsEntryTransient(benchmark::State& state) {
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_vdd(1.0);
  reg.select_vref(VrefLevel::V074);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.simulate_ds_entry(30e-6, 25.0));
  }
}
BENCHMARK(BM_DsEntryTransient);

// The pairs nearest their 3.0x floor in CI, hold-SNM and the lockstep
// defect transients, each run kGateRepetitions repetitions per side,
// interleaved at random with the other benchmarks' runs (CI passes
// --benchmark_enable_random_interleaving), and the gate reads their
// medians. On a shared 4-vCPU VM one 0.1 s run of each transient side read
// 2.8-3.9x around the floor with the code unchanged, and medians of 7
// repetitions 2.4-3.7x; single hold-SNM runs read 3.5-4.8x.
constexpr int kGateRepetitions = 15;

// SNM / DRV extraction on a pinned cell-analysis kernel. The no-suffix
// variants measure the production default (batched); the Scalar/Batched
// pair is the head-to-head comparison tools/check_bench_solver.py gates CI
// on (batched must stay >= 3x faster than the scalar oracle).
void hold_snm_bench(benchmark::State& state, Kernel kernel) {
  const ScopedKernelConfig scope(&KernelConfig::cell, kernel);
  const CoreCell cell(tech());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hold_snm(cell, StoredBit::One, 0.8, 25.0));
  }
}

void drv_extraction_bench(benchmark::State& state, Kernel kernel) {
  const ScopedKernelConfig scope(&KernelConfig::cell, kernel);
  CellVariation v;
  v.mpcc1 = -3;
  v.mncc1 = -3;
  const CoreCell cell(tech(), v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(drv_hold(cell, StoredBit::One, 25.0));
  }
}

void BM_HoldSnm(benchmark::State& state) {
  hold_snm_bench(state, kernel_config().cell);
}
BENCHMARK(BM_HoldSnm);

void BM_HoldSnmScalar(benchmark::State& state) {
  hold_snm_bench(state, Kernel::Reference);
}
BENCHMARK(BM_HoldSnmScalar)->Repetitions(kGateRepetitions);

void BM_HoldSnmBatched(benchmark::State& state) {
  hold_snm_bench(state, Kernel::Production);
}
BENCHMARK(BM_HoldSnmBatched)->Repetitions(kGateRepetitions);

void BM_DrvExtraction(benchmark::State& state) {
  drv_extraction_bench(state, kernel_config().cell);
}
BENCHMARK(BM_DrvExtraction);

void BM_DrvExtractionScalar(benchmark::State& state) {
  drv_extraction_bench(state, Kernel::Reference);
}
BENCHMARK(BM_DrvExtractionScalar);

void BM_DrvExtractionBatched(benchmark::State& state) {
  drv_extraction_bench(state, Kernel::Production);
}
BENCHMARK(BM_DrvExtractionBatched);

// Lane-parallel MOSFET evaluation on a pinned SIMD kernel: the Scalar/Simd
// pair is the head-to-head comparison tools/check_bench_solver.py gates CI
// on (the vectorized lanes must stay >= 2x the scalar-lane throughput).
// Items processed = device evaluations, so the JSON carries items/sec.
void mosfet_eval_lanes_bench(benchmark::State& state, Kernel kernel) {
  const Mosfet m{tech().cell_pulldown()};
  const MosfetLaneConsts c = mosfet_lane_consts(m, 25.0);
  constexpr std::size_t kLanes = 256;  // multiple of every native width
  std::vector<double> vg(kLanes), vd(kLanes), vs(kLanes, 0.0);
  std::vector<double> id(kLanes), gm(kLanes), gds(kLanes), gms(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    vg[i] = 0.25 + 0.85 * static_cast<double>(i) / (kLanes - 1);
    vd[i] = 1.1 - 0.9 * static_cast<double>(i) / (kLanes - 1);
  }
  for (auto _ : state) {
    if (kernel == Kernel::Production) {
      using V = simd::Vec;
      for (std::size_t i = 0; i < kLanes; i += simd::kNativeWidth) {
        const MosEvalV<V> e =
            lane_eval_v(c, V::load(&vg[i]), V::load(&vd[i]), V::load(&vs[i]));
        e.id.store(&id[i]);
        e.gm.store(&gm[i]);
        e.gds.store(&gds[i]);
        e.gms.store(&gms[i]);
      }
    } else {
      for (std::size_t i = 0; i < kLanes; ++i) {
        const MosEval e = lane_eval(c, vg[i], vd[i], vs[i]);
        id[i] = e.id;
        gm[i] = e.gm;
        gds[i] = e.gds;
        gms[i] = e.gms;
      }
    }
    benchmark::DoNotOptimize(id.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kLanes);
}

void BM_MosfetEvalLanesScalar(benchmark::State& state) {
  mosfet_eval_lanes_bench(state, Kernel::Reference);
}
BENCHMARK(BM_MosfetEvalLanesScalar);

void BM_MosfetEvalLanesSimd(benchmark::State& state) {
  mosfet_eval_lanes_bench(state, Kernel::Production);
}
BENCHMARK(BM_MosfetEvalLanesSimd);

// Df-battery transient characterization workload: one gate-line defect of
// the regulator (the transient DRF mechanism) swept over 32 log-spaced
// resistances, each lane a full DS-entry transient — the exact hot path
// retention-deficit characterization runs per defect. Serial replays the
// per-defect oracle (one TransientSolver per lane); Lockstep marches all 32
// through spice/batch_transient. The pair is gated in CI (lockstep must
// stay >= 3x). Items processed = lane transients.
//
// The gate reads the median of kGateRepetitions repetitions of each side
// (see the hold-SNM pair above).

void defect_transients_bench(benchmark::State& state, Kernel kernel) {
  const ScopedKernelConfig scope(&KernelConfig::transient, kernel);
  constexpr DefectId kDf = 8;  // MPreg1 gate line
  constexpr std::size_t kDefects = 32;
  std::vector<double> ohms(kDefects);
  for (std::size_t l = 0; l < kDefects; ++l)
    ohms[l] =
        1e3 * std::pow(10.0, 5.0 * static_cast<double>(l) / (kDefects - 1));
  TransientOptions topts;
  topts.dt_max = 30e-6 / 100.0;
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_vdd(1.1);
  reg.select_vref(VrefLevel::V070);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        reg.simulate_ds_entry_lanes(kDf, ohms, 30e-6, 25.0, &topts));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kDefects);
}

void BM_DefectTransientsSerial(benchmark::State& state) {
  defect_transients_bench(state, Kernel::Reference);
}
BENCHMARK(BM_DefectTransientsSerial)->Repetitions(kGateRepetitions);

void BM_DefectTransientsLockstep(benchmark::State& state) {
  defect_transients_bench(state, Kernel::Production);
}
BENCHMARK(BM_DefectTransientsLockstep)->Repetitions(kGateRepetitions);

void BM_MarchMlz4Kx64(benchmark::State& state) {
  SramConfig config;
  config.words = 4096;
  config.bits = 64;
  config.baseline_drv = DrvResult{0.15, 0.15};
  LowPowerSram sram(config);
  MarchExecutorOptions options;
  options.ds_time = 1e-3;
  MarchExecutor executor(sram, options);
  const MarchTest test = march::march_m_lz();
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run(test));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 5 * 4096);
}
BENCHMARK(BM_MarchMlz4Kx64);

}  // namespace
}  // namespace lpsram

// Custom main instead of BENCHMARK_MAIN(): stamp the *binary's* build type
// into the JSON context (the stock `library_build_type` field describes the
// installed benchmark library, not this repo) so tools/check_bench_solver.py
// can refuse to gate on numbers from a debug build.
int main(int argc, char** argv) {
  lpsram::bench::warn_if_debug_build();
  benchmark::AddCustomContext(
      "lpsram_build_type", lpsram::bench::kReleaseBuild ? "release" : "debug");
  benchmark::AddCustomContext("lpsram_simd_backend",
                              lpsram::simd_backend_name());
  benchmark::AddCustomContext("lpsram_simd_width",
                              std::to_string(lpsram::simd_width()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
