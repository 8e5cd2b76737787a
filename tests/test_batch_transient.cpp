// Tests for the lane-batched transient engine (spice/batch_transient.hpp):
// kind plumbing, lockstep-vs-serial equivalence (bitwise where contracted,
// tolerance elsewhere), remainder-lane independence, eviction/exception
// parity, override restoration, and the regulator / characterizer
// integration (simulate_ds_entry_lanes, retention_deficits, drf_threshold).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lpsram/device/technology.hpp"
#include "lpsram/regulator/characterize.hpp"
#include "lpsram/spice/batch_transient.hpp"
#include "lpsram/spice/dc_solver.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {
namespace {

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

// A defect-sweep-shaped circuit: a rail fed through the swept resistor into
// a capacitive node with a nonlinear (diode-connected NMOS) pulldown. Lanes
// differ only in Rdf — exactly the TransientLane contract.
struct RailCircuit {
  Netlist nl;
  NodeId out = kGround;
  ElementId r_defect = -1;
  ElementId v = -1;
};

RailCircuit rail_circuit() {
  RailCircuit c;
  const NodeId vin = c.nl.add_node("vin");
  c.out = c.nl.add_node("out");
  c.v = c.nl.add_vsource("V", vin, kGround, 0.2);
  c.r_defect = c.nl.add_resistor("Rdf", vin, c.out, 1e3);
  c.nl.add_capacitor("C", c.out, kGround, 1e-9);
  c.nl.add_mosfet("MN", tech().cell_pulldown(), c.out, c.out, kGround);
  c.nl.add_resistor("Rload", c.out, kGround, 1e6);
  return c;
}

TransientOptions rail_options() {
  TransientOptions opts;
  opts.t_stop = 2e-6;
  opts.dt_initial = 1e-9;
  opts.dt_max = 5e-8;
  return opts;
}

// Ramp the rail to 1.1 V over the first microsecond.
Stimulus rail_stimulus(ElementId v) {
  return [v](double t, Netlist& nl) {
    nl.set_source_voltage(v, 0.2 + 0.9 * std::min(1.0, t / 1e-6));
  };
}

std::vector<TransientLane> rail_lanes(RailCircuit& c,
                                      const std::vector<double>& ohms) {
  std::vector<TransientLane> lanes(ohms.size());
  // A previous run's stimulus leaves the source at its final value; pin it
  // back to the t = 0 level so every lane's DC point is the true start.
  c.nl.set_source_voltage(c.v, 0.2);
  for (std::size_t l = 0; l < ohms.size(); ++l) {
    c.nl.set_resistance(c.r_defect, ohms[l]);
    DcResult dc = DcSolver(c.nl, 25.0).solve();
    lanes[l].element = c.r_defect;
    lanes[l].ohms = ohms[l];
    lanes[l].initial_x = std::move(dc.x);
  }
  return lanes;
}

void expect_waves_bitwise(const Waveform& a, const Waveform& b) {
  ASSERT_EQ(a.time.size(), b.time.size());
  for (std::size_t k = 0; k < a.time.size(); ++k)
    EXPECT_EQ(a.time[k], b.time[k]) << "sample " << k;
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t p = 0; p < a.values.size(); ++p)
    for (std::size_t k = 0; k < a.values[p].size(); ++k)
      EXPECT_EQ(a.values[p][k], b.values[p][k]) << "probe " << p << " sample "
                                                << k;
}

void expect_waves_near(const Waveform& a, const Waveform& b, double tol) {
  ASSERT_FALSE(a.time.empty());
  ASSERT_FALSE(b.time.empty());
  ASSERT_EQ(a.values.size(), b.values.size());
  const double t_end = std::min(a.time.back(), b.time.back());
  for (std::size_t p = 0; p < a.values.size(); ++p)
    for (int k = 0; k <= 40; ++k) {
      const double t = t_end * k / 40.0;
      EXPECT_NEAR(a.at(p, t), b.at(p, t), tol) << "probe " << p << " t=" << t;
    }
}

// ---------- kind plumbing --------------------------------------------------------

TEST(TransientBatchKindTest, DefaultResolvesToLockstep) {
  EXPECT_EQ(kernel_config().transient, Kernel::Production);
}

TEST(TransientBatchKindTest, ScopedOverrideRestores) {
  const Kernel before = kernel_config().transient;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient, Kernel::Reference);
    EXPECT_EQ(kernel_config().transient, Kernel::Reference);
    {
      const ScopedKernelConfig inner(&KernelConfig::transient,
                                     Kernel::Production);
      EXPECT_EQ(kernel_config().transient, Kernel::Production);
    }
    EXPECT_EQ(kernel_config().transient, Kernel::Reference);
  }
  EXPECT_EQ(kernel_config().transient, before);
}

// ---------- lockstep vs serial ---------------------------------------------------

TEST(BatchTransient, SingleLaneLockstepIsBitwiseSerial) {
  // One lane under the scalar SIMD kind replays the serial program exactly:
  // same probe schedule, same arithmetic, same shared-pivot analysis (its
  // own first Jacobian).
  const ScopedKernelConfig simd_scope(&KernelConfig::simd, Kernel::Reference);
  RailCircuit c = rail_circuit();
  const std::vector<TransientLane> lanes = rail_lanes(c, {4e3});

  std::vector<Waveform> serial;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient, Kernel::Reference);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    serial = solver.run(lanes, {c.out}, rail_stimulus(c.v));
  }
  std::vector<Waveform> lockstep;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    lockstep = solver.run(lanes, {c.out}, rail_stimulus(c.v));
    EXPECT_EQ(solver.evictions(), 0u);
  }
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(lockstep.size(), 1u);
  expect_waves_bitwise(serial[0], lockstep[0]);
}

TEST(BatchTransient, EqualValueLanesAreBitwiseSerial) {
  // All lanes identical: every lane's program is the representative's, so
  // each result must be bitwise the serial one.
  const ScopedKernelConfig simd_scope(&KernelConfig::simd, Kernel::Reference);
  RailCircuit c = rail_circuit();
  const std::vector<TransientLane> lanes =
      rail_lanes(c, {2e3, 2e3, 2e3, 2e3, 2e3});

  std::vector<Waveform> serial;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient, Kernel::Reference);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    serial = solver.run(lanes, {c.out}, rail_stimulus(c.v));
  }
  std::vector<Waveform> lockstep;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    lockstep = solver.run(lanes, {c.out}, rail_stimulus(c.v));
    EXPECT_EQ(solver.evictions(), 0u);
  }
  for (std::size_t l = 0; l < lanes.size(); ++l)
    expect_waves_bitwise(serial[l], lockstep[l]);
}

TEST(BatchTransient, MixedLanesMatchSerialWithinTolerance) {
  // Lanes spanning three decades share the representative's pivot order; a
  // standalone solve may pivot differently, so agreement is to solver
  // tolerance rather than bitwise.
  const ScopedKernelConfig simd_scope(&KernelConfig::simd, Kernel::Reference);
  RailCircuit c = rail_circuit();
  const std::vector<TransientLane> lanes =
      rail_lanes(c, {1e3, 5e3, 3e4, 2e5, 1e6});

  std::vector<Waveform> serial;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient, Kernel::Reference);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    serial = solver.run(lanes, {c.out}, rail_stimulus(c.v));
  }
  std::vector<Waveform> lockstep;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    lockstep = solver.run(lanes, {c.out}, rail_stimulus(c.v));
  }
  for (std::size_t l = 0; l < lanes.size(); ++l)
    expect_waves_near(serial[l], lockstep[l], 1e-6);
}

TEST(BatchTransient, RemainderLanesAreCountIndependent) {
  // A lane's result must not depend on how many other lanes share the batch
  // or on the padding up to the vector stride: sweep every count from 1 to
  // beyond two native widths with identical values and compare bitwise.
  const ScopedKernelConfig simd_scope(&KernelConfig::simd, Kernel::Reference);
  RailCircuit c = rail_circuit();
  const std::size_t k_max = 2 * simd::kNativeWidth + 3;

  const std::vector<TransientLane> one = rail_lanes(c, {8e3});
  std::vector<Waveform> reference;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    reference = solver.run(one, {c.out}, rail_stimulus(c.v));
  }
  for (std::size_t k = 2; k <= k_max; ++k) {
    const std::vector<TransientLane> lanes =
        rail_lanes(c, std::vector<double>(k, 8e3));
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    const std::vector<Waveform> waves =
        solver.run(lanes, {c.out}, rail_stimulus(c.v));
    for (std::size_t l = 0; l < k; ++l) expect_waves_bitwise(reference[0], waves[l]);
  }
}

TEST(BatchTransient, SimdKindMatchesScalarKindWithinTolerance) {
  RailCircuit c = rail_circuit();
  const std::vector<TransientLane> lanes = rail_lanes(c, {1e3, 1e4, 1e5, 1e6});

  std::vector<Waveform> scalar;
  {
    const ScopedKernelConfig simd_scope(&KernelConfig::simd, Kernel::Reference);
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    scalar = solver.run(lanes, {c.out}, rail_stimulus(c.v));
  }
  std::vector<Waveform> simd;
  {
    const ScopedKernelConfig simd_scope(&KernelConfig::simd,
                                        Kernel::Production);
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    simd = solver.run(lanes, {c.out}, rail_stimulus(c.v));
  }
  for (std::size_t l = 0; l < lanes.size(); ++l)
    expect_waves_near(scalar[l], simd[l], 1e-6);
}

// ---------- failure parity -------------------------------------------------------

TEST(BatchTransient, StepUnderflowThrowsLikeSerial) {
  // Starve Newton (one iteration per attempt) and pin dt_min just under
  // dt_initial: the serial solver underflows and throws; the lockstep path
  // evicts the lane and its serial rerun reproduces the same throw.
  RailCircuit c = rail_circuit();
  const std::vector<TransientLane> lanes = rail_lanes(c, {1e4});
  TransientOptions opts = rail_options();
  opts.dc.max_iterations = 1;
  opts.dt_min = opts.dt_initial * 0.5;
  const Stimulus hard_step = [&c](double t, Netlist& nl) {
    nl.set_source_voltage(c.v, t > 0.0 ? 1.1 : 0.0);
  };

  {
    const ScopedKernelConfig scope(&KernelConfig::transient, Kernel::Reference);
    BatchTransientSolver solver(c.nl, 25.0, opts);
    EXPECT_THROW(solver.run(lanes, {c.out}, hard_step), ConvergenceError);
  }
  {
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    BatchTransientSolver solver(c.nl, 25.0, opts);
    EXPECT_THROW(solver.run(lanes, {c.out}, hard_step), ConvergenceError);
  }
}

TEST(BatchTransient, OverridesRestoredAfterRunAndThrow) {
  RailCircuit c = rail_circuit();
  c.nl.set_resistance(c.r_defect, 7e3);
  const std::vector<TransientLane> lanes = rail_lanes(c, {1e4, 3e4});
  c.nl.set_resistance(c.r_defect, 7e3);

  {
    BatchTransientSolver solver(c.nl, 25.0, rail_options());
    solver.run(lanes, {c.out}, rail_stimulus(c.v));
    EXPECT_EQ(c.nl.resistance(c.r_defect), 7e3);
  }
  {
    TransientOptions opts = rail_options();
    opts.dc.max_iterations = 1;
    opts.dt_min = opts.dt_initial * 0.5;
    const Stimulus hard_step = [&c](double t, Netlist& nl) {
      nl.set_source_voltage(c.v, t > 0.0 ? 1.1 : 0.0);
    };
    BatchTransientSolver solver(c.nl, 25.0, opts);
    EXPECT_THROW(solver.run(lanes, {c.out}, hard_step), ConvergenceError);
    EXPECT_EQ(c.nl.resistance(c.r_defect), 7e3);
  }
}

TEST(BatchTransient, RejectsMismatchedInitialState) {
  RailCircuit c = rail_circuit();
  std::vector<TransientLane> lanes = rail_lanes(c, {1e4});
  lanes[0].initial_x.pop_back();
  BatchTransientSolver solver(c.nl, 25.0, rail_options());
  EXPECT_THROW(solver.run(lanes, {c.out}), InvalidArgument);
}

// ---------- regulator integration ------------------------------------------------

TEST(RegulatorLanes, DsEntryLanesMatchSerialPath) {
  const ScopedKernelConfig simd_scope(&KernelConfig::simd, Kernel::Reference);
  constexpr DefectId kDf = 8;  // MPreg1 gate line: the transient mechanism
  const std::vector<double> ohms = {1e4, 1e6, 4e7};
  TransientOptions topts;
  topts.dt_max = 30e-6 / 100.0;

  // Serial reference: the exact per-probe path retention_deficit uses.
  std::vector<Waveform> serial;
  {
    VoltageRegulator reg(tech(), Corner::Typical);
    reg.set_vdd(1.1);
    reg.select_vref(VrefLevel::V070);
    for (const double r : ohms) {
      reg.clear_all_defects();
      reg.inject_defect(kDf, r);
      serial.push_back(reg.simulate_ds_entry(30e-6, 25.0, &topts));
    }
  }

  std::vector<Waveform> batched;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    VoltageRegulator reg(tech(), Corner::Typical);
    reg.set_vdd(1.1);
    reg.select_vref(VrefLevel::V070);
    batched = reg.simulate_ds_entry_lanes(kDf, ohms, 30e-6, 25.0, &topts);
  }

  ASSERT_EQ(batched.size(), ohms.size());
  for (std::size_t l = 0; l < ohms.size(); ++l)
    expect_waves_near(serial[l], batched[l], 1e-6);
}

TEST(RegulatorLanes, RetentionDeficitsMatchScalarOracle) {
  constexpr DefectId kDf = 8;
  DsCondition c;
  c.vdd = 1.1;
  c.vref = VrefLevel::V070;
  c.temp_c = 25.0;
  c.ds_time = 1e-3;
  const double drv = 0.55;
  const std::vector<double> ohms = {1e5, 1e7, 4e8};

  RegulatorCharacterizer serial_ch(tech(), ArrayLoadModel::Options{});
  RegulatorCharacterizer batched_ch(tech(), ArrayLoadModel::Options{});

  std::vector<double> serial;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient, Kernel::Reference);
    serial = serial_ch.retention_deficits(c, kDf, ohms, drv);
  }
  std::vector<double> batched;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    batched = batched_ch.retention_deficits(c, kDf, ohms, drv);
  }
  ASSERT_EQ(serial.size(), ohms.size());
  ASSERT_EQ(batched.size(), ohms.size());
  for (std::size_t i = 0; i < ohms.size(); ++i)
    EXPECT_NEAR(batched[i], serial[i], 1e-9 + 1e-4 * std::fabs(serial[i]))
        << "ohms = " << ohms[i];
}

TEST(RegulatorLanes, DrfThresholdMatchesScalarSchedule) {
  constexpr DefectId kDf = 8;
  DsCondition c;
  c.vdd = 1.1;
  c.vref = VrefLevel::V070;
  c.temp_c = 25.0;
  c.ds_time = 1e-3;
  const double drv = 0.55;
  constexpr double kLo = 1e3;
  constexpr double kHi = 1e9;
  constexpr double kRelTol = 8.0;

  RegulatorCharacterizer serial_ch(tech(), ArrayLoadModel::Options{});
  RegulatorCharacterizer batched_ch(tech(), ArrayLoadModel::Options{});

  double serial = 0.0;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient, Kernel::Reference);
    serial = serial_ch.drf_threshold(c, kDf, kLo, kHi, kRelTol, drv);
  }
  double batched = 0.0;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    batched = batched_ch.drf_threshold(c, kDf, kLo, kHi, kRelTol, drv);
  }
  // The speculative tree probes the scalar schedule's exact points; a
  // decision can only differ where a probe's deficit sits within solver
  // noise of the flip threshold, which at worst shifts the bracket by one
  // tolerance factor.
  EXPECT_GT(batched, 0.0);
  EXPECT_GT(serial, 0.0);
  EXPECT_LE(std::max(batched, serial) / std::min(batched, serial),
            kRelTol * kRelTol);
}

TEST(RegulatorLanes, NonGateSitesUseScalarPathUnchanged) {
  // Df1 is a static-mechanism site: drf_threshold must take the scalar
  // monotone_threshold_log path regardless of the batching kind.
  constexpr DefectId kDf = 1;
  DsCondition c;
  c.vdd = 1.1;
  c.vref = VrefLevel::V070;
  c.temp_c = 25.0;
  c.ds_time = 1e-3;
  const double drv = 0.55;

  RegulatorCharacterizer serial_ch(tech(), ArrayLoadModel::Options{});
  RegulatorCharacterizer batched_ch(tech(), ArrayLoadModel::Options{});
  double serial = 0.0;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient, Kernel::Reference);
    serial = serial_ch.drf_threshold(c, kDf, 1e3, 1e8, 2.0, drv);
  }
  double batched = 0.0;
  {
    const ScopedKernelConfig scope(&KernelConfig::transient,
                                   Kernel::Production);
    batched = batched_ch.drf_threshold(c, kDf, 1e3, 1e8, 2.0, drv);
  }
  EXPECT_EQ(serial, batched);
}

}  // namespace
}  // namespace lpsram
