// Tests for the voltage-regulator model: reference generation, regulation
// accuracy, power modes, defect injection semantics and the behavioural
// classes of Section IV.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/cell/snm.hpp"
#include "lpsram/regulator/characterize.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"

namespace lpsram {
namespace {

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

// Supply voltage of grid point k of the array-load tables.
double grid_voltage(int k) {
  return ArrayLoadModel::kGridMax * k / (ArrayLoadModel::kGridPoints - 1);
}

// ---------- defect site table ----------------------------------------------------

TEST(DefectSites, TableIsComplete) {
  EXPECT_EQ(defect_sites().size(), 32u);
  for (int id = 1; id <= kDefectCount; ++id) {
    EXPECT_EQ(defect_site(id).id, id);
    EXPECT_EQ(defect_name(id), "Df" + std::to_string(id));
  }
  EXPECT_THROW(defect_site(0), InvalidArgument);
  EXPECT_THROW(defect_site(33), InvalidArgument);
}

TEST(DefectSites, GateSitesMatchNoCurrentLines) {
  // Gate-line sites: the ones whose static effect must be negligible.
  for (const int id : {8, 11, 14, 17, 18, 21, 24, 25, 30}) {
    EXPECT_TRUE(is_gate_site(id)) << "Df" << id;
  }
  for (const int id : {1, 7, 16, 19, 29, 32}) {
    EXPECT_FALSE(is_gate_site(id)) << "Df" << id;
  }
}

TEST(DefectSites, Table2ListMatchesPaper) {
  const auto& ids = table2_defects();
  EXPECT_EQ(ids.size(), 17u);
  // Spot-check the paper's row set.
  EXPECT_NE(std::find(ids.begin(), ids.end(), 1), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), 32), ids.end());
  EXPECT_EQ(std::find(ids.begin(), ids.end(), 6), ids.end());
  EXPECT_EQ(std::find(ids.begin(), ids.end(), 14), ids.end());
}

TEST(VrefLevels, FractionsMatchPaper) {
  EXPECT_DOUBLE_EQ(vref_fraction(VrefLevel::V078), 0.78);
  EXPECT_DOUBLE_EQ(vref_fraction(VrefLevel::V074), 0.74);
  EXPECT_DOUBLE_EQ(vref_fraction(VrefLevel::V070), 0.70);
  EXPECT_DOUBLE_EQ(vref_fraction(VrefLevel::V064), 0.64);
  EXPECT_EQ(vref_name(VrefLevel::V070), "0.70*VDD");
}

// ---------- healthy regulation ----------------------------------------------------

class HealthyRegulationTest
    : public ::testing::TestWithParam<std::tuple<double, VrefLevel>> {};

TEST_P(HealthyRegulationTest, VregTracksVref) {
  const auto [vdd, level] = GetParam();
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_vdd(vdd);
  reg.select_vref(level);
  const double vreg = reg.vreg_dc(25.0);
  // Regulation within 5 mV of the ideal reference at room temperature.
  EXPECT_NEAR(vreg, reg.expected_vreg(), 5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    AllTwelveConditions, HealthyRegulationTest,
    ::testing::Combine(::testing::Values(1.0, 1.1, 1.2),
                       ::testing::Values(VrefLevel::V078, VrefLevel::V074,
                                         VrefLevel::V070, VrefLevel::V064)));

TEST(Regulator, RegulationHoldsAcrossCorners) {
  for (const Corner corner : kAllCorners) {
    VoltageRegulator reg(tech(), corner);
    reg.set_vdd(1.1);
    reg.select_vref(VrefLevel::V070);
    EXPECT_NEAR(reg.vreg_dc(25.0), 0.770, 0.010) << corner_name(corner);
  }
}

TEST(Regulator, HotLeakageDroopsVregSlightly) {
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_vdd(1.1);
  reg.select_vref(VrefLevel::V070);
  const double cold = reg.vreg_dc(-30.0);
  const double hot = reg.vreg_dc(125.0);
  EXPECT_LT(hot, cold);            // array leakage loads the output when hot
  EXPECT_GT(hot, 0.770 - 0.015);   // but regulation still holds
}

TEST(Regulator, ActModePowerSwitchDrivesVddcc) {
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_regon(false);
  reg.set_power_switch(true);
  const double v = reg.vreg_dc(25.0);
  EXPECT_NEAR(v, 1.1, 0.01);  // VDD_CC ~ VDD through the switch
}

TEST(Regulator, PowerOffDischargesVddcc) {
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_regon(false);
  reg.set_power_switch(false);
  EXPECT_LT(reg.vreg_dc(25.0), 0.2);  // rail collapses through the array
}

TEST(Regulator, StaticPowerRisesWithTemperature) {
  VoltageRegulator reg(tech(), Corner::Typical);
  const double p_cold = reg.static_power_dc(-30.0);
  const double p_hot = reg.static_power_dc(125.0);
  EXPECT_GT(p_hot, p_cold * 10.0);
  EXPECT_GT(p_cold, 0.0);
}

// ---------- defect injection ----------------------------------------------------

TEST(Regulator, InjectClearRoundTrip) {
  VoltageRegulator reg(tech(), Corner::Typical);
  EXPECT_DOUBLE_EQ(reg.defect_resistance(19),
                   VoltageRegulator::healthy_resistance());
  reg.inject_defect(19, 1e6);
  EXPECT_DOUBLE_EQ(reg.defect_resistance(19), 1e6);
  reg.clear_defect(19);
  EXPECT_DOUBLE_EQ(reg.defect_resistance(19),
                   VoltageRegulator::healthy_resistance());
  reg.inject_defect(19, 1e6);
  reg.inject_defect(7, 1e5);
  reg.clear_all_defects();
  EXPECT_DOUBLE_EQ(reg.defect_resistance(7),
                   VoltageRegulator::healthy_resistance());
  EXPECT_THROW(reg.inject_defect(19, 0.1), InvalidArgument);
}

// DRF-causing defects must degrade Vreg monotonically with resistance.
class DrfDefectTest : public ::testing::TestWithParam<int> {};

TEST_P(DrfDefectTest, VregDegradesMonotonically) {
  const int id = GetParam();
  if (is_gate_site(id)) GTEST_SKIP() << "gate sites act only in transients";
  RegulatorCharacterizer ch(tech(), ArrayLoadModel::Options{});
  DsCondition c;
  c.vdd = 1.0;
  c.vref = VrefLevel::V074;
  c.temp_c = 125.0;
  c.corner = Corner::FastNSlowP;
  const double healthy = ch.vreg_healthy(c);
  double prev = healthy;
  for (const double r : {1e3, 1e5, 1e7, 1e9}) {
    const double v = ch.vreg(c, id, r);
    EXPECT_LE(v, prev + 2e-3) << "Df" << id << " at R=" << r;
    prev = v;
  }
  // Fully open: Vreg collapses far below any healthy value.
  EXPECT_LT(prev, healthy - 0.1) << "Df" << id;
}

INSTANTIATE_TEST_SUITE_P(PaperDrfSet, DrfDefectTest,
                         ::testing::Values(1, 2, 7, 9, 10, 12, 16, 19, 23, 26,
                                           29, 32));

// Divider defects below the selected tap *raise* Vreg (category 1).
TEST(Regulator, PowerCategoryDefectRaisesVreg) {
  RegulatorCharacterizer ch(tech(), ArrayLoadModel::Options{});
  DsCondition c;
  c.vdd = 1.1;
  c.vref = VrefLevel::V070;
  c.temp_c = 25.0;
  const double healthy = ch.vreg_healthy(c);
  // Df6: below the Vbias52 tap -> all taps rise -> Vref rises -> Vreg rises.
  const double v = ch.vreg(c, 6, 50e6);
  EXPECT_GT(v, healthy + 0.02);
}

TEST(Regulator, Df3DependsOnVrefSetting) {
  // Paper Section IV.B category 3: Df3 raises Vref78/74 but lowers
  // Vref70/64, so its effect flips sign with the selected tap.
  RegulatorCharacterizer ch(tech(), ArrayLoadModel::Options{});
  DsCondition high;
  high.vdd = 1.1;
  high.vref = VrefLevel::V074;
  high.temp_c = 25.0;
  DsCondition low = high;
  low.vref = VrefLevel::V070;
  const double r = 10e6;
  EXPECT_GT(ch.vreg(high, 3, r), high.expected_vreg());  // raised
  EXPECT_LT(ch.vreg(low, 3, r), low.expected_vreg());    // lowered
}

TEST(Regulator, NegligibleGateDefectsNoStaticEffect) {
  RegulatorCharacterizer ch(tech(), ArrayLoadModel::Options{});
  DsCondition c;
  c.vdd = 1.1;
  c.vref = VrefLevel::V070;
  c.temp_c = 25.0;
  const double healthy = ch.vreg_healthy(c);
  for (const int id : {8, 11, 14, 17, 18, 21, 24, 25, 30}) {
    const double v = ch.vreg(c, id, 400e6);
    EXPECT_NEAR(v, healthy, 2e-3) << "Df" << id;
  }
}

// ---------- DS-entry transient ----------------------------------------------------

TEST(Regulator, HealthyDsEntrySettlesToVref) {
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_vdd(1.0);
  reg.select_vref(VrefLevel::V074);
  const Waveform w = reg.simulate_ds_entry(30e-6, 25.0);
  ASSERT_GE(w.time.size(), 10u);
  EXPECT_NEAR(w.values[0].front(), 1.0, 0.02);   // starts at VDD (ACT)
  EXPECT_NEAR(w.values[0].back(), 0.740, 0.01);  // settles at Vref
  // Undershoot below the target stays small for a healthy regulator.
  EXPECT_GT(w.min_value(0), 0.70);
}

TEST(Regulator, Df8DelaysActivationAndDroopsVddcc) {
  // Paper: Df8 delays MNreg1 activation; with the power switches already
  // open, VDD_CC droops toward 0 until the regulator finally starts.
  VoltageRegulator reg(tech(), Corner::FastNSlowP);
  reg.set_vdd(1.0);
  reg.select_vref(VrefLevel::V074);
  reg.inject_defect(8, 200e6);
  const Waveform w = reg.simulate_ds_entry(30e-6, 125.0);
  EXPECT_LT(w.min_value(0), 0.60);  // deep droop during the dead time
}

TEST(Regulator, Df11StaleFeedbackCausesUndershoot) {
  VoltageRegulator healthy(tech(), Corner::FastNSlowP);
  healthy.set_vdd(1.0);
  healthy.select_vref(VrefLevel::V074);
  const Waveform base = healthy.simulate_ds_entry(30e-6, 125.0);

  VoltageRegulator faulty(tech(), Corner::FastNSlowP);
  faulty.set_vdd(1.0);
  faulty.select_vref(VrefLevel::V074);
  faulty.inject_defect(11, 200e6);
  const Waveform w = faulty.simulate_ds_entry(30e-6, 125.0);
  // The stale feedback makes Vreg undershoot well below the healthy entry.
  EXPECT_LT(w.min_value(0), base.min_value(0) - 0.05);
}

// ---------- characterizer ----------------------------------------------------

TEST(Characterizer, CausesDrfIsMonotoneInResistance) {
  RegulatorCharacterizer ch(tech(), ArrayLoadModel::Options{});
  DsCondition c;
  c.vdd = 1.0;
  c.vref = VrefLevel::V074;
  c.temp_c = 125.0;
  c.corner = Corner::FastNSlowP;
  const double drv = 0.72;
  bool seen_true = false;
  for (const double r : {1e2, 1e4, 1e6, 1e8}) {
    const bool drf = ch.causes_drf(c, 1, r, drv);
    if (seen_true) {
      EXPECT_TRUE(drf);
    }
    seen_true = seen_true || drf;
  }
  EXPECT_TRUE(seen_true);  // Df1 fully open definitely kills retention
}

TEST(Characterizer, HealthyNeverCausesDrf) {
  RegulatorCharacterizer ch(tech(), ArrayLoadModel::Options{});
  DsCondition c;
  c.vdd = 1.0;
  c.vref = VrefLevel::V074;
  c.temp_c = 125.0;
  c.corner = Corner::FastNSlowP;
  EXPECT_FALSE(ch.causes_drf(c, 0, 1.0, 0.72));
}

TEST(Characterizer, ConditionName) {
  DsCondition c;
  c.corner = Corner::FastNSlowP;
  c.vdd = 1.0;
  c.temp_c = 125.0;
  EXPECT_EQ(ds_condition_name(c), "fs, 1.0V, 125C");
}

// ---------- regulation metrics ----------------------------------------------------

TEST(RegulationMetrics, HealthyRegulatorMeetsAnalogSpecs) {
  const RegulationMetrics m =
      measure_regulation(tech(), Corner::Typical, VrefLevel::V070);
  EXPECT_LT(m.line_error, 5e-3);         // < 5 mV from fraction*VDD
  EXPECT_GT(m.load_regulation, 0.0);     // output droops under load...
  EXPECT_LT(m.load_regulation, 100.0);   // ...but < 10 mV per 100 uA
  EXPECT_LT(m.temp_drift, 20e-3);        // < 20 mV over -30..125 C
}

TEST(RegulationMetrics, TestLoadRoundTrip) {
  VoltageRegulator reg(tech(), Corner::Typical);
  EXPECT_DOUBLE_EQ(reg.test_load(), 0.0);
  reg.set_test_load(50e-6);
  EXPECT_DOUBLE_EQ(reg.test_load(), 50e-6);
  // The extra load visibly droops the output.
  reg.set_regon(true);
  reg.set_power_switch(false);
  reg.set_test_load(0.0);
  const double v0 = reg.vreg_dc(25.0);
  reg.set_test_load(500e-6);
  EXPECT_LT(reg.vreg_dc(25.0), v0);
}

// ---------- array load model ----------------------------------------------------

TEST(ArrayLoad, LeakageScalesWithCellsAndTemperature) {
  ArrayLoadModel::Options small;
  small.total_cells = 1024;
  ArrayLoadModel::Options big;
  big.total_cells = 256 * 1024;
  const ArrayLoadModel a(tech(), Corner::Typical, small);
  const ArrayLoadModel b(tech(), Corner::Typical, big);
  const double v = 0.77;
  EXPECT_NEAR(b.current(v, 25.0) / a.current(v, 25.0), 256.0, 1.0);
  EXPECT_GT(b.current(v, 125.0), b.current(v, 25.0) * 10.0);
}

TEST(ArrayLoad, WeakCellsAddFlipCurrentNearDrv) {
  ArrayLoadModel::Options base;
  base.total_cells = 256 * 1024;
  ArrayLoadModel::Options weak = base;
  weak.weak_cells = 64;
  weak.weak_drv = 0.45;
  const ArrayLoadModel nominal(tech(), Corner::Typical, base);
  const ArrayLoadModel loaded(tech(), Corner::Typical, weak);
  // Far above the weak DRV: no extra current.
  EXPECT_NEAR(loaded.current(0.70, 25.0), nominal.current(0.70, 25.0),
              nominal.current(0.70, 25.0) * 1e-6);
  // Just below the weak DRV: the flip current appears.
  EXPECT_GT(loaded.current(0.44, 25.0), nominal.current(0.44, 25.0));
}

TEST(ArrayLoad, CrossoverExceedsLeakage) {
  const ArrayLoadModel model(tech(), Corner::Typical,
                             ArrayLoadModel::Options{});
  EXPECT_GT(model.cell_crossover(0.5, 25.0), model.cell_leakage(0.5, 25.0));
}

TEST(ArrayLoad, GridCurrentIsTheDirectCellSolve) {
  // The shared table holds exactly the per-cell hold current a direct solve
  // gives, under either cell kernel. total_cells is a power of two, so
  // current / total_cells recovers the table entry bit for bit.
  for (const Kernel kernel : {Kernel::Reference, Kernel::Production}) {
    const ScopedKernelConfig scope(&KernelConfig::cell, kernel);
    for (const Corner corner : {Corner::Typical, Corner::FastNSlowP}) {
      const CoreCell cell(tech(), CellVariation{}, corner);
      const ArrayLoadModel model(tech(), corner, ArrayLoadModel::Options{});
      const double cells = static_cast<double>(model.options().total_cells);
      for (const double temp : {-30.0, 125.0}) {
        for (int k = 0; k < ArrayLoadModel::kGridPoints; ++k) {
          const double v = grid_voltage(k);
          double expected = 0.0;
          if (k > 0) {
            const HoldState s = hold_equilibrium(cell, StoredBit::One, v, temp);
            expected =
                std::max(0.0, cell.supply_current(s.v_s, s.v_sb, v, temp));
          }
          ASSERT_EQ(key_bits(model.current(v, temp) / cells),
                    key_bits(expected))
              << "kernel " << int(kernel) << ", " << corner_name(corner) << ", "
              << temp << " C, grid point " << k;
        }
      }
    }
  }
}

TEST(ArrayLoad, RegulatorsInSeparateScopesAgreeBitForBit) {
  const auto solve = [] {
    VoltageRegulator reg(tech(), Corner::FastNSlowP);
    reg.set_vdd(1.0);
    reg.select_vref(VrefLevel::V074);
    reg.inject_defect(1, 1e6);
    return reg.vreg_dc(125.0);
  };
  const double first = solve();
  const std::size_t built = array_load_tables_built();
  const double second = solve();
  EXPECT_EQ(key_bits(second), key_bits(first));
  // The second regulator reuses the first one's table.
  EXPECT_EQ(array_load_tables_built(), built);
}

TEST(ArrayLoad, ConcurrentFirstTouchBuildsEachTableOnce) {
  // Temperatures no other test here uses, so all four keys are new. Threads
  // t and t + 4 share a key; every thread starts evaluating at once.
  constexpr int kThreads = 8;
  constexpr Corner kCorners[] = {Corner::Typical, Corner::SlowNFastP};
  constexpr double kTemps[] = {41.5, 83.25};
  const auto corner_of = [&](int t) { return kCorners[t % 2]; };
  const auto temp_of = [&](int t) { return kTemps[(t / 2) % 2]; };

  const std::size_t before = array_load_tables_built();
  std::atomic<int> ready{0};
  std::vector<std::vector<double>> currents(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ArrayLoadModel model(tech(), corner_of(t),
                                 ArrayLoadModel::Options{});
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int k = 0; k < ArrayLoadModel::kGridPoints; ++k)
        currents[t].push_back(model.current(grid_voltage(k), temp_of(t)));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(array_load_tables_built() - before, 4u);

  for (int t = 0; t < kThreads; ++t) {
    const ArrayLoadModel fresh(tech(), corner_of(t), ArrayLoadModel::Options{});
    for (int k = 0; k < ArrayLoadModel::kGridPoints; ++k)
      ASSERT_EQ(key_bits(currents[t][k]),
                key_bits(fresh.current(grid_voltage(k), temp_of(t))))
          << "thread " << t << ", grid point " << k;
  }
  EXPECT_EQ(array_load_tables_built() - before, 4u);
}

TEST(ArrayLoad, WeakCellsRequireDrv) {
  ArrayLoadModel::Options bad;
  bad.weak_cells = 4;
  bad.weak_drv = 0.0;
  EXPECT_THROW(ArrayLoadModel(tech(), Corner::Typical, bad), InvalidArgument);
}

}  // namespace
}  // namespace lpsram
