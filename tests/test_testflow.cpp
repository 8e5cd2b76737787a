// Tests for the Table I / Table II / Table III engines: PVT grids, case
// studies, defect characterization and the flow optimizer.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "lpsram/march/library.hpp"
#include "lpsram/testflow/report.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram {
namespace {

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

// ---------- PVT grids ----------------------------------------------------

TEST(Pvt, FullGridIs45Points) {
  const auto grid = full_pvt_grid(tech());
  EXPECT_EQ(grid.size(), 45u);  // 5 corners x 3 VDD x 3 temps
}

TEST(Pvt, ReducedGridIsSubsetShaped) {
  const auto grid = reduced_pvt_grid(tech());
  EXPECT_EQ(grid.size(), 4u);
  for (const PvtPoint& p : grid) EXPECT_DOUBLE_EQ(p.vdd, 1.1);
}

TEST(Pvt, NameFormat) {
  EXPECT_EQ(pvt_name(PvtPoint{Corner::FastNSlowP, 1.0, 125.0}),
            "fs, 1.0V, 125C");
}

// ---------- case studies ----------------------------------------------------

TEST(CaseStudies, TableIPatterns) {
  const CaseStudy cs1 = case_study(1, true);
  EXPECT_EQ(cs1.name(), "CS1-1");
  EXPECT_DOUBLE_EQ(cs1.variation.mpcc1, -6);
  EXPECT_DOUBLE_EQ(cs1.variation.mncc2, +6);
  EXPECT_DOUBLE_EQ(cs1.variation.mncc3, -6);
  EXPECT_DOUBLE_EQ(cs1.variation.mncc4, +6);
  EXPECT_EQ(cs1.cell_count, 1u);

  const CaseStudy cs1m = case_study(1, false);
  EXPECT_EQ(cs1m.name(), "CS1-0");
  EXPECT_DOUBLE_EQ(cs1m.variation.mpcc1, +6);  // Table I's mirrored row
  EXPECT_DOUBLE_EQ(cs1m.variation.mncc3, +6);
  EXPECT_DOUBLE_EQ(cs1m.variation.mncc4, -6);

  const CaseStudy cs4 = case_study(4, true);
  EXPECT_DOUBLE_EQ(cs4.variation.mpcc2, +0.1);
  const CaseStudy cs5 = case_study(5, true);
  EXPECT_EQ(cs5.cell_count, 64u);
  EXPECT_DOUBLE_EQ(cs5.variation.mpcc1, -3);  // same pattern as CS2

  EXPECT_THROW(case_study(0, true), InvalidArgument);
  EXPECT_THROW(case_study(6, true), InvalidArgument);
  EXPECT_EQ(paper_case_studies().size(), 10u);
  EXPECT_EQ(table2_case_studies().size(), 5u);
}

TEST(CaseStudies, AttackedBit) {
  EXPECT_EQ(case_study(2, true).attacked_bit(), StoredBit::One);
  EXPECT_EQ(case_study(2, false).attacked_bit(), StoredBit::Zero);
}

TEST(CaseStudies, DrvOrderingMatchesTableI) {
  // CS1 > CS2 > CS3 > CS4, and CS5 == CS2 (same pattern).
  const double cs1 = characterize_case_study(tech(), case_study(1, true)).drv_ds();
  const double cs2 = characterize_case_study(tech(), case_study(2, true)).drv_ds();
  const double cs3 = characterize_case_study(tech(), case_study(3, true)).drv_ds();
  const double cs4 = characterize_case_study(tech(), case_study(4, true)).drv_ds();
  const double cs5 = characterize_case_study(tech(), case_study(5, true)).drv_ds();
  EXPECT_GT(cs1, cs2);
  EXPECT_GT(cs2, cs3);
  EXPECT_GT(cs3, cs4);
  EXPECT_NEAR(cs5, cs2, 1e-6);
  // Worst case in the 700 mV band (paper: 730 mV).
  EXPECT_GT(cs1, 0.60);
  EXPECT_LT(cs1, 0.80);
}

TEST(CaseStudies, MirrorVariantsSameDrvSwappedComponents) {
  const CaseStudyDrv one = characterize_case_study(tech(), case_study(3, true));
  const CaseStudyDrv zero = characterize_case_study(tech(), case_study(3, false));
  EXPECT_NEAR(one.drv_ds(), zero.drv_ds(), 2e-3);
  EXPECT_NEAR(one.worst.drv.drv1, zero.worst.drv.drv0, 2e-3);
  // CSx-1 is set by DRV_DS1, CSx-0 by DRV_DS0 (paper Section IV.A).
  EXPECT_GT(one.worst.drv.drv1, one.worst.drv.drv0);
  EXPECT_GT(zero.worst.drv.drv0, zero.worst.drv.drv1);
}

// ---------- vref selection rule ----------------------------------------------------

TEST(VrefForVdd, PaperMapping) {
  // With the worst-case DRV near 730 mV, the paper's setup rule gives
  // 1.0V -> 0.74, 1.1V -> 0.70, 1.2V -> 0.64.
  const double drv = 0.72;
  EXPECT_EQ(vref_for_vdd(1.0, drv), VrefLevel::V074);
  EXPECT_EQ(vref_for_vdd(1.1, drv), VrefLevel::V070);
  EXPECT_EQ(vref_for_vdd(1.2, drv), VrefLevel::V064);
}

TEST(VrefForVdd, NeverBelowDrvWhenFeasible) {
  for (const double drv : {0.55, 0.65, 0.72, 0.77}) {
    for (const double vdd : {1.0, 1.1, 1.2}) {
      const VrefLevel level = vref_for_vdd(vdd, drv);
      EXPECT_GE(vdd * vref_fraction(level), drv);
    }
  }
}

TEST(VrefForVdd, InfeasibleDrvFallsBackToHighestTap) {
  // DRV above every tap: best effort is the highest reference level.
  EXPECT_EQ(vref_for_vdd(1.0, 0.85), VrefLevel::V078);
}

// ---------- defect characterization (reduced grid for speed) -------------------------

DefectCharacterizationOptions fast_options() {
  DefectCharacterizationOptions o;
  o.pvt = {PvtPoint{Corner::FastNSlowP, 1.0, 125.0},
           PvtPoint{Corner::Typical, 1.1, 125.0}};
  o.rel_tolerance = 1.10;
  return o;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// A bad option throws once, at construction, instead of quarantining every
// task of the table (r_low = 0 used to return a table of open cells).
TEST(DefectCharacterization, RejectsBadOptionsAtConstruction) {
  using Options = DefectCharacterizationOptions;
  const std::vector<std::pair<const char*, void (*)(Options&)>> bad = {
      {"r_low = 0", [](Options& o) { o.r_low = 0.0; }},
      {"r_low = nan", [](Options& o) { o.r_low = kNan; }},
      {"r_high = r_low", [](Options& o) { o.r_high = o.r_low; }},
      {"r_high = inf", [](Options& o) { o.r_high = kInf; }},
      {"rel_tolerance = 1", [](Options& o) { o.rel_tolerance = 1.0; }},
      {"rel_tolerance = nan", [](Options& o) { o.rel_tolerance = kNan; }},
      {"rel_tolerance = inf", [](Options& o) { o.rel_tolerance = kInf; }},
      {"ds_time = 0", [](Options& o) { o.ds_time = 0.0; }},
      {"ds_time = inf", [](Options& o) { o.ds_time = kInf; }},
      {"worst_drv < 0", [](Options& o) { o.worst_drv = -0.1; }},
      {"worst_drv = nan", [](Options& o) { o.worst_drv = kNan; }},
  };
  for (const auto& [name, spoil] : bad) {
    Options options = fast_options();
    options.worst_drv = 0.72;  // skip the CS1 DRV search
    spoil(options);
    EXPECT_THROW(DefectCharacterizer(tech(), options), InvalidArgument) << name;
  }
}

TEST(DefectCharacterization, CriticalDefectsHaveSmallRmin) {
  const DefectCharacterizer ch(tech(), fast_options());
  const CaseStudy cs1 = case_study(1, true);
  // Df16/Df19/Df29/Df32 interrupt high-current paths: Rmin in the kOhm
  // range or below (paper Table II: 976 / 195 / 488 / 4.9K).
  for (const DefectId id : {16, 19, 29, 32}) {
    const DefectCsResult r = ch.characterize(id, cs1);
    EXPECT_FALSE(r.open_only) << "Df" << id;
    EXPECT_LT(r.min_resistance, 50e3) << "Df" << id;
  }
}

TEST(DefectCharacterization, RminGrowsTowardMilderCaseStudies) {
  // Paper Table II row shape: CS1 needs the smallest resistance, CS4 the
  // largest (often unbounded).
  const DefectCharacterizer ch(tech(), fast_options());
  const DefectCsResult r1 = ch.characterize(1, case_study(1, true));
  const DefectCsResult r3 = ch.characterize(1, case_study(3, true));
  ASSERT_FALSE(r1.open_only);
  ASSERT_FALSE(r3.open_only);
  EXPECT_LT(r1.min_resistance, r3.min_resistance);
}

TEST(DefectCharacterization, Cs5NeedsLessResistanceThanCs2) {
  // The paper's load-interaction result: 64 weak cells drag Vreg harder, so
  // each defect trips at a smaller resistance than with a single weak cell.
  const DefectCharacterizer ch(tech(), fast_options());
  for (const DefectId id : {1, 16}) {
    const DefectCsResult cs2 = ch.characterize(id, case_study(2, true));
    const DefectCsResult cs5 = ch.characterize(id, case_study(5, true));
    ASSERT_FALSE(cs2.open_only) << "Df" << id;
    ASSERT_FALSE(cs5.open_only) << "Df" << id;
    EXPECT_LE(cs5.min_resistance, cs2.min_resistance * 1.0001) << "Df" << id;
  }
}

TEST(DefectCharacterization, NegligibleGateDefectIsOpenOnly) {
  const DefectCharacterizer ch(tech(), fast_options());
  const DefectCsResult r = ch.characterize(24, case_study(1, true));
  EXPECT_TRUE(r.open_only);  // stale-high reference never kills retention
}

TEST(DefectCharacterization, TableShapeMatchesInputs) {
  const DefectCharacterizer ch(tech(), fast_options());
  const std::vector<DefectId> defects = {16, 19};
  const std::vector<CaseStudy> css = {case_study(1, true), case_study(3, true)};
  const auto table = ch.table(defects, css);
  ASSERT_EQ(table.size(), 2u);
  ASSERT_EQ(table[0].size(), 2u);
  EXPECT_EQ(table[0][0].id, 16);
  EXPECT_EQ(table[1][1].cs_name, "CS3-1");
}

// ---------- flow optimizer ----------------------------------------------------

TEST(FlowOptimizer, AllTwelveConditionsEnumerated) {
  EXPECT_EQ(all_test_conditions(tech()).size(), 12u);
}

// As for the defect characterizer: a bad option throws at construction, not
// in every entry of the matrix.
TEST(FlowOptimizer, RejectsBadOptionsAtConstruction) {
  using Options = FlowOptimizerOptions;
  const std::vector<std::pair<const char*, void (*)(Options&)>> bad = {
      {"r_low = 0", [](Options& o) { o.r_low = 0.0; }},
      {"r_high = r_low", [](Options& o) { o.r_high = o.r_low; }},
      {"r_high = inf", [](Options& o) { o.r_high = kInf; }},
      {"rel_tolerance = 1", [](Options& o) { o.rel_tolerance = 1.0; }},
      {"rel_tolerance = nan", [](Options& o) { o.rel_tolerance = kNan; }},
      {"ds_time = 0", [](Options& o) { o.ds_time = 0.0; }},
      {"worst_drv < 0", [](Options& o) { o.worst_drv = -0.1; }},
      {"worst_drv = inf", [](Options& o) { o.worst_drv = kInf; }},
      {"temp_c = nan", [](Options& o) { o.temp_c = kNan; }},
      {"guard = inf", [](Options& o) { o.guard = kInf; }},
      {"best_margin = nan", [](Options& o) { o.best_margin = kNan; }},
  };
  for (const auto& [name, spoil] : bad) {
    Options options;
    options.worst_drv = 0.72;  // skip the CS1 DRV search
    spoil(options);
    EXPECT_THROW(FlowOptimizer(tech(), options), InvalidArgument) << name;
  }
}

TEST(FlowOptimizer, ConditionStringShowsVreg) {
  const TestCondition c{1.1, VrefLevel::V070, 1e-3};
  EXPECT_NE(c.str().find("0.770V"), std::string::npos);
}

// Synthetic-matrix tests: the optimizer logic isolated from the electrical
// engine.
DetectionMatrix synthetic_matrix(double drv) {
  DetectionMatrix m;
  m.conditions = all_test_conditions(Technology::lp40nm());
  m.defects = {101, 102, 103};
  m.r_high = 500e6;
  m.rmin.assign(m.conditions.size(),
                std::vector<double>(m.defects.size(), 1e9));
  for (std::size_t ci = 0; ci < m.conditions.size(); ++ci) {
    const TestCondition& tc = m.conditions[ci];
    if (tc.expected_vreg() < drv) continue;  // invalid: never fill
    // Defect 101: any valid condition works equally (rmin 1k).
    m.rmin[ci][0] = 1e3;
    // Defect 102: only detectable at VDD = 1.2 (rmin 2k), elsewhere open.
    m.rmin[ci][1] = (tc.vdd == 1.2) ? 2e3 : 1e9;
    // Defect 103: undetectable everywhere.
  }
  return m;
}

TEST(FlowOptimizer, CoversWithMinimalConditionsAndReportsUndetectable) {
  FlowOptimizer::Options options;
  options.worst_drv = 0.72;
  options.strategy = FlowStrategy::GreedyMinimal;
  const FlowOptimizer opt(tech(), options);
  const OptimizedFlow flow = opt.optimize(synthetic_matrix(0.72));
  // One condition at VDD=1.2 covers both detectable defects.
  ASSERT_EQ(flow.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(flow.iterations[0].condition.vdd, 1.2);
  ASSERT_EQ(flow.undetectable.size(), 1u);
  EXPECT_EQ(flow.undetectable[0], 103);
  EXPECT_EQ(flow.naive_iterations, 12u);
}

TEST(FlowOptimizer, TieBreaksTowardLowestVreg) {
  // Defect 101 alone: every valid condition covers it; the chosen one must
  // be the lowest valid Vreg (most sensitive).
  DetectionMatrix m = synthetic_matrix(0.72);
  m.defects = {101};
  for (auto& row : m.rmin) row.resize(1);
  FlowOptimizer::Options options;
  options.worst_drv = 0.72;
  options.strategy = FlowStrategy::GreedyMinimal;
  const FlowOptimizer opt(tech(), options);
  const OptimizedFlow flow = opt.optimize(m);
  ASSERT_EQ(flow.iterations.size(), 1u);
  double min_valid_vreg = 1e9;
  for (const TestCondition& c : all_test_conditions(tech()))
    if (c.expected_vreg() >= 0.72)
      min_valid_vreg = std::min(min_valid_vreg, c.expected_vreg());
  EXPECT_NEAR(flow.iterations[0].condition.expected_vreg(), min_valid_vreg,
              1e-12);
}

TEST(FlowOptimizer, PaperStrategyPicksOneConditionPerVdd) {
  // The Table III construction: each VDD level once, at the lowest valid
  // Vref — for a worst-case DRV near 730 mV this is exactly the paper's
  // {(1.0, 0.74), (1.1, 0.70), (1.2, 0.64)}.
  FlowOptimizer::Options options;
  options.worst_drv = 0.72;
  options.strategy = FlowStrategy::PaperPerVddLevel;
  const FlowOptimizer opt(tech(), options);
  const OptimizedFlow flow = opt.optimize(synthetic_matrix(0.72));
  ASSERT_EQ(flow.iterations.size(), 3u);
  EXPECT_DOUBLE_EQ(flow.iterations[0].condition.vdd, 1.0);
  EXPECT_EQ(flow.iterations[0].condition.vref, VrefLevel::V074);
  EXPECT_DOUBLE_EQ(flow.iterations[1].condition.vdd, 1.1);
  EXPECT_EQ(flow.iterations[1].condition.vref, VrefLevel::V070);
  EXPECT_DOUBLE_EQ(flow.iterations[2].condition.vdd, 1.2);
  EXPECT_EQ(flow.iterations[2].condition.vref, VrefLevel::V064);
  // 3 of 12: the paper's 75% reduction.
  EXPECT_NEAR(flow.time_reduction(march::march_m_lz(), 4096, 10e-9), 0.75,
              1e-12);
}

TEST(FlowOptimizer, TimeReductionArithmetic) {
  OptimizedFlow flow;
  flow.naive_iterations = 12;
  flow.iterations.resize(3);
  for (auto& it : flow.iterations) it.condition = {1.1, VrefLevel::V070, 1e-3};
  EXPECT_NEAR(flow.time_reduction(march::march_m_lz(), 4096, 10e-9), 0.75,
              1e-12);
}

// ---------- reports ----------------------------------------------------

TEST(Reports, Table1Renders) {
  std::vector<CaseStudyDrv> rows;
  CaseStudyDrv row;
  row.cs = case_study(2, true);
  row.worst.drv = DrvResult{0.451, 0.167};
  rows.push_back(row);
  const std::string s = table1_report(rows);
  EXPECT_NE(s.find("CS2-1"), std::string::npos);
  EXPECT_NE(s.find("451"), std::string::npos);
  EXPECT_NE(s.find("-3s"), std::string::npos);
}

TEST(Reports, Fig4Renders) {
  std::vector<Fig4Point> points = {
      {CellTransistor::MPcc1, -6.0, 0.297, 0.020},
      {CellTransistor::MPcc1, 0.0, 0.112, 0.112},
  };
  const std::string s = fig4_report(points);
  EXPECT_NE(s.find("MPcc1"), std::string::npos);
  EXPECT_NE(s.find("-6.0"), std::string::npos);
}

TEST(Reports, Table2RendersOpenEntries) {
  std::vector<std::vector<DefectCsResult>> rows(1);
  DefectCsResult a;
  a.id = 8;
  a.cs_name = "CS1-1";
  a.min_resistance = 29.78e6;
  a.worst_pvt = {Corner::FastNSlowP, 1.0, 125.0};
  DefectCsResult b = a;
  b.cs_name = "CS4-1";
  b.open_only = true;
  rows[0] = {a, b};
  const std::vector<CaseStudy> css = {case_study(1, true), case_study(4, true)};
  const std::string s = table2_report(rows, css);
  EXPECT_NE(s.find("Df8"), std::string::npos);
  EXPECT_NE(s.find("29.78M"), std::string::npos);
  EXPECT_NE(s.find("> 500M"), std::string::npos);
}

}  // namespace
}  // namespace lpsram
