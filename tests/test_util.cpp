// Unit tests for the util module: units/formatting, dense LU, sparse LU
// (scalar and lane-batched), the kernel config, root finding, strings and
// table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "lpsram/device/technology.hpp"
#include "lpsram/regulator/regulator.hpp"
#include "lpsram/spice/dc_solver.hpp"
#include "lpsram/spice/elements.hpp"
#include "lpsram/spice/stamp_plan.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/matrix.hpp"
#include "lpsram/util/rootfind.hpp"
#include "lpsram/util/simd.hpp"
#include "lpsram/util/sparse.hpp"
#include "lpsram/util/sparse_lanes.hpp"
#include "lpsram/util/strings.hpp"
#include "lpsram/util/table.hpp"
#include "lpsram/util/units.hpp"

namespace lpsram {
namespace {

// ---------- units ------------------------------------------------------------

TEST(Units, ThermalVoltageAt25C) {
  // kT/q at 298.15 K is about 25.7 mV.
  EXPECT_NEAR(thermal_voltage(25.0), 0.02569, 1e-4);
}

TEST(Units, ThermalVoltageScalesWithTemperature) {
  EXPECT_LT(thermal_voltage(-30.0), thermal_voltage(25.0));
  EXPECT_LT(thermal_voltage(25.0), thermal_voltage(125.0));
  // Linear in absolute temperature.
  const double ratio = thermal_voltage(125.0) / thermal_voltage(25.0);
  EXPECT_NEAR(ratio, celsius_to_kelvin(125.0) / celsius_to_kelvin(25.0), 1e-12);
}

TEST(Units, CelsiusToKelvin) {
  EXPECT_DOUBLE_EQ(celsius_to_kelvin(0.0), 273.15);
  EXPECT_DOUBLE_EQ(celsius_to_kelvin(-273.15), 0.0);
}

TEST(Units, EngFormatSuffixes) {
  EXPECT_EQ(eng_format(9760.0, 2), "9.76K");
  EXPECT_EQ(eng_format(2.36e6, 2), "2.36M");
  EXPECT_EQ(eng_format(976.56, 2), "976.56");
  EXPECT_EQ(eng_format(1.5e9, 1), "1.5G");
  EXPECT_EQ(eng_format(0.0), "0");
}

TEST(Units, EngFormatSubUnit) {
  EXPECT_EQ(eng_format(0.012, 0), "12m");
  EXPECT_EQ(eng_format(3.3e-6, 1), "3.3u");
}

TEST(Units, EngFormatNegative) {
  EXPECT_EQ(eng_format(-9760.0, 2), "-9.76K");
  EXPECT_EQ(eng_format(-0.012, 0), "-12m");
}

TEST(Units, ResistanceFormatOpenThreshold) {
  EXPECT_EQ(resistance_format(1e9), "> 500M");
  EXPECT_EQ(resistance_format(97.65e3), "97.65K");
}

TEST(Units, MillivoltFormat) {
  EXPECT_EQ(millivolt_format(0.730), "730");
  EXPECT_EQ(millivolt_format(0.0601, 1), "60.1");
}

// ---------- matrix / LU ----------------------------------------------------------

TEST(Matrix, MultiplyIdentity) {
  Matrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i) a(i, i) = 1.0;
  const std::vector<double> x = {1.0, -2.0, 3.0};
  EXPECT_EQ(a.multiply(x), x);
}

TEST(Matrix, MultiplySizeMismatchThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(a.multiply({1.0, 2.0}), InvalidArgument);
}

TEST(LuSolver, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3].
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  const std::vector<double> x = solve_linear_system(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuSolver, RequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const std::vector<double> x = solve_linear_system(a, {2.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolver, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(LuSolver{a}, ConvergenceError);
}

TEST(LuSolver, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(LuSolver{a}, InvalidArgument);
}

TEST(LuSolver, RandomRoundTrip) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 12);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
      a(i, i) += 3.0;  // diagonally dominant => well conditioned
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = dist(rng);
    const std::vector<double> b = a.multiply(x_true);
    const std::vector<double> x = solve_linear_system(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(LuSolver, WideDynamicRange) {
  // Conductance-like matrix spanning 12 decades still solves accurately.
  Matrix a(2, 2);
  a(0, 0) = 1e3 + 1e-9; a(0, 1) = -1e-9;
  a(1, 0) = -1e-9;      a(1, 1) = 2e-9;
  const std::vector<double> x = solve_linear_system(a, {1.0, 0.0});
  // Node 1 follows node 0 through the tiny coupling: x1 = x0/2.
  EXPECT_NEAR(x[1], x[0] / 2.0, 1e-9);
}

// ---------- sparse LU ------------------------------------------------------------

Matrix to_dense(const SparseMatrix& a) {
  Matrix d(a.dimension(), a.dimension());
  for (std::size_t r = 0; r < a.dimension(); ++r)
    for (int s = a.row_ptr()[r]; s < a.row_ptr()[r + 1]; ++s)
      d(r, static_cast<std::size_t>(a.cols()[static_cast<std::size_t>(s)])) =
          a.values()[static_cast<std::size_t>(s)];
  return d;
}

// Row-major pattern of a full diagonal plus each off-diagonal entry with
// probability `density`.
SparseMatrix random_pattern(std::size_t n, double density, std::mt19937_64& rng) {
  std::bernoulli_distribution present(density);
  std::vector<int> row_ptr(n + 1, 0);
  std::vector<int> cols;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c)
      if (c == r || present(rng)) cols.push_back(static_cast<int>(c));
    row_ptr[r + 1] = static_cast<int>(cols.size());
  }
  return SparseMatrix(n, std::move(row_ptr), std::move(cols));
}

// Fresh random values on `a`'s pattern, strictly diagonally dominant.
void fill_dominant(SparseMatrix& a, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t r = 0; r < a.dimension(); ++r) {
    double off = 0.0;
    int diag = -1;
    for (int s = a.row_ptr()[r]; s < a.row_ptr()[r + 1]; ++s) {
      const std::size_t slot = static_cast<std::size_t>(s);
      if (static_cast<std::size_t>(a.cols()[slot]) == r) {
        diag = s;
        continue;
      }
      a.values()[slot] = dist(rng);
      off += std::fabs(a.values()[slot]);
    }
    a.values()[static_cast<std::size_t>(diag)] = 1.0 + off + dist(rng) * 0.5;
  }
}

std::vector<double> random_vector(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

// The matrix production factors: the Fig. 5 regulator's MNA Jacobian at
// its DC operating point.
SparseMatrix regulator_jacobian() {
  const Technology tech = Technology::lp40nm();
  VoltageRegulator reg(tech, Corner::Typical);
  const DcResult op = DcSolver(reg.netlist(), 25.0).solve();
  SystemAssembler assembler(reg.netlist(), 25.0);
  NewtonWorkspace ws;
  assembler.assemble_sparse(op.x, DcOptions{}.gmin, ws);
  return ws.jacobian;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

double max_abs(const std::vector<double>& v) {
  double worst = 0.0;
  for (const double x : v) worst = std::max(worst, std::fabs(x));
  return worst;
}

// max |b - A x| over the rows.
double residual_norm(const SparseMatrix& a, const std::vector<double>& x,
                     const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t r = 0; r < a.dimension(); ++r) {
    double acc = b[r];
    for (int s = a.row_ptr()[r]; s < a.row_ptr()[r + 1]; ++s)
      acc -= a.values()[static_cast<std::size_t>(s)] *
             x[static_cast<std::size_t>(a.cols()[static_cast<std::size_t>(s)])];
    worst = std::max(worst, std::fabs(acc));
  }
  return worst;
}

TEST(SparseLu, SolvesRegulatorJacobianLikeDense) {
  const SparseMatrix a = regulator_jacobian();
  std::mt19937_64 rng(7);
  const std::vector<double> b = random_vector(a.dimension(), rng);
  SparseLu lu;
  lu.factor(a);
  std::vector<double> x;
  lu.solve(b, x);
  const std::vector<double> dense = solve_linear_system(to_dense(a), b);
  EXPECT_LE(max_abs_diff(x, dense), 1e-8 * max_abs(dense));
}

TEST(SparseLu, SolvesRandomDiagonallyDominantPattern) {
  std::mt19937_64 rng(11);
  for (const std::size_t n : {1u, 5u, 40u}) {
    SparseMatrix a = random_pattern(n, 0.1, rng);
    fill_dominant(a, rng);
    const std::vector<double> b = random_vector(n, rng);
    SparseLu lu;
    lu.factor(a);
    std::vector<double> x;
    lu.solve(b, x);
    const std::vector<double> dense = solve_linear_system(to_dense(a), b);
    EXPECT_LE(max_abs_diff(x, dense), 1e-12) << "n=" << n;
  }
}

TEST(SparseLu, RefactorsAfterValuesChangeOnSamePattern) {
  std::mt19937_64 rng(13);
  SparseMatrix a = random_pattern(30, 0.15, rng);
  SparseLu lu;
  std::vector<double> x;
  for (int round = 0; round < 4; ++round) {
    fill_dominant(a, rng);
    const std::vector<double> b = random_vector(a.dimension(), rng);
    lu.factor(a);  // analysis once, then numeric refactors
    lu.solve(b, x);
    const std::vector<double> dense = solve_linear_system(to_dense(a), b);
    EXPECT_LE(max_abs_diff(x, dense), 1e-12) << "round " << round;
  }
}

TEST(SparseLu, RefineStepDoesNotIncreaseResidual) {
  // Wilkinson-style growth under the threshold pivot rule: 0.1 diagonals
  // sit exactly at the acceptance threshold over -1 subdiagonals, the
  // Markowitz tie-break keeps the diagonal, and each step multiplies the
  // dense last column by 10. The plain solve then carries a residual far
  // above rounding level, which one refinement step must not increase (on
  // a well-conditioned order the residual is already at rounding level,
  // where a step moves it by a few ulps either way).
  constexpr int n = 10;
  std::vector<int> row_ptr(n + 1, 0);
  std::vector<int> cols;
  std::vector<double> vals;
  for (int r = 0; r < n; ++r) {
    if (r > 0) {
      cols.push_back(r - 1);
      vals.push_back(-1.0);
    }
    if (r < n - 1) {
      cols.push_back(r);
      vals.push_back(0.1);
    }
    cols.push_back(n - 1);
    vals.push_back(1.0);
    row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<int>(cols.size());
  }
  SparseMatrix a(n, std::move(row_ptr), std::move(cols));
  a.values() = vals;
  std::mt19937_64 rng(17);
  const std::vector<double> b = random_vector(n, rng);
  SparseLu lu;
  lu.factor(a);
  std::vector<double> x;
  lu.solve(b, x);
  const double before = residual_norm(a, x, b);
  lu.refine_step(a, b, x);
  const double after = residual_norm(a, x, b);
  EXPECT_GT(before, 1e-12);  // the growth is real
  EXPECT_LE(after, before);
  EXPECT_LT(after, 1e-14);
}

TEST(SparseLu, NumericallySingularThrows) {
  // Full pattern, rank one: the second pivot eliminates to exactly zero.
  SparseMatrix a(2, {0, 2, 4}, {0, 1, 0, 1});
  a.values() = {1.0, 2.0, 2.0, 4.0};
  SparseLu lu;
  EXPECT_THROW(lu.factor(a), ConvergenceError);
}

TEST(SparseLu, StructurallySingularThrows) {
  // Row 1 stores no entries, so no value set can make the matrix regular.
  SparseMatrix a(2, {0, 2, 2}, {0, 1});
  a.values() = {1.0, 1.0};
  SparseLu lu;
  EXPECT_THROW(lu.factor(a), ConvergenceError);
}

TEST(SparseLu, PivotCollapseTriggersReanalysisAndStillSolves) {
  // Analyzed on [2 1; 1 1], the order pivots on a00. Shrinking a00 to
  // 1e-12 collapses that pivot far past kPivotDriftLimit; keeping the stale
  // order would amplify rounding by ~1e12 (the multiplier a10/a00), so an
  // answer exact to ~1e-15 shows the factor re-pivoted onto a10.
  SparseMatrix a(2, {0, 2, 4}, {0, 1, 0, 1});
  a.values() = {2.0, 1.0, 1.0, 1.0};
  SparseLu lu;
  lu.factor(a);
  const double eps = 1e-12;
  ASSERT_GT(2.0 / eps, SparseLu::kPivotDriftLimit);
  a.values() = {eps, 1.0, 1.0, 1.0};
  lu.factor(a);
  std::vector<double> x;
  lu.solve({1.0, 2.0}, x);
  // x0 = 1 / (1 - eps), x1 = (1 - 2 eps) / (1 - eps).
  EXPECT_NEAR(x[0], 1.0 / (1.0 - eps), 1e-15);
  EXPECT_NEAR(x[1], (1.0 - 2.0 * eps) / (1.0 - eps), 1e-15);
}

// Lane-SoA copy of per-lane matrices that share one pattern.
std::vector<double> soa_values(const std::vector<SparseMatrix>& lanes,
                               std::size_t stride) {
  const std::size_t nnz = lanes.front().nnz();
  std::vector<double> out(nnz * stride, 0.0);
  for (std::size_t l = 0; l < lanes.size(); ++l)
    for (std::size_t s = 0; s < nnz; ++s)
      out[s * stride + l] = lanes[l].values()[s];
  return out;
}

std::vector<double> soa_vectors(const std::vector<std::vector<double>>& lanes,
                                std::size_t stride) {
  const std::size_t n = lanes.front().size();
  std::vector<double> out(n * stride, 0.0);
  for (std::size_t l = 0; l < lanes.size(); ++l)
    for (std::size_t i = 0; i < n; ++i) out[i * stride + l] = lanes[l][i];
  return out;
}

TEST(SparseLuLanes, EachLaneIsBitIdenticalToScalarAndSingularLaneIsIsolated) {
  std::mt19937_64 rng(19);
  SparseMatrix base = random_pattern(24, 0.15, rng);
  fill_dominant(base, rng);
  SparseLu base_lu;
  base_lu.factor(base);

  // More lanes than one native vector, so a remainder group is exercised;
  // lane 2 is all-zero and must fail alone.
  const std::size_t k = simd::kNativeWidth + 3;
  constexpr std::size_t kSingular = 2;
  std::vector<SparseMatrix> mats(k, base);
  std::vector<std::vector<double>> rhs(k);
  for (std::size_t l = 0; l < k; ++l) {
    fill_dominant(mats[l], rng);
    rhs[l] = random_vector(base.dimension(), rng);
  }
  std::fill(mats[kSingular].values().begin(), mats[kSingular].values().end(),
            0.0);

  SparseLuLanes lanes;
  lanes.bind(base_lu, k);
  const std::size_t st = lanes.stride();
  const std::vector<double> avals = soa_values(mats, st);
  const std::vector<double> b = soa_vectors(rhs, st);
  const std::vector<unsigned char> active(k, 1);

  std::vector<unsigned char> ok(k, 0);
  std::vector<double> x(base.dimension() * st);
  lanes.refactor(avals.data(), active.data(), ok.data());
  lanes.solve(b.data(), x.data());

  // The fused factor-and-forward path production transients run on.
  std::vector<unsigned char> ok_fused(k, 0);
  std::vector<double> x_fused(base.dimension() * st);
  lanes.refactor_fused_forward(avals.data(), b.data(), active.data(),
                               ok_fused.data());
  lanes.solve_fused_back(x_fused.data());

  for (std::size_t l = 0; l < k; ++l) {
    if (l == kSingular) {
      EXPECT_EQ(ok[l], 0);
      EXPECT_EQ(ok_fused[l], 0);
      continue;
    }
    ASSERT_EQ(ok[l], 1) << "lane " << l;
    ASSERT_EQ(ok_fused[l], 1) << "lane " << l;
    // A scalar LU on the same pivot order: a copy of the analyzed base.
    SparseLu scalar = base_lu;
    scalar.factor(mats[l]);
    std::vector<double> expected;
    scalar.solve(rhs[l], expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(x[i * st + l], expected[i]) << "lane " << l << " row " << i;
      EXPECT_EQ(x_fused[i * st + l], expected[i])
          << "lane " << l << " row " << i;
    }
  }
}

// ---------- kernel config ------------------------------------------------------

TEST(KernelConfig, ScopesNestAndRestoreEveryField) {
  const KernelConfig production;
  EXPECT_EQ(kernel_config(), production);
  for (Kernel KernelConfig::*field :
       {&KernelConfig::linear_solver, &KernelConfig::cell, &KernelConfig::simd,
        &KernelConfig::transient, &KernelConfig::yield_exact}) {
    EXPECT_EQ(production.*field, Kernel::Production);
    KernelConfig reference = production;
    reference.*field = Kernel::Reference;
    {
      const ScopedKernelConfig outer(field, Kernel::Reference);
      EXPECT_EQ(kernel_config(), reference);
      {
        const ScopedKernelConfig inner(field, Kernel::Production);
        EXPECT_EQ(kernel_config(), production);
      }
      EXPECT_EQ(kernel_config(), reference);
    }
    EXPECT_EQ(kernel_config(), production);
  }
  // Scopes on different fields stack, and unwind in reverse order.
  {
    const ScopedKernelConfig cell(&KernelConfig::cell, Kernel::Reference);
    const ScopedKernelConfig simd(&KernelConfig::simd, Kernel::Reference);
    KernelConfig expected = production;
    expected.cell = Kernel::Reference;
    expected.simd = Kernel::Reference;
    EXPECT_EQ(kernel_config(), expected);
  }
  EXPECT_EQ(kernel_config(), production);
}

// ---------- root finding ----------------------------------------------------------

TEST(RootFind, BisectSqrt2) {
  const RootResult r = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::sqrt(2.0), 1e-7);
}

TEST(RootFind, BrentSqrt2FasterThanBisect) {
  RootFindOptions opts;
  opts.x_tolerance = 1e-12;
  const RootResult rb = brent([](double x) { return x * x - 2.0; }, 0.0, 2.0, opts);
  const RootResult ri = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0, opts);
  EXPECT_TRUE(rb.converged);
  EXPECT_NEAR(rb.x, std::sqrt(2.0), 1e-10);
  EXPECT_LT(rb.iterations, ri.iterations);
}

TEST(RootFind, BrentStiffExponential) {
  // Subthreshold-like residual: e^(40x) - 1000.
  const RootResult r =
      brent([](double x) { return std::exp(40.0 * x) - 1000.0; }, -1.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::log(1000.0) / 40.0, 1e-7);
}

TEST(RootFind, NoSignChangeThrows) {
  EXPECT_THROW(bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               InvalidArgument);
  EXPECT_THROW(brent([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               InvalidArgument);
}

TEST(RootFind, EndpointRoot) {
  const RootResult r = bisect([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(RootFind, MonotoneThresholdFindsStep) {
  const double threshold = monotone_threshold_log(
      [](double x) { return x >= 1234.0; }, 1.0, 1e6, 1.001);
  EXPECT_NEAR(threshold, 1234.0, 1234.0 * 2e-3);
}

TEST(RootFind, MonotoneThresholdAlwaysTrue) {
  EXPECT_DOUBLE_EQ(
      monotone_threshold_log([](double) { return true; }, 1.0, 1e6), 1.0);
}

TEST(RootFind, MonotoneThresholdNeverTrueReturnsSentinel) {
  const double r =
      monotone_threshold_log([](double) { return false; }, 1.0, 1e6);
  EXPECT_GT(r, 1e6);
}

TEST(RootFind, MonotoneThresholdBadRangeThrows) {
  EXPECT_THROW(
      monotone_threshold_log([](double) { return true; }, -1.0, 1e6),
      InvalidArgument);
  EXPECT_THROW(monotone_threshold_log([](double) { return true; }, 10.0, 5.0),
               InvalidArgument);
}

// ---------- strings ----------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello "), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Split) {
  const auto parts = split("a;b;;c", ';');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("March m-LZ", "March"));
  EXPECT_FALSE(starts_with("m-LZ", "March"));
}

TEST(Strings, ToLowerAndJoin) {
  EXPECT_EQ(to_lower("DSM"), "dsm");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

// ---------- table ----------------------------------------------------------

TEST(AsciiTable, RendersAlignedCells) {
  AsciiTable t({"Def.", "Min. Res."});
  t.add_row({"Df1", "9.76K"});
  t.add_row({"Df16", "976.56"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| Df1 "), std::string::npos);
  EXPECT_NE(s.find("| Df16 "), std::string::npos);
  EXPECT_NE(s.find("9.76K"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(AsciiTable, ArityMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), InvalidArgument);
}

TEST(AsciiTable, EmptyHeaderThrows) {
  EXPECT_THROW(AsciiTable({}), InvalidArgument);
}

}  // namespace
}  // namespace lpsram
