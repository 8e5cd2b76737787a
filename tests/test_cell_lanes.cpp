// Equivalence + unit suite for the batched lane-parallel cell-analysis
// kernel: Mosfet::eval_lanes vs the scalar eval (bit-identical by
// construction), the lockstep bracketed root solver, batched-vs-scalar
// agreement of VTC curves / hold equilibria / SNM / DRV across the paper's
// case studies and corners, the thread-count x kernel x chaos determinism
// matrix over the Fig. 4 sweep, and campaign-journal refusal of
// cross-kernel resumes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/cell/drv.hpp"
#include "lpsram/cell/snm.hpp"
#include "lpsram/cell/vtc.hpp"
#include "lpsram/core/retention_analyzer.hpp"
#include "lpsram/device/mosfet.hpp"
#include "lpsram/device/mosfet_lanes.hpp"
#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/chaos.hpp"
#include "lpsram/testflow/case_studies.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/rootfind.hpp"
#include "lpsram/util/rootfind_lanes.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {
namespace {

namespace fs = std::filesystem;

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

// Deterministic LCG in [0, 1) so the randomized grids are reproducible.
struct Lcg {
  std::uint64_t s = 0x1234abcdULL;
  double next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(s >> 11) /
           static_cast<double>(1ULL << 53);
  }
};

// ---------- lockstep bracketed root solver ----------------------------------

TEST(RootfindLanes, MatchesBrentOnIndependentCubics) {
  // x^3 = c per lane; compare against Brent on the identical residual.
  const std::vector<double> c = {0.001, 0.11, 0.42, 0.73, 0.99, 0.5004};
  const std::size_t n = c.size();
  std::vector<double> lo(n, 0.0), hi(n, 1.5), root(n, 0.0);
  const LaneResidualFn fn = [&](const std::size_t* lanes, const double* x,
                                double* f, double* df, std::size_t m) {
    for (std::size_t i = 0; i < m; ++i) {
      f[i] = x[i] * x[i] * x[i] - c[lanes[i]];
      df[i] = 3.0 * x[i] * x[i];
    }
  };
  const LaneRootStats stats =
      solve_bracketed_lanes(fn, n, lo.data(), hi.data(), root.data());
  EXPECT_GT(stats.rounds, 0);
  RootFindOptions opts;
  opts.x_tolerance = 1e-9;
  for (std::size_t i = 0; i < n; ++i) {
    const double ref =
        brent([&](double x) { return x * x * x - c[i]; }, 0.0, 1.5, opts).x;
    EXPECT_NEAR(root[i], ref, 1e-8) << "lane " << i;
    EXPECT_NEAR(root[i], std::cbrt(c[i]), 1e-8) << "lane " << i;
  }
}

TEST(RootfindLanes, RetiredLanesLeaveTheActiveSet) {
  // Lane 0 is linear (Newton lands on the root in one step and retires);
  // lane 1 is a shifted cubic needing many rounds. Once a lane retires it
  // must never be evaluated again.
  std::vector<std::set<std::size_t>> rounds_seen;
  const LaneResidualFn fn = [&](const std::size_t* lanes, const double* x,
                                double* f, double* df, std::size_t m) {
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < m; ++i) {
      seen.insert(lanes[i]);
      if (lanes[i] == 0) {
        f[i] = x[i] - 0.25;
        df[i] = 1.0;
      } else {
        const double d = x[i] - 0.7;
        f[i] = d * d * d;
        df[i] = 3.0 * d * d;
      }
    }
    rounds_seen.push_back(std::move(seen));
  };
  const std::vector<double> lo = {0.0, 0.0}, hi = {1.0, 1.0};
  std::vector<double> root(2, 0.0);
  const LaneRootStats stats =
      solve_bracketed_lanes(fn, 2, lo.data(), hi.data(), root.data());
  EXPECT_NEAR(root[0], 0.25, 1e-9);
  EXPECT_NEAR(root[1], 0.7, 1e-3);  // triple root: converges by bisection
  ASSERT_GE(rounds_seen.size(), 3u);
  // Lane 0 retires within the first two rounds (bisection probe, then an
  // exact Newton step); every later round must exclude it.
  for (std::size_t r = 2; r < rounds_seen.size(); ++r)
    EXPECT_EQ(rounds_seen[r].count(0), 0u) << "round " << r;
  // Retirement must show in the evaluation count: strictly fewer than two
  // evaluations per round.
  EXPECT_LT(stats.evaluations,
            2 * static_cast<std::size_t>(stats.rounds));
}

TEST(RootfindLanes, DecreasingOrientationSolvesMapResiduals) {
  // f(x) = 0.7 - x has f(lo) > 0 > f(hi): the fixed-point orientation.
  const LaneResidualFn fn = [](const std::size_t*, const double* x, double* f,
                               double* df, std::size_t m) {
    for (std::size_t i = 0; i < m; ++i) {
      f[i] = 0.7 - x[i];
      df[i] = -1.0;
    }
  };
  const double lo = 0.0, hi = 1.0;
  double root = 0.0;
  LaneRootOptions opts;
  opts.increasing = false;
  solve_bracketed_lanes(fn, 1, &lo, &hi, &root, opts);
  EXPECT_NEAR(root, 0.7, 1e-9);
}

TEST(RootfindLanes, WorkspaceReuseIsStateless) {
  const LaneResidualFn fn = [](const std::size_t*, const double* x, double* f,
                               double* df, std::size_t m) {
    for (std::size_t i = 0; i < m; ++i) {
      f[i] = std::exp(x[i]) - 2.0;
      df[i] = std::exp(x[i]);
    }
  };
  const double lo = 0.0, hi = 2.0;
  double fresh = 0.0;
  solve_bracketed_lanes(fn, 1, &lo, &hi, &fresh);
  LaneRootWorkspace ws;
  double reused1 = 0.0, reused2 = 0.0;
  solve_bracketed_lanes(fn, 1, &lo, &hi, &reused1, {}, &ws);
  solve_bracketed_lanes(fn, 1, &lo, &hi, &reused2, {}, &ws);
  EXPECT_EQ(reused1, fresh);
  EXPECT_EQ(reused2, fresh);
  EXPECT_NEAR(fresh, std::log(2.0), 1e-9);
}

// ---------- Mosfet::eval_lanes vs the scalar model ---------------------------

// The lane kernel hoists per-(device, temperature) constants but keeps every
// expression in the scalar evaluation order, so it is bit-identical — not
// merely close — to Mosfet::eval. This covers NMOS and PMOS (the mirrored-
// terminal branch), rail overshoots (the -0.05 / vdd+0.05 brackets the node
// solver probes), denormal-scale inputs, and the full temperature range.
// The identity holds on the scalar-oracle kind; the SIMD kind is pinned to
// its documented tolerance by SimdEvalLanesMatchesScalarWithinTolerance.
TEST(MosfetLanes, EvalLanesBitIdenticalToScalarEval) {
  const ScopedKernelConfig simd_scope(&KernelConfig::simd, Kernel::Reference);
  Lcg rng;
  const MosfetParams params[] = {tech().cell_pullup(), tech().cell_pulldown(),
                                 tech().cell_pass()};
  for (const MosfetParams& p : params) {
    const Mosfet m(p);
    for (const double temp_c : {-40.0, 25.0, 125.0}) {
      constexpr std::size_t kN = 512;
      std::vector<double> vg(kN), vd(kN), vs(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        vg[i] = -0.05 + 1.30 * rng.next();
        vd[i] = -0.05 + 1.30 * rng.next();
        vs[i] = -0.05 + 1.30 * rng.next();
      }
      // Edge lanes: exact rail overshoots and denormal-scale voltages.
      vg[0] = -0.05; vd[0] = 1.25; vs[0] = 0.0;
      vg[1] = 1.25;  vd[1] = -0.05; vs[1] = 1.25;
      vg[2] = 5e-324; vd[2] = 1e-310; vs[2] = 0.0;
      vg[3] = 0.0;   vd[3] = 0.0;   vs[3] = 0.0;
      std::vector<double> id(kN), gm(kN), gds(kN), gms(kN);
      m.eval_lanes(vg.data(), vd.data(), vs.data(), kN, temp_c, id.data(),
                   gm.data(), gds.data(), gms.data());
      for (std::size_t i = 0; i < kN; ++i) {
        const MosEval e = m.eval(vg[i], vd[i], vs[i], temp_c);
        EXPECT_EQ(e.id, id[i]) << "lane " << i;
        EXPECT_EQ(e.gm, gm[i]) << "lane " << i;
        EXPECT_EQ(e.gds, gds[i]) << "lane " << i;
        EXPECT_EQ(e.gms, gms[i]) << "lane " << i;
      }
    }
  }
}

// Under the SIMD kind the transcendental pair comes from simd::vexp /
// simd::vlog1p instead of libm, so the lanes agree with the scalar model to
// a small relative tolerance (plus an absolute floor where the gm/gds terms
// genuinely cancel), not bit-for-bit. Same device / temperature / operating
// grid as the bit-identity matrix above.
TEST(MosfetLanes, SimdEvalLanesMatchesScalarWithinTolerance) {
  const ScopedKernelConfig simd_scope(&KernelConfig::simd, Kernel::Production);
  const auto near = [](double a, double b, const char* what, std::size_t i) {
    const double tol = 1e-10 * std::fabs(a) + 1e-15;
    EXPECT_NEAR(a, b, tol) << what << " lane " << i;
  };
  Lcg rng;
  const MosfetParams params[] = {tech().cell_pullup(), tech().cell_pulldown(),
                                 tech().cell_pass()};
  for (const MosfetParams& p : params) {
    const Mosfet m(p);
    for (const double temp_c : {-40.0, 25.0, 125.0}) {
      constexpr std::size_t kN = 512;
      std::vector<double> vg(kN), vd(kN), vs(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        vg[i] = -0.05 + 1.30 * rng.next();
        vd[i] = -0.05 + 1.30 * rng.next();
        vs[i] = -0.05 + 1.30 * rng.next();
      }
      std::vector<double> id(kN), gm(kN), gds(kN), gms(kN);
      m.eval_lanes(vg.data(), vd.data(), vs.data(), kN, temp_c, id.data(),
                   gm.data(), gds.data(), gms.data());
      for (std::size_t i = 0; i < kN; ++i) {
        const MosEval e = m.eval(vg[i], vd[i], vs[i], temp_c);
        near(e.id, id[i], "id", i);
        near(e.gm, gm[i], "gm", i);
        near(e.gds, gds[i], "gds", i);
        near(e.gms, gms[i], "gms", i);
      }
    }
  }
}

// The SIMD remainder block pads with the last lane and computes a full
// vector, so each lane's result must be independent of the array length —
// exercised across every length up to a couple of native widths.
TEST(MosfetLanes, SimdRemainderLanesAreLengthIndependent) {
  const ScopedKernelConfig simd_scope(&KernelConfig::simd, Kernel::Production);
  const Mosfet m(tech().cell_pulldown());
  constexpr std::size_t kMax = 2 * simd::kNativeWidth + 3;
  Lcg rng;
  std::vector<double> vg(kMax), vd(kMax), vs(kMax);
  for (std::size_t i = 0; i < kMax; ++i) {
    vg[i] = 1.2 * rng.next();
    vd[i] = 1.2 * rng.next();
    vs[i] = 1.2 * rng.next();
  }
  std::vector<double> id_full(kMax), gm_full(kMax), gds_full(kMax),
      gms_full(kMax);
  m.eval_lanes(vg.data(), vd.data(), vs.data(), kMax, 25.0, id_full.data(),
               gm_full.data(), gds_full.data(), gms_full.data());
  for (std::size_t n = 1; n <= kMax; ++n) {
    std::vector<double> id(n), gm(n), gds(n), gms(n);
    m.eval_lanes(vg.data(), vd.data(), vs.data(), n, 25.0, id.data(),
                 gm.data(), gds.data(), gms.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(id[i], id_full[i]) << "n=" << n << " lane " << i;
      EXPECT_EQ(gm[i], gm_full[i]) << "n=" << n << " lane " << i;
      EXPECT_EQ(gds[i], gds_full[i]) << "n=" << n << " lane " << i;
      EXPECT_EQ(gms[i], gms_full[i]) << "n=" << n << " lane " << i;
    }
  }
}

TEST(MosfetLanes, NullOutputArraysAreSkipped) {
  const Mosfet m(tech().cell_pulldown());
  const double vg = 0.6, vd = 0.3, vs = 0.0;
  double id = 0.0;
  m.eval_lanes(&vg, &vd, &vs, 1, 25.0, &id, nullptr, nullptr, nullptr);
  EXPECT_EQ(id, m.eval(vg, vd, vs, 25.0).id);
}

TEST(MosfetLanes, SourceCachedNmosEvalMatchesFullEval) {
  // The cached form reuses the source-side softplus across drain probes —
  // it must reproduce the plain lane evaluation bit for bit.
  const Mosfet m(tech().cell_pass());
  const MosfetLaneConsts c = mosfet_lane_consts(m, 25.0);
  ASSERT_FALSE(c.pmos);
  const double vg = 1.1, vs = 0.2;
  const NmosSourceCache cache = nmos_source_cache(c, vg, vs);
  Lcg rng;
  for (int i = 0; i < 64; ++i) {
    const double vd = -0.05 + 1.2 * rng.next();
    const MosEval full = lane_eval_core(c, vg, vd, vs);
    const MosEval cached = lane_eval_nmos_cached(c, cache, vd, vs);
    EXPECT_EQ(full.id, cached.id);
    EXPECT_EQ(full.gm, cached.gm);
    EXPECT_EQ(full.gds, cached.gds);
    EXPECT_EQ(full.gms, cached.gms);
  }
}

// ---------- runtime kernel selection -----------------------------------------

TEST(CellKernel, DefaultIsBatchedAndScopesNestAndRestore) {
  EXPECT_EQ(kernel_config().cell, Kernel::Production);
  {
    const ScopedKernelConfig outer(&KernelConfig::cell, Kernel::Reference);
    EXPECT_EQ(kernel_config().cell, Kernel::Reference);
    {
      const ScopedKernelConfig inner(&KernelConfig::cell, Kernel::Production);
      EXPECT_EQ(kernel_config().cell, Kernel::Production);
    }
    EXPECT_EQ(kernel_config().cell, Kernel::Reference);
  }
  EXPECT_EQ(kernel_config().cell, Kernel::Production);
}

// ---------- batched vs scalar cell analyses ----------------------------------

TEST(BatchVtc, CurvesMatchScalarInversions) {
  const CoreCell cell(tech());
  const HoldVtc vtc(cell);
  for (const bool side_s : {true, false}) {
    std::vector<std::pair<double, double>> scalar, batched;
    {
      const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Reference);
      scalar = side_s ? vtc.curve_s(1.1, 25.0, 33) : vtc.curve_sb(1.1, 25.0, 33);
    }
    {
      const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Production);
      batched =
          side_s ? vtc.curve_s(1.1, 25.0, 33) : vtc.curve_sb(1.1, 25.0, 33);
    }
    ASSERT_EQ(scalar.size(), batched.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      EXPECT_EQ(scalar[i].first, batched[i].first);
      // Both solvers refine the same monotone residual to x_tol 1e-9; they
      // may stop on different sides of the root.
      EXPECT_NEAR(scalar[i].second, batched[i].second, 1e-6) << "i=" << i;
    }
  }
}

TEST(BatchVtc, HoldEquilibriumAgreesWithScalar) {
  for (const CaseStudy& cs : table2_case_studies()) {
    const CoreCell cell(tech(), cs.variation);
    for (const StoredBit bit : {StoredBit::One, StoredBit::Zero}) {
      HoldState a, b;
      {
        const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Reference);
        a = hold_equilibrium(cell, bit, 1.1, 25.0);
      }
      {
        const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Production);
        b = hold_equilibrium(cell, bit, 1.1, 25.0);
      }
      EXPECT_EQ(a.stable, b.stable) << cs.name();
      EXPECT_NEAR(a.v_s, b.v_s, 1e-6) << cs.name();
      EXPECT_NEAR(a.v_sb, b.v_sb, 1e-6) << cs.name();
    }
  }
}

TEST(BatchVtc, HoldSnmAgreesWithScalarAcrossCaseStudiesAndCorners) {
  // Both kernels bisect the noise level to the same 1e-4 resolution; the
  // wavefront ladder walks a different probe sequence, so agreement is
  // bounded by the shared resolution, not bit-identity.
  for (const CaseStudy& cs : table2_case_studies()) {
    for (const Corner corner : {Corner::Typical, Corner::Slow}) {
      const CoreCell cell(tech(), cs.variation, corner);
      double a = 0.0, b = 0.0;
      {
        const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Reference);
        a = hold_snm(cell, cs.attacked_bit(), 0.8, 25.0);
      }
      {
        const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Production);
        b = hold_snm(cell, cs.attacked_bit(), 0.8, 25.0);
      }
      EXPECT_NEAR(a, b, 2e-4) << cs.name() << " corner "
                              << static_cast<int>(corner);
    }
  }
}

TEST(BatchVtc, DrvMatchesScalarWithinOneBisectionBracket) {
  // The batched search replays the scalar vdd probe schedule, so DRVs match
  // exactly unless a probe lands inside the retention fold's solver-noise
  // band — then the kernels settle at most one bracket (rel_tolerance
  // squared) apart. FastNSlowP at -40 C exercises exactly that band.
  int exact = 0, total = 0;
  for (const CaseStudy& cs : table2_case_studies()) {
    for (const Corner corner : {Corner::Typical, Corner::FastNSlowP}) {
      const CoreCell cell(tech(), cs.variation, corner);
      for (const double temp_c : {-40.0, 25.0}) {
        double a = 0.0, b = 0.0;
        {
          const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Reference);
          a = drv_hold(cell, cs.attacked_bit(), temp_c);
        }
        {
          const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Production);
          b = drv_hold(cell, cs.attacked_bit(), temp_c);
        }
        ++total;
        if (a == b) ++exact;
        const double ratio = a > b ? a / b : b / a;
        EXPECT_LT(ratio, 1.05 * 1.05)
            << cs.name() << " corner " << static_cast<int>(corner) << " temp "
            << temp_c << ": scalar " << a << " batched " << b;
        // Rerunning the batched search must be deterministic.
        const ScopedKernelConfig k(&KernelConfig::cell, Kernel::Production);
        EXPECT_EQ(drv_hold(cell, cs.attacked_bit(), temp_c), b);
      }
    }
  }
  // The fold band is rare: the overwhelming majority must match exactly.
  EXPECT_GE(exact * 10, total * 8) << exact << "/" << total << " exact";
}

// ---------- Fig. 4 determinism matrix ----------------------------------------

std::vector<Fig4Point> fig4(Kernel kernel, int threads, bool chaos_on,
                            Campaign* campaign = nullptr) {
  const ScopedKernelConfig scope(&KernelConfig::cell, kernel);
  const RetentionAnalyzer analyzer(tech());
  const std::vector<double> sigmas = {-3.0, 0.0, 3.0};
  const std::vector<Corner> corners = {Corner::Typical};
  const std::vector<double> temps = {25.0};
  if (chaos_on) {
    ChaosPolicy policy;
    policy.seed = 11;
    policy.first_attempt_failure_rate = 0.5;
    ChaosEngine chaos(policy);
    const ChaosScope scope_chaos(chaos);
    return analyzer.fig4_sweep(sigmas, corners, temps, nullptr, nullptr,
                               threads, campaign);
  }
  return analyzer.fig4_sweep(sigmas, corners, temps, nullptr, nullptr,
                             threads, campaign);
}

void expect_fig4_eq(const std::vector<Fig4Point>& a,
                    const std::vector<Fig4Point>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].transistor, b[i].transistor) << "i=" << i;
    EXPECT_EQ(a[i].sigma, b[i].sigma) << "i=" << i;
    EXPECT_EQ(a[i].drv1, b[i].drv1) << "i=" << i;
    EXPECT_EQ(a[i].drv0, b[i].drv0) << "i=" << i;
  }
}

TEST(BatchVtc, Fig4MatrixDeterministicAcrossThreadsKernelsAndChaos) {
  // Within one kernel the sweep must be bit-identical at 1/2/8 threads,
  // with and without chaos fault injection (the cell layer never touches
  // the sabotaged DC-solver hooks). Across kernels the tables agree to the
  // fold-band tolerance.
  const std::vector<Fig4Point> scalar1 = fig4(Kernel::Reference, 1, false);
  const std::vector<Fig4Point> batched1 = fig4(Kernel::Production, 1, false);
  for (const int threads : {2, 8}) {
    expect_fig4_eq(fig4(Kernel::Reference, threads, true), scalar1);
    expect_fig4_eq(fig4(Kernel::Production, threads, true), batched1);
  }
  ASSERT_EQ(scalar1.size(), batched1.size());
  for (std::size_t i = 0; i < scalar1.size(); ++i) {
    EXPECT_NEAR(scalar1[i].drv1, batched1[i].drv1, 0.02) << "i=" << i;
    EXPECT_NEAR(scalar1[i].drv0, batched1[i].drv0, 0.02) << "i=" << i;
  }
}

// ---------- campaign journals refuse kernel mixes ----------------------------

TEST(BatchVtc, Fig4JournalRefusesResumeUnderDifferentKernel) {
  const fs::path dir = "campaign-journals";
  fs::create_directories(dir);
  const fs::path path = dir / "cell_kernel_mix.journal";
  fs::remove(path);
  std::vector<Fig4Point> recorded;
  {
    Campaign campaign(path.string());
    recorded = fig4(Kernel::Production, 1, false, &campaign);
  }
  {
    // Same kernel: the resume replays every task from the journal.
    Campaign campaign(path.string());
    expect_fig4_eq(fig4(Kernel::Production, 1, false, &campaign), recorded);
  }
  {
    // Different kernel: the manifest fingerprint differs and the campaign
    // refuses instead of blending near-identical DRVs into one table.
    Campaign campaign(path.string());
    EXPECT_THROW(fig4(Kernel::Reference, 1, false, &campaign),
                 InvalidArgument);
  }
}

}  // namespace
}  // namespace lpsram
