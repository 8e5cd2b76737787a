#include "lpsram/cell/batch_vtc.hpp"

#include <cmath>

#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/rootfind.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {

// ---------------------------------------------------------------------------
// Engine.

namespace {

// Scalar scan constants, replicated exactly (snm.cpp smallest_fixed_point):
// grid point i is vdd_cc * i / kScanPoints for i in 1..kScanPoints.
constexpr int kScanPoints = 48;

// Noise levels probed per SNM ladder round; the bracket shrinks by
// (kNoiseWavefront + 1) per batched round instead of 2 per scalar probe.
constexpr int kNoiseWavefront = 3;

// SNM ladder resolution, replicated from the scalar hold_snm.
constexpr double kSnmResolution = 1e-4;  // 0.1 mV

// VTC inversion tolerances, replicated from the scalar solve_node
// (vtc.cpp): Brent with x_tol 1e-9 / f_tol 1e-18 on a bracket slightly
// wider than the rails.
constexpr double kNodeXTol = 1e-9;
constexpr double kNodeFTol = 1e-18;

// Fixed-point refinement tolerances, replicated from the scalar
// smallest_fixed_point (x_tol 1e-7, default f_tol).
constexpr double kMapXTol = 1e-7;
constexpr double kMapFTol = 1e-12;

}  // namespace

BatchHoldVtc::BatchHoldVtc(const CoreCell& cell, double temp_c,
                           CoreCell::Bias bias)
    : cell_(&cell), temp_c_(temp_c), bias_(bias) {
  // Hoist the per-(device, temperature) constants once. The solved node is
  // the drain of all three attached devices, so every residual derivative
  // is a plain gds sum.
  side_s_.pu = mosfet_lane_consts(cell.transistor(CellTransistor::MPcc1), temp_c);
  side_s_.pd = mosfet_lane_consts(cell.transistor(CellTransistor::MNcc1), temp_c);
  side_s_.pass =
      mosfet_lane_consts(cell.transistor(CellTransistor::MNcc3), temp_c);
  side_s_.pass_cache = nmos_source_cache(side_s_.pass, bias.wl, bias.bl);
  side_s_.pass_vs = bias.bl;

  side_sb_.pu = mosfet_lane_consts(cell.transistor(CellTransistor::MPcc2), temp_c);
  side_sb_.pd = mosfet_lane_consts(cell.transistor(CellTransistor::MNcc2), temp_c);
  side_sb_.pass =
      mosfet_lane_consts(cell.transistor(CellTransistor::MNcc4), temp_c);
  side_sb_.pass_cache = nmos_source_cache(side_sb_.pass, bias.wl, bias.blb);
  side_sb_.pass_vs = bias.blb;
}

void BatchHoldVtc::invert(const InverterPlan& plan, const double* v_in,
                          std::size_t n, double vdd_cc, double* out,
                          double* slope) {
  // Per-lane source caches for the pull-down: its gate is the lane input and
  // its source is ground, both fixed across the solve iterations — only the
  // drain (the solved node) moves.
  pd_cache_.resize(n);
  inv_lo_.resize(n);
  inv_hi_.resize(n);
  gm_sum_.resize(n);
  gds_sum_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pd_cache_[i] = nmos_source_cache(plan.pd, v_in[i], 0.0);
    // Scalar solve_node bracket: slightly wider than the rails.
    inv_lo_[i] = -0.05;
    inv_hi_[i] = vdd_cc + 0.05;
  }

  // Kernel choice is latched once per inversion: the scalar loop is the
  // bit-identical oracle (libm softplus via lane_eval), the SIMD branch
  // evaluates native-width blocks through the vectorized expression tree
  // (simd::vexp/vlog1p — agrees with the oracle to the documented ulp
  // level). The rootfind_lanes padding contract guarantees lanes/x are
  // readable and f/df writable through round_up_lanes(m).
  const bool use_simd = kernel_config().simd == Kernel::Production;
  const auto residual = [&](const std::size_t* lanes, const double* x,
                            double* f, double* df, std::size_t m) {
    if (use_simd) {
      using V = simd::Vec;
      constexpr std::size_t W = simd::kNativeWidth;
      const V vdd = V::broadcast(vdd_cc);
      const V zero = V::zero();
      const V pass_vp = V::broadcast(plan.pass_cache.vp);
      const V pass_if = V::broadcast(plan.pass_cache.i_forward);
      const V pass_dfs = V::broadcast(plan.pass_cache.dfs);
      const V pass_vs = V::broadcast(plan.pass_vs);
      for (std::size_t i = 0; i < m; i += W) {
        double g_in[W], c_vp[W], c_if[W], c_dfs[W];
        for (std::size_t j = 0; j < W; ++j) {
          const std::size_t lane = lanes[i + j];
          g_in[j] = v_in[lane];
          c_vp[j] = pd_cache_[lane].vp;
          c_if[j] = pd_cache_[lane].i_forward;
          c_dfs[j] = pd_cache_[lane].dfs;
        }
        const V xv = V::load(x + i);
        const MosEvalV<V> pu = lane_eval_v(plan.pu, V::load(g_in), xv, vdd);
        const MosEvalV<V> pd = lane_eval_nmos_cached_v(
            plan.pd, V::load(c_vp), V::load(c_if), V::load(c_dfs), xv, zero);
        const MosEvalV<V> ps = lane_eval_nmos_cached_v(
            plan.pass, pass_vp, pass_if, pass_dfs, xv, pass_vs);
        // Same summation order as the scalar loop: pu + pd + pass.
        const V fv = pu.id + pd.id + ps.id;
        const V dfv = pu.gds + pd.gds + ps.gds;
        fv.store(f + i);
        dfv.store(df + i);
        double tgm[W], tgds[W];
        (pu.gm + pd.gm).store(tgm);
        dfv.store(tgds);
        for (std::size_t j = 0; j < W && i + j < m; ++j) {
          gm_sum_[lanes[i + j]] = tgm[j];
          gds_sum_[lanes[i + j]] = tgds[j];
        }
      }
      return;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t lane = lanes[i];
      const double xv = x[i];
      // Pull-up PMOS: gate = lane input, drain = solved node, source = rail.
      // Full mirrored-terminal evaluation — the well reference moves with
      // the drain, so nothing source-side is cacheable.
      const MosEval pu = lane_eval(plan.pu, v_in[lane], xv, vdd_cc);
      // Pull-down NMOS from the per-lane source cache: one exponential.
      const MosEval pd = lane_eval_nmos_cached(plan.pd, pd_cache_[lane], xv, 0.0);
      // Pass NMOS from the bias-level source cache shared by every lane.
      const MosEval ps =
          lane_eval_nmos_cached(plan.pass, plan.pass_cache, xv, plan.pass_vs);
      // Same summation order as CoreCell::residual_s/_sb: pu + pd + pass.
      f[i] = pu.id + pd.id + ps.id;
      df[i] = pu.gds + pd.gds + ps.gds;
      gm_sum_[lane] = pu.gm + pd.gm;
      gds_sum_[lane] = df[i];
    }
  };

  LaneRootOptions opts;
  opts.x_tolerance = kNodeXTol;
  opts.f_tolerance = kNodeFTol;
  opts.increasing = true;  // node residual is monotone increasing in the node
  solve_bracketed_lanes(residual, n, inv_lo_.data(), inv_hi_.data(), out, opts,
                        &node_ws_);

  if (slope) {
    // VTC slope d out / d in from the last device evaluation: the input
    // drives both gates, the output is the common drain, so
    // d out / d in = -(gm_pu + gm_pd) / (gds_pu + gds_pd + gds_pass).
    for (std::size_t i = 0; i < n; ++i)
      slope[i] = gds_sum_[i] != 0.0 ? -gm_sum_[i] / gds_sum_[i] : 0.0;
  }
}

void BatchHoldVtc::inverter_s(const double* v_in, std::size_t n, double vdd_cc,
                              double* out, double* slope) {
  invert(side_s_, v_in, n, vdd_cc, out, slope);
}

void BatchHoldVtc::inverter_sb(const double* v_in, std::size_t n,
                               double vdd_cc, double* out, double* slope) {
  invert(side_sb_, v_in, n, vdd_cc, out, slope);
}

void BatchHoldVtc::loop_map(StoredBit bit, double vdd_cc, const double* x,
                            const double* noise, std::size_t m, double* out,
                            double* slope, double* v_high) {
  // Same composition as the scalar LoopMap (snm.cpp): raise the high-side
  // input by the adverse noise, drive the high node, lower its value by the
  // noise, drive the low node back.
  map_in_.resize(m);
  map_high_.resize(m);
  map_slope_high_.resize(m);
  map_slope_low_.resize(m);

  for (std::size_t i = 0; i < m; ++i) map_in_[i] = x[i] + noise[i];
  if (bit == StoredBit::One) {
    inverter_s(map_in_.data(), m, vdd_cc, map_high_.data(),
               slope ? map_slope_high_.data() : nullptr);
  } else {
    inverter_sb(map_in_.data(), m, vdd_cc, map_high_.data(),
                slope ? map_slope_high_.data() : nullptr);
  }
  for (std::size_t i = 0; i < m; ++i) map_in_[i] = map_high_[i] - noise[i];
  if (bit == StoredBit::One) {
    inverter_sb(map_in_.data(), m, vdd_cc, out,
                slope ? map_slope_low_.data() : nullptr);
  } else {
    inverter_s(map_in_.data(), m, vdd_cc, out,
               slope ? map_slope_low_.data() : nullptr);
  }
  if (slope) {
    // Chain rule through the composition: T'(x) = slope_low * slope_high.
    for (std::size_t i = 0; i < m; ++i)
      slope[i] = map_slope_low_[i] * map_slope_high_[i];
  }
  if (v_high) {
    for (std::size_t i = 0; i < m; ++i) v_high[i] = map_high_[i];
  }
}

void BatchHoldVtc::smallest_fixed_points(StoredBit bit, double vdd_cc,
                                         const double* noise, std::size_t k,
                                         double x_start, double* v_low,
                                         double* v_high) {
  // Phase 1 — monotone-accelerated scan for the first sign change of
  // f(x) = T(x) - x along the scalar grid x_i = vdd * i / 48. Two facts
  // about the monotone-increasing map T make the scan cheap without
  // changing which grid point brackets the crossing:
  //   (a) below the smallest fixed point x*, f > 0 (first-crossing
  //       definition), so any probe with f <= 0 ends the scan exactly as in
  //       the scalar code;
  //   (b) for any probe x <= x*, T(x) <= T(x*) = x* — every evaluation is
  //       itself a lower bound for x*, so grid points at or below T(x) are
  //       provably on the f > 0 side and can be skipped unevaluated.
  // Warm starts ride the same lemma: the fixed point is monotone in the
  // noise level, so x*(d_prev) <= x*(d) makes x_start a valid first probe
  // with f(x_start) >= 0 (equality only at the fixed point itself).
  struct ScanLane {
    int grid = 1;          // next unvisited scalar grid index
    double x_prev = 0.0;   // last probe with f > 0 (bracket low)
    double probe = 0.0;    // probe submitted this round
    double bracket_lo = 0.0, bracket_hi = 0.0;
    enum class Phase { Scan, Refine, Done } phase = Phase::Scan;
  };
  std::vector<ScanLane> lanes(k);
  fp_lanes_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    lanes[i].x_prev = x_start;
    lanes[i].probe = x_start;
    fp_lanes_.push_back(i);
  }

  fp_x_.resize(k);
  fp_noise_.resize(k);
  fp_t_.resize(k);
  while (!fp_lanes_.empty()) {
    const std::size_t m = fp_lanes_.size();
    for (std::size_t i = 0; i < m; ++i) {
      fp_x_[i] = lanes[fp_lanes_[i]].probe;
      fp_noise_[i] = noise[fp_lanes_[i]];
    }
    loop_map(bit, vdd_cc, fp_x_.data(), fp_noise_.data(), m, fp_t_.data(),
             nullptr, nullptr);

    std::size_t kept = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t lane = fp_lanes_[i];
      ScanLane& s = lanes[lane];
      const double t = fp_t_[i];
      const double f = t - s.probe;
      if (f <= 0.0) {
        if (s.probe == x_start) {
          // Already at/below a fixed point (scalar: the x_prev = 0 branch).
          v_low[lane] = s.probe;
          s.phase = ScanLane::Phase::Done;
        } else {
          s.bracket_lo = s.x_prev;
          s.bracket_hi = s.probe;
          s.phase = ScanLane::Phase::Refine;
        }
        continue;
      }
      // f > 0: t = T(probe) is a certified lower bound for x*. Skip every
      // grid point at or below it (and below the probe itself).
      s.x_prev = s.probe;
      const double bound = t > s.probe ? t : s.probe;
      while (s.grid <= kScanPoints &&
             vdd_cc * s.grid / kScanPoints <= bound)
        ++s.grid;
      if (t >= vdd_cc || s.grid > kScanPoints) {
        // x* >= vdd (or the grid is exhausted): the map saturates near vdd —
        // the fully flipped state, exactly the scalar fall-through.
        v_low[lane] = vdd_cc;
        s.phase = ScanLane::Phase::Done;
        continue;
      }
      s.probe = vdd_cc * s.grid / kScanPoints;
      ++s.grid;
      fp_lanes_[kept++] = lane;
    }
    fp_lanes_.resize(kept);
  }

  // Phase 2 — lockstep Newton-polished refinement of the bracketed lanes,
  // residual f(x) = T(x) - x with the analytic map derivative T'(x) - 1.
  fp_lanes_.clear();
  for (std::size_t i = 0; i < k; ++i)
    if (lanes[i].phase == ScanLane::Phase::Refine) fp_lanes_.push_back(i);
  if (!fp_lanes_.empty()) {
    const std::size_t r = fp_lanes_.size();
    fp_x_.resize(r);
    fp_t_.resize(r);
    fp_slope_.resize(r);
    std::vector<double> lo(r), hi(r), root(r);
    for (std::size_t i = 0; i < r; ++i) {
      lo[i] = lanes[fp_lanes_[i]].bracket_lo;
      hi[i] = lanes[fp_lanes_[i]].bracket_hi;
    }
    const auto residual = [&](const std::size_t* active, const double* x,
                              double* f, double* df, std::size_t m) {
      fp_noise_.resize(m);
      for (std::size_t i = 0; i < m; ++i)
        fp_noise_[i] = noise[fp_lanes_[active[i]]];
      loop_map(bit, vdd_cc, x, fp_noise_.data(), m, fp_t_.data(),
               fp_slope_.data(), nullptr);
      for (std::size_t i = 0; i < m; ++i) {
        f[i] = fp_t_[i] - x[i];
        df[i] = fp_slope_[i] - 1.0;
      }
    };
    LaneRootOptions opts;
    opts.x_tolerance = kMapXTol;
    opts.f_tolerance = kMapFTol;
    opts.increasing = false;  // f goes + -> - through the first crossing
    solve_bracketed_lanes(residual, r, lo.data(), hi.data(), root.data(), opts,
                          &map_ws_);
    for (std::size_t i = 0; i < r; ++i) v_low[fp_lanes_[i]] = root[i];
  }

  // Phase 3 — the high node at the settled low node, one batched inversion
  // for all k lanes (scalar: map.high_of_low(v_low)).
  if (v_high) {
    fp_x_.resize(k);
    for (std::size_t i = 0; i < k; ++i) fp_x_[i] = v_low[i] + noise[i];
    if (bit == StoredBit::One) {
      inverter_s(fp_x_.data(), k, vdd_cc, v_high);
    } else {
      inverter_sb(fp_x_.data(), k, vdd_cc, v_high);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched hot-path entry points.

namespace {

// Batched retains for k noise lanes sharing one engine and one warm start.
void retains_lanes(BatchHoldVtc& engine, StoredBit bit, double vdd_cc,
                   const double* noise, std::size_t k, double x_start,
                   bool* held, double* v_low_out) {
  std::vector<double> v_low(k), v_high(k);
  engine.smallest_fixed_points(bit, vdd_cc, noise, k, x_start, v_low.data(),
                               v_high.data());
  for (std::size_t i = 0; i < k; ++i) {
    held[i] = (v_high[i] - v_low[i]) > kHoldMarginFraction * vdd_cc;
    if (v_low_out) v_low_out[i] = v_low[i];
  }
}

}  // namespace

HoldState hold_equilibrium_batched(const CoreCell& cell, StoredBit bit,
                                   double vdd_cc, double temp_c, double noise) {
  BatchHoldVtc engine(cell, temp_c);
  double v_low = 0.0, v_high = 0.0;
  engine.smallest_fixed_points(bit, vdd_cc, &noise, 1, 0.0, &v_low, &v_high);

  HoldState state;
  state.stable = (v_high - v_low) > kHoldMarginFraction * vdd_cc;
  if (bit == StoredBit::One) {
    state.v_s = v_high;
    state.v_sb = v_low;
  } else {
    state.v_s = v_low;
    state.v_sb = v_high;
  }
  return state;
}

bool holds_state_batched(const CoreCell& cell, StoredBit bit, double vdd_cc,
                         double temp_c) {
  BatchHoldVtc engine(cell, temp_c);
  const double zero = 0.0;
  bool held = false;
  retains_lanes(engine, bit, vdd_cc, &zero, 1, 0.0, &held, nullptr);
  return held;
}

double hold_snm_batched(const CoreCell& cell, StoredBit bit, double vdd_cc,
                        double temp_c) {
  BatchHoldVtc engine(cell, temp_c);

  // d = 0: does the cell hold at all? Keep its equilibrium as the warm
  // start for every later probe (x*(d) is monotone increasing in d).
  double d0 = 0.0;
  bool held = false;
  double x_warm = 0.0;
  retains_lanes(engine, bit, vdd_cc, &d0, 1, 0.0, &held, &x_warm);
  if (!held) return 0.0;

  double d_hi = vdd_cc;
  retains_lanes(engine, bit, vdd_cc, &d_hi, 1, x_warm, &held, nullptr);
  if (held) return vdd_cc;

  // Wavefront ladder: each round probes kNoiseWavefront evenly spaced noise
  // levels inside (lo, hi) in one batch, shrinking the bracket by
  // (kNoiseWavefront + 1) per round. All probes exceed lo, so they share
  // lo's equilibrium as the warm start; the largest retaining probe's
  // equilibrium becomes the next round's warm start.
  double lo = 0.0, hi = vdd_cc;
  double probes[kNoiseWavefront];
  bool results[kNoiseWavefront];
  double x_low[kNoiseWavefront];
  while (hi - lo > kSnmResolution) {
    for (int j = 0; j < kNoiseWavefront; ++j)
      probes[j] = lo + (hi - lo) * (j + 1) / (kNoiseWavefront + 1);
    retains_lanes(engine, bit, vdd_cc, probes, kNoiseWavefront, x_warm,
                  results, x_low);
    // retains is monotone decreasing in the noise; walk up to the first
    // failing probe.
    double new_lo = lo, new_hi = hi;
    for (int j = 0; j < kNoiseWavefront; ++j) {
      if (results[j]) {
        new_lo = probes[j];
        x_warm = x_low[j];
      } else {
        new_hi = probes[j];
        break;
      }
    }
    lo = new_lo;
    hi = new_hi;
  }
  return 0.5 * (lo + hi);
}

double drv_hold_batched(const CoreCell& cell, StoredBit bit, double temp_c,
                        const DrvOptions& options) {
  // One engine shared across every vdd probe of the search; the probe
  // schedule is the scalar monotone_threshold_log itself, so the bisection
  // brackets — and therefore the returned DRV — match the scalar kernel
  // exactly as long as every retains decision agrees (probes inside the
  // fold's solver-noise band may flip; see the header note).
  BatchHoldVtc engine(cell, temp_c);
  return monotone_threshold_log(
      [&](double vdd_cc) {
        const double zero = 0.0;
        bool held = false;
        retains_lanes(engine, bit, vdd_cc, &zero, 1, 0.0, &held, nullptr);
        return held;
      },
      options.vdd_min, options.vdd_max, options.rel_tolerance);
}

// ---------------------------------------------------------------------------
// Cross-cell DRV engine: lanes are different cells, each running the solo
// retains pipeline (monotone-accelerated scan, lockstep refine, high-node
// inversion) with its *own* device constants gathered per lane. Every
// expression matches the single-cell path above with the shared broadcast
// operands replaced by per-lane loads — elementwise-identical arithmetic,
// so batch composition cannot perturb any lane's result (the identity the
// header documents and tests/test_yield.cpp pins).

namespace {

class CrossHoldVtc {
 public:
  CrossHoldVtc(const CoreCell* const* cells, std::size_t n, double temp_c,
               CoreCell::Bias bias)
      : n_(n), bias_(bias) {
    side_s_.pu.resize(n);
    side_s_.pd.resize(n);
    side_s_.pass.resize(n);
    side_s_.pass_cache.resize(n);
    side_sb_.pu.resize(n);
    side_sb_.pd.resize(n);
    side_sb_.pass.resize(n);
    side_sb_.pass_cache.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const CoreCell& cell = *cells[i];
      side_s_.pu[i] =
          mosfet_lane_consts(cell.transistor(CellTransistor::MPcc1), temp_c);
      side_s_.pd[i] =
          mosfet_lane_consts(cell.transistor(CellTransistor::MNcc1), temp_c);
      side_s_.pass[i] =
          mosfet_lane_consts(cell.transistor(CellTransistor::MNcc3), temp_c);
      side_s_.pass_cache[i] =
          nmos_source_cache(side_s_.pass[i], bias.wl, bias.bl);
      side_sb_.pu[i] =
          mosfet_lane_consts(cell.transistor(CellTransistor::MPcc2), temp_c);
      side_sb_.pd[i] =
          mosfet_lane_consts(cell.transistor(CellTransistor::MNcc2), temp_c);
      side_sb_.pass[i] =
          mosfet_lane_consts(cell.transistor(CellTransistor::MNcc4), temp_c);
      side_sb_.pass_cache[i] =
          nmos_source_cache(side_sb_.pass[i], bias.wl, bias.blb);
    }
    side_s_.pass_vs = bias.bl;
    side_sb_.pass_vs = bias.blb;
  }

  std::size_t size() const noexcept { return n_; }

  // Batched retains for m lanes: ids[i] names the cell, vdd[i] its supply
  // probe. held[i] (0/1) is valid unless lane i lands in `evicted` (scan
  // budget exhausted), in which case the caller re-solves that cell solo.
  void retains(StoredBit bit, const std::size_t* ids, const double* vdd,
               std::size_t m, int scan_round_budget, char* held,
               std::vector<std::size_t>& evicted) {
    rt_vlow_.resize(m);
    rt_vhigh_.resize(m);
    rt_done_.assign(m, false);
    smallest_fixed_points(bit, ids, vdd, m, scan_round_budget,
                          rt_vlow_.data(), rt_vhigh_.data(), rt_done_.data(),
                          evicted);
    for (std::size_t i = 0; i < m; ++i) {
      if (!rt_done_[i]) continue;  // evicted lane: held[i] left untouched
      held[i] =
          (rt_vhigh_[i] - rt_vlow_[i]) > kHoldMarginFraction * vdd[i] ? 1 : 0;
    }
  }

 private:
  struct Side {
    std::vector<MosfetLaneConsts> pu, pd, pass;
    std::vector<NmosSourceCache> pass_cache;
    double pass_vs = 0.0;
  };

  // Node inversion for m lanes of different cells: v_in[i], vdd[i] and the
  // device constants of cell ids[i] per lane. Mirrors BatchHoldVtc::invert
  // with every shared broadcast replaced by a per-lane gather.
  void invert(const Side& side, const std::size_t* ids, const double* v_in,
              const double* vdd, std::size_t m, double* out, double* slope) {
    pd_cache_.resize(m);
    inv_lo_.resize(m);
    inv_hi_.resize(m);
    gm_sum_.resize(m);
    gds_sum_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      pd_cache_[i] = nmos_source_cache(side.pd[ids[i]], v_in[i], 0.0);
      inv_lo_[i] = -0.05;
      inv_hi_[i] = vdd[i] + 0.05;
    }

    const bool use_simd = kernel_config().simd == Kernel::Production;
    const auto residual = [&](const std::size_t* lanes, const double* x,
                              double* f, double* df, std::size_t m_act) {
      if (use_simd) {
        using V = simd::Vec;
        constexpr std::size_t W = simd::kNativeWidth;
        const V zero = V::zero();
        const V pass_vs = V::broadcast(side.pass_vs);
        for (std::size_t i = 0; i < m_act; i += W) {
          std::size_t cell_idx[W];
          double g_in[W], vdd_l[W], c_vp[W], c_if[W], c_dfs[W];
          double p_vp[W], p_if[W], p_dfs[W];
          for (std::size_t j = 0; j < W; ++j) {
            const std::size_t lane = lanes[i + j];
            cell_idx[j] = ids[lane];
            g_in[j] = v_in[lane];
            vdd_l[j] = vdd[lane];
            c_vp[j] = pd_cache_[lane].vp;
            c_if[j] = pd_cache_[lane].i_forward;
            c_dfs[j] = pd_cache_[lane].dfs;
            const NmosSourceCache& pc = side.pass_cache[cell_idx[j]];
            p_vp[j] = pc.vp;
            p_if[j] = pc.i_forward;
            p_dfs[j] = pc.dfs;
          }
          const MosfetLaneConstsV<V> puC =
              gather_lane_consts<V>(side.pu.data(), cell_idx);
          const MosfetLaneConstsV<V> pdC =
              gather_lane_consts<V>(side.pd.data(), cell_idx);
          const MosfetLaneConstsV<V> psC =
              gather_lane_consts<V>(side.pass.data(), cell_idx);
          const V xv = V::load(x + i);
          const MosEvalV<V> pu =
              lane_eval_cv(true, puC, V::load(g_in), xv, V::load(vdd_l));
          const MosEvalV<V> pd = lane_eval_nmos_cached_cv(
              pdC, V::load(c_vp), V::load(c_if), V::load(c_dfs), xv, zero);
          const MosEvalV<V> ps = lane_eval_nmos_cached_cv(
              psC, V::load(p_vp), V::load(p_if), V::load(p_dfs), xv, pass_vs);
          // Same summation order as the single-cell kernel: pu + pd + pass.
          const V fv = pu.id + pd.id + ps.id;
          const V dfv = pu.gds + pd.gds + ps.gds;
          fv.store(f + i);
          dfv.store(df + i);
          double tgm[W], tgds[W];
          (pu.gm + pd.gm).store(tgm);
          dfv.store(tgds);
          for (std::size_t j = 0; j < W && i + j < m_act; ++j) {
            gm_sum_[lanes[i + j]] = tgm[j];
            gds_sum_[lanes[i + j]] = tgds[j];
          }
        }
        return;
      }
      for (std::size_t i = 0; i < m_act; ++i) {
        const std::size_t lane = lanes[i];
        const std::size_t cell = ids[lane];
        const double xv = x[i];
        const MosEval pu = lane_eval(side.pu[cell], v_in[lane], xv, vdd[lane]);
        const MosEval pd =
            lane_eval_nmos_cached(side.pd[cell], pd_cache_[lane], xv, 0.0);
        const MosEval ps = lane_eval_nmos_cached(
            side.pass[cell], side.pass_cache[cell], xv, side.pass_vs);
        f[i] = pu.id + pd.id + ps.id;
        df[i] = pu.gds + pd.gds + ps.gds;
        gm_sum_[lane] = pu.gm + pd.gm;
        gds_sum_[lane] = df[i];
      }
    };

    LaneRootOptions opts;
    opts.x_tolerance = kNodeXTol;
    opts.f_tolerance = kNodeFTol;
    opts.increasing = true;
    solve_bracketed_lanes(residual, m, inv_lo_.data(), inv_hi_.data(), out,
                          opts, &node_ws_);

    if (slope) {
      for (std::size_t i = 0; i < m; ++i)
        slope[i] = gds_sum_[i] != 0.0 ? -gm_sum_[i] / gds_sum_[i] : 0.0;
    }
  }

  // One loop-map evaluation T(x) per lane, same composition as
  // BatchHoldVtc::loop_map but with per-lane cells and supplies. The hold
  // search runs at zero noise; the add is kept so the expression tree
  // matches the solo path exactly.
  void loop_map(StoredBit bit, const std::size_t* ids, const double* vdd,
                const double* x, std::size_t m, double* out, double* slope) {
    map_in_.resize(m);
    map_high_.resize(m);
    map_slope_high_.resize(m);
    map_slope_low_.resize(m);

    for (std::size_t i = 0; i < m; ++i) map_in_[i] = x[i] + 0.0;
    const Side& high_side = (bit == StoredBit::One) ? side_s_ : side_sb_;
    const Side& low_side = (bit == StoredBit::One) ? side_sb_ : side_s_;
    invert(high_side, ids, map_in_.data(), vdd, m, map_high_.data(),
           slope ? map_slope_high_.data() : nullptr);
    for (std::size_t i = 0; i < m; ++i) map_in_[i] = map_high_[i] - 0.0;
    invert(low_side, ids, map_in_.data(), vdd, m, out,
           slope ? map_slope_low_.data() : nullptr);
    if (slope) {
      for (std::size_t i = 0; i < m; ++i)
        slope[i] = map_slope_low_[i] * map_slope_high_[i];
    }
  }

  // Smallest fixed points of the loop map for m lanes of different cells at
  // zero noise, cold-started from 0.0 — the per-lane state machine of
  // BatchHoldVtc::smallest_fixed_points with vdd varying lane to lane.
  // done[i] reports whether the lane completed; lanes still scanning after
  // scan_round_budget rounds are appended to `evicted` with done[i]=false.
  void smallest_fixed_points(StoredBit bit, const std::size_t* ids,
                             const double* vdd, std::size_t m,
                             int scan_round_budget, double* v_low,
                             double* v_high, char* done,
                             std::vector<std::size_t>& evicted) {
    scan_.assign(m, ScanLane{});
    fp_lanes_.clear();
    for (std::size_t i = 0; i < m; ++i) fp_lanes_.push_back(i);

    fp_x_.resize(m);
    fp_t_.resize(m);
    fp_ids_.resize(m);
    fp_vdd_.resize(m);
    int rounds = 0;
    while (!fp_lanes_.empty()) {
      if (rounds++ >= scan_round_budget) {
        // Straggler eviction: whatever is still scanning leaves the batch.
        for (const std::size_t lane : fp_lanes_) evicted.push_back(lane);
        fp_lanes_.clear();
        break;
      }
      const std::size_t k = fp_lanes_.size();
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t lane = fp_lanes_[i];
        fp_x_[i] = scan_[lane].probe;
        fp_ids_[i] = ids[lane];
        fp_vdd_[i] = vdd[lane];
      }
      loop_map(bit, fp_ids_.data(), fp_vdd_.data(), fp_x_.data(), k,
               fp_t_.data(), nullptr);

      std::size_t kept = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t lane = fp_lanes_[i];
        ScanLane& s = scan_[lane];
        const double vdd_cc = vdd[lane];
        const double t = fp_t_[i];
        const double f = t - s.probe;
        if (f <= 0.0) {
          if (s.probe == 0.0) {
            v_low[lane] = s.probe;
            s.phase = ScanLane::Phase::Done;
          } else {
            s.bracket_lo = s.x_prev;
            s.bracket_hi = s.probe;
            s.phase = ScanLane::Phase::Refine;
          }
          continue;
        }
        s.x_prev = s.probe;
        const double bound = t > s.probe ? t : s.probe;
        while (s.grid <= kScanPoints &&
               vdd_cc * s.grid / kScanPoints <= bound)
          ++s.grid;
        if (t >= vdd_cc || s.grid > kScanPoints) {
          v_low[lane] = vdd_cc;
          s.phase = ScanLane::Phase::Done;
          continue;
        }
        s.probe = vdd_cc * s.grid / kScanPoints;
        ++s.grid;
        fp_lanes_[kept++] = lane;
      }
      fp_lanes_.resize(kept);
    }

    // Refinement of the bracketed lanes, exactly the solo residual
    // f(x) = T(x) - x with the analytic derivative. Evicted lanes are no
    // longer in any phase and never reach here.
    fp_lanes_.clear();
    for (std::size_t i = 0; i < m; ++i)
      if (scan_[i].phase == ScanLane::Phase::Refine) fp_lanes_.push_back(i);
    if (!fp_lanes_.empty()) {
      const std::size_t r = fp_lanes_.size();
      fp_x_.resize(r);
      fp_t_.resize(r);
      fp_slope_.resize(r);
      fp_lo_.resize(r);
      fp_hi_.resize(r);
      fp_root_.resize(r);
      for (std::size_t i = 0; i < r; ++i) {
        fp_lo_[i] = scan_[fp_lanes_[i]].bracket_lo;
        fp_hi_[i] = scan_[fp_lanes_[i]].bracket_hi;
      }
      const auto residual = [&](const std::size_t* active, const double* x,
                                double* f, double* df, std::size_t k) {
        fp_ids_.resize(k);
        fp_vdd_.resize(k);
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t lane = fp_lanes_[active[i]];
          fp_ids_[i] = ids[lane];
          fp_vdd_[i] = vdd[lane];
        }
        loop_map(bit, fp_ids_.data(), fp_vdd_.data(), x, k, fp_t_.data(),
                 fp_slope_.data());
        for (std::size_t i = 0; i < k; ++i) {
          f[i] = fp_t_[i] - x[i];
          df[i] = fp_slope_[i] - 1.0;
        }
      };
      LaneRootOptions opts;
      opts.x_tolerance = kMapXTol;
      opts.f_tolerance = kMapFTol;
      opts.increasing = false;
      solve_bracketed_lanes(residual, r, fp_lo_.data(), fp_hi_.data(),
                            fp_root_.data(), opts, &map_ws_);
      for (std::size_t i = 0; i < r; ++i)
        v_low[fp_lanes_[i]] = fp_root_[i];
    }

    // High node at the settled low node for every completed lane, one
    // batched inversion (solo phase 3 at zero noise).
    fp_lanes_.clear();
    for (std::size_t i = 0; i < m; ++i) {
      done[i] = scan_[i].phase != ScanLane::Phase::Scan;
      if (done[i]) fp_lanes_.push_back(i);
    }
    if (!fp_lanes_.empty()) {
      const std::size_t k = fp_lanes_.size();
      fp_x_.resize(k);
      fp_ids_.resize(k);
      fp_vdd_.resize(k);
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t lane = fp_lanes_[i];
        fp_x_[i] = v_low[lane] + 0.0;
        fp_ids_[i] = ids[lane];
        fp_vdd_[i] = vdd[lane];
      }
      fp_t_.resize(k);
      const Side& high_side = (bit == StoredBit::One) ? side_s_ : side_sb_;
      invert(high_side, fp_ids_.data(), fp_x_.data(), fp_vdd_.data(), k,
             fp_t_.data(), nullptr);
      for (std::size_t i = 0; i < k; ++i) v_high[fp_lanes_[i]] = fp_t_[i];
    }
  }

  struct ScanLane {
    int grid = 1;
    double x_prev = 0.0;
    double probe = 0.0;
    double bracket_lo = 0.0, bracket_hi = 0.0;
    enum class Phase { Scan, Refine, Done } phase = Phase::Scan;
  };

  std::size_t n_;
  CoreCell::Bias bias_;
  Side side_s_;
  Side side_sb_;

  // Scratch, reused across probes (see BatchHoldVtc).
  LaneRootWorkspace node_ws_;
  LaneRootWorkspace map_ws_;
  std::vector<NmosSourceCache> pd_cache_;
  std::vector<double> inv_lo_, inv_hi_, gm_sum_, gds_sum_;
  std::vector<double> map_in_, map_high_, map_slope_high_, map_slope_low_;
  std::vector<double> fp_x_, fp_t_, fp_slope_, fp_vdd_, fp_lo_, fp_hi_,
      fp_root_;
  std::vector<std::size_t> fp_lanes_, fp_ids_;
  std::vector<ScanLane> scan_;
  std::vector<double> rt_vlow_, rt_vhigh_;
  std::vector<char> rt_done_;
};

}  // namespace

void drv_hold_cross_batched(const CoreCell* const* cells, std::size_t n,
                            StoredBit bit, double temp_c,
                            const CrossDrvOptions& options, double* drv_out,
                            CrossDrvStats* stats) {
  const DrvOptions& d = options.drv;
  if (n == 0) return;

  CrossHoldVtc engine(cells, n, temp_c, CoreCell::hold_bias());

  // Per-lane monotone_threshold_log state machine, the scalar schedule
  // (util/rootfind.cpp) replicated: probe lo; probe hi; then log-bisect
  // mid = sqrt(lo*hi) while hi/lo > rel_tolerance, returning hi. Lanes at
  // different phases still batch through one retains evaluation per round.
  enum class Phase { Lo, Hi, Bisect, Done, Evicted };
  struct DrvLane {
    Phase phase = Phase::Lo;
    double lo = 0.0, hi = 0.0, probe = 0.0, result = 0.0;
  };
  std::vector<DrvLane> lanes(n);
  for (std::size_t i = 0; i < n; ++i) lanes[i].probe = d.vdd_min;

  std::vector<std::size_t> active, evicted;
  std::vector<double> vdd;
  std::vector<char> held;
  for (;;) {
    active.clear();
    vdd.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (lanes[i].phase == Phase::Lo || lanes[i].phase == Phase::Hi ||
          lanes[i].phase == Phase::Bisect) {
        active.push_back(i);
        vdd.push_back(lanes[i].probe);
      }
    }
    if (active.empty()) break;

    const std::size_t m = active.size();
    held.assign(m, 0);
    evicted.clear();
    engine.retains(bit, active.data(), vdd.data(), m,
                   options.scan_round_budget, held.data(), evicted);
    // Mark evictions first so their (untouched) held flags are never read.
    for (const std::size_t pos : evicted) {
      lanes[active[pos]].phase = Phase::Evicted;
    }
    for (std::size_t i = 0; i < m; ++i) {
      DrvLane& L = lanes[active[i]];
      if (L.phase == Phase::Evicted) continue;
      const bool h = held[i] != 0;
      switch (L.phase) {
        case Phase::Lo:
          if (h) {
            L.result = d.vdd_min;
            L.phase = Phase::Done;
          } else {
            L.phase = Phase::Hi;
            L.probe = d.vdd_max;
          }
          break;
        case Phase::Hi:
          if (!h) {
            L.result = d.vdd_max * 2.0;
            L.phase = Phase::Done;
          } else {
            L.lo = d.vdd_min;
            L.hi = d.vdd_max;
            if (L.hi / L.lo > d.rel_tolerance) {
              L.probe = std::sqrt(L.lo * L.hi);
              L.phase = Phase::Bisect;
            } else {
              L.result = L.hi;
              L.phase = Phase::Done;
            }
          }
          break;
        case Phase::Bisect:
          if (h) {
            L.hi = L.probe;
          } else {
            L.lo = L.probe;
          }
          if (L.hi / L.lo > d.rel_tolerance) {
            L.probe = std::sqrt(L.lo * L.hi);
          } else {
            L.result = L.hi;
            L.phase = Phase::Done;
          }
          break;
        default:
          break;
      }
    }
  }

  // Evicted stragglers re-solve solo — identical result by construction
  // (the solo engine runs the same per-lane schedule this batch would
  // have), so eviction only costs time, never changes a DRV.
  std::size_t n_evicted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lanes[i].phase == Phase::Evicted) {
      drv_out[i] = drv_hold_batched(*cells[i], bit, temp_c, d);
      ++n_evicted;
    } else {
      drv_out[i] = lanes[i].result;
    }
  }
  if (stats) stats->evicted += n_evicted;
}

void drv_ds_cross_batched(const CoreCell* const* cells, std::size_t n,
                          double temp_c, const CrossDrvOptions& options,
                          DrvResult* out, CrossDrvStats* stats) {
  if (n == 0) return;
  std::vector<double> drv1(n), drv0(n);
  drv_hold_cross_batched(cells, n, StoredBit::One, temp_c, options,
                         drv1.data(), stats);
  drv_hold_cross_batched(cells, n, StoredBit::Zero, temp_c, options,
                         drv0.data(), stats);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].drv1 = drv1[i];
    out[i].drv0 = drv0[i];
  }
}

}  // namespace lpsram
