// Lane-parallel EKV evaluation: per-(device, temperature) constants hoisted
// once per batch, then a tight per-lane loop over contiguous arrays with no
// std::function and no per-call parameter lookups.
//
// Contract: every arithmetic expression here replicates Mosfet::eval /
// Mosfet::eval_core (mosfet.cpp) term for term — same operations, same
// association order, same shared softplus/sigmoid pair — so a lane result is
// bit-identical to the scalar call with the same operands. The batched cell
// kernel (cell/batch_vtc) builds on that identity to keep the scalar path a
// usable equivalence oracle; tests/test_cell_lanes.cpp pins it to ≤ 1 ulp
// (observed: exactly equal).
#pragma once

#include "lpsram/device/mosfet.hpp"
#include "lpsram/device/mosfet_math.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {

// Everything Mosfet::eval_core recomputes per call that only depends on the
// device and the temperature. two_vt/inv2vt/inv2vt_over_n are stored exactly
// as the scalar expressions compute them (2.0*vt, 1.0/(2.0*vt), inv2vt/n) so
// downstream divisions/multiplications round identically.
struct MosfetLaneConsts {
  bool pmos = false;
  double vth = 0.0;            // vth_effective(temp_c)
  double n = 1.0;              // subthreshold slope factor
  double two_vt = 0.0;         // 2.0 * thermal_voltage(temp_c)
  double inv2vt = 0.0;         // 1.0 / (2.0 * vt)
  double inv2vt_over_n = 0.0;  // inv2vt / n
  double i0 = 0.0;             // 2.0 * n * beta(temp_c) * vt * vt
  double lambda = 0.0;         // channel-length modulation
};

// Hoists the per-batch constants for one device at one temperature.
MosfetLaneConsts mosfet_lane_consts(const Mosfet& fet, double temp_c) noexcept;

// NMOS-convention core evaluation from hoisted constants; the expression
// tree of Mosfet::eval_core with (vt, vth, n, i0, inv2vt) precomputed.
inline MosEval lane_eval_core(const MosfetLaneConsts& c, double vg, double vd,
                              double vs) noexcept {
  using mosfet_math::SoftplusEval;
  const double vp = (vg - c.vth) / c.n;
  const double us = (vp - vs) / c.two_vt;
  const double ud = (vp - vd) / c.two_vt;

  const SoftplusEval ss = mosfet_math::softplus_eval(us);
  const SoftplusEval sd = mosfet_math::softplus_eval(ud);
  const double i_forward = ss.f * ss.f;
  const double i_reverse = sd.f * sd.f;

  const double vds = vd - vs;
  const double clm = 1.0 + c.lambda * mosfet_math::smooth_abs(vds);
  const double core = c.i0 * (i_forward - i_reverse);

  const double dfs = 2.0 * ss.f * ss.d;
  const double dfd = 2.0 * sd.f * sd.d;

  MosEval e;
  e.id = core * clm;
  e.gm = c.i0 * (dfs - dfd) * c.inv2vt_over_n * clm;
  e.gds = c.i0 * dfd * c.inv2vt * clm +
          core * c.lambda * mosfet_math::smooth_abs_d(vds);
  e.gms = -c.i0 * dfs * c.inv2vt * clm -
          core * c.lambda * mosfet_math::smooth_abs_d(vds);
  return e;
}

// Full evaluation from hoisted constants, including the mirrored-terminal
// PMOS branch of Mosfet::eval (well reference = smooth max of drain/source).
inline MosEval lane_eval(const MosfetLaneConsts& c, double vg, double vd,
                         double vs) noexcept {
  if (c.pmos) {
    const double ref = 0.5 * (vd + vs + mosfet_math::smooth_abs(vd - vs));
    const double rd = 0.5 * (1.0 + mosfet_math::smooth_abs_d(vd - vs));
    const double rs = 0.5 * (1.0 - mosfet_math::smooth_abs_d(vd - vs));

    const MosEval n = lane_eval_core(c, ref - vg, ref - vd, ref - vs);
    MosEval e;
    e.id = -n.id;
    e.gm = n.gm;
    e.gds = -(n.gm * rd + n.gds * (rd - 1.0) + n.gms * rd);
    e.gms = -(n.gm * rs + n.gds * rs + n.gms * (rs - 1.0));
    return e;
  }
  return lane_eval_core(c, vg, vd, vs);
}

// Source-side softplus terms of an NMOS whose gate and source are fixed
// while its drain sweeps — the common shape of every cell node solve (the
// solved node is the drain of all three attached devices). Caching these
// halves the exponentials per Newton probe: only the drain-side softplus
// varies.
struct NmosSourceCache {
  double vp = 0.0;         // (vg - vth) / n
  double i_forward = 0.0;  // softplus(us)^2
  double dfs = 0.0;        // 2 * softplus(us) * sigmoid(us)
};

inline NmosSourceCache nmos_source_cache(const MosfetLaneConsts& c, double vg,
                                         double vs) noexcept {
  NmosSourceCache cache;
  cache.vp = (vg - c.vth) / c.n;
  const double us = (cache.vp - vs) / c.two_vt;
  const mosfet_math::SoftplusEval ss = mosfet_math::softplus_eval(us);
  cache.i_forward = ss.f * ss.f;
  cache.dfs = 2.0 * ss.f * ss.d;
  return cache;
}

// Drain-swept NMOS evaluation from a source cache: bit-identical to
// lane_eval_core(c, vg, vd, vs) given cache = nmos_source_cache(c, vg, vs),
// at one exponential instead of two.
inline MosEval lane_eval_nmos_cached(const MosfetLaneConsts& c,
                                     const NmosSourceCache& cache, double vd,
                                     double vs) noexcept {
  const double ud = (cache.vp - vd) / c.two_vt;
  const mosfet_math::SoftplusEval sd = mosfet_math::softplus_eval(ud);
  const double i_reverse = sd.f * sd.f;

  const double vds = vd - vs;
  const double clm = 1.0 + c.lambda * mosfet_math::smooth_abs(vds);
  const double core = c.i0 * (cache.i_forward - i_reverse);
  const double dfd = 2.0 * sd.f * sd.d;

  MosEval e;
  e.id = core * clm;
  e.gm = c.i0 * (cache.dfs - dfd) * c.inv2vt_over_n * clm;
  e.gds = c.i0 * dfd * c.inv2vt * clm +
          core * c.lambda * mosfet_math::smooth_abs_d(vds);
  e.gms = -c.i0 * cache.dfs * c.inv2vt * clm -
          core * c.lambda * mosfet_math::smooth_abs_d(vds);
  return e;
}

// ---------------------------------------------------------------------------
// Vectorized variants: W lanes per instruction on top of util/simd.hpp.
//
// These mirror the scalar expression trees above term for term, but the
// transcendental pair comes from simd::vexp / simd::vlog1p instead of libm,
// so results agree with the scalar lanes only to the documented ulp level
// (tests/test_cell_lanes.cpp pins the tolerance). Kernels consult
// KernelConfig::simd to choose between the scalar-oracle loop and these.

template <class V>
struct MosEvalV {
  V id, gm, gds, gms;
};

// Per-lane device constants as vector operands: the cross-cell DRV batch
// (cell/batch_vtc drv_hold_cross_batched) marches *different cells* through
// one lane block, so vth/n/i0/... vary lane to lane instead of being one
// broadcast scalar. The pmos flag stays a per-call scalar — a lane block
// always evaluates one device *role* (all pull-ups, or all pull-downs), so
// polarity is uniform even when the devices themselves differ.
template <class V>
struct MosfetLaneConstsV {
  V vth, n, two_vt, inv2vt, inv2vt_over_n, i0, lambda;
};

// Broadcast one device's constants across every lane (the single-cell path).
template <class V>
inline MosfetLaneConstsV<V> broadcast_lane_consts(
    const MosfetLaneConsts& c) noexcept {
  return {V::broadcast(c.vth),          V::broadcast(c.n),
          V::broadcast(c.two_vt),       V::broadcast(c.inv2vt),
          V::broadcast(c.inv2vt_over_n), V::broadcast(c.i0),
          V::broadcast(c.lambda)};
}

// Gather per-lane constants for a block: consts[idx[j]] fills lane j of each
// field, j in [0, V::kWidth).
template <class V>
inline MosfetLaneConstsV<V> gather_lane_consts(const MosfetLaneConsts* consts,
                                               const std::size_t* idx) noexcept {
  constexpr std::size_t W = V::kWidth;
  double vth[W], n[W], two_vt[W], inv2vt[W], inv2vt_over_n[W], i0[W],
      lambda[W];
  for (std::size_t j = 0; j < W; ++j) {
    const MosfetLaneConsts& c = consts[idx[j]];
    vth[j] = c.vth;
    n[j] = c.n;
    two_vt[j] = c.two_vt;
    inv2vt[j] = c.inv2vt;
    inv2vt_over_n[j] = c.inv2vt_over_n;
    i0[j] = c.i0;
    lambda[j] = c.lambda;
  }
  return {V::load(vth),          V::load(n),  V::load(two_vt),
          V::load(inv2vt),       V::load(inv2vt_over_n),
          V::load(i0),           V::load(lambda)};
}

template <class V>
inline MosEvalV<V> lane_eval_core_cv(const MosfetLaneConstsV<V>& c, V vg, V vd,
                                     V vs) noexcept {
  const V vp = (vg - c.vth) / c.n;
  const V us = (vp - vs) / c.two_vt;
  const V ud = (vp - vd) / c.two_vt;

  const simd::SoftplusEvalV<V> ss = simd::softplus_eval_v(us);
  const simd::SoftplusEvalV<V> sd = simd::softplus_eval_v(ud);
  const V i_forward = ss.f * ss.f;
  const V i_reverse = sd.f * sd.f;

  const V vds = vd - vs;
  const V clm = V::broadcast(1.0) + c.lambda * simd::smooth_abs_v(vds);
  const V core = c.i0 * (i_forward - i_reverse);

  const V two = V::broadcast(2.0);
  const V dfs = two * ss.f * ss.d;
  const V dfd = two * sd.f * sd.d;
  const V sad = simd::smooth_abs_d_v(vds);

  MosEvalV<V> e;
  e.id = core * clm;
  e.gm = c.i0 * (dfs - dfd) * c.inv2vt_over_n * clm;
  e.gds = c.i0 * dfd * c.inv2vt * clm + core * c.lambda * sad;
  e.gms = V::zero() - c.i0 * dfs * c.inv2vt * clm - core * c.lambda * sad;
  return e;
}

template <class V>
inline MosEvalV<V> lane_eval_cv(bool pmos, const MosfetLaneConstsV<V>& c, V vg,
                                V vd, V vs) noexcept {
  if (pmos) {
    const V half = V::broadcast(0.5);
    const V one = V::broadcast(1.0);
    const V diff = vd - vs;
    const V sad = simd::smooth_abs_d_v(diff);
    const V ref = half * (vd + vs + simd::smooth_abs_v(diff));
    const V rd = half * (one + sad);
    const V rs = half * (one - sad);

    const MosEvalV<V> n = lane_eval_core_cv(c, ref - vg, ref - vd, ref - vs);
    MosEvalV<V> e;
    e.id = V::zero() - n.id;
    e.gm = n.gm;
    e.gds = V::zero() - (n.gm * rd + n.gds * (rd - one) + n.gms * rd);
    e.gms = V::zero() - (n.gm * rs + n.gds * rs + n.gms * (rs - one));
    return e;
  }
  return lane_eval_core_cv(c, vg, vd, vs);
}

// Drain-swept cached NMOS evaluation over lanes with per-lane constants; the
// cache fields are vector operands so callers can either broadcast one
// shared NmosSourceCache or gather per-lane caches.
template <class V>
inline MosEvalV<V> lane_eval_nmos_cached_cv(const MosfetLaneConstsV<V>& c,
                                            V vp, V i_forward, V dfs, V vd,
                                            V vs) noexcept {
  const V ud = (vp - vd) / c.two_vt;
  const simd::SoftplusEvalV<V> sd = simd::softplus_eval_v(ud);
  const V i_reverse = sd.f * sd.f;

  const V vds = vd - vs;
  const V clm = V::broadcast(1.0) + c.lambda * simd::smooth_abs_v(vds);
  const V core = c.i0 * (i_forward - i_reverse);
  const V dfd = V::broadcast(2.0) * sd.f * sd.d;
  const V sad = simd::smooth_abs_d_v(vds);

  MosEvalV<V> e;
  e.id = core * clm;
  e.gm = c.i0 * (dfs - dfd) * c.inv2vt_over_n * clm;
  e.gds = c.i0 * dfd * c.inv2vt * clm + core * c.lambda * sad;
  e.gms = V::zero() - c.i0 * dfs * c.inv2vt * clm - core * c.lambda * sad;
  return e;
}

// Broadcast-constant wrappers (one device, many operating points): the
// single-cell inversion kernels call these; lanewise they compute exactly
// the per-lane-constant trees above with every constant replicated.
template <class V>
inline MosEvalV<V> lane_eval_core_v(const MosfetLaneConsts& c, V vg, V vd,
                                    V vs) noexcept {
  return lane_eval_core_cv(broadcast_lane_consts<V>(c), vg, vd, vs);
}

template <class V>
inline MosEvalV<V> lane_eval_v(const MosfetLaneConsts& c, V vg, V vd,
                               V vs) noexcept {
  return lane_eval_cv(c.pmos, broadcast_lane_consts<V>(c), vg, vd, vs);
}

template <class V>
inline MosEvalV<V> lane_eval_nmos_cached_v(const MosfetLaneConsts& c, V vp,
                                           V i_forward, V dfs, V vd,
                                           V vs) noexcept {
  return lane_eval_nmos_cached_cv(broadcast_lane_consts<V>(c), vp, i_forward,
                                  dfs, vd, vs);
}

}  // namespace lpsram
