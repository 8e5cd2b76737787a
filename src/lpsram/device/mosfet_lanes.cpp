#include "lpsram/device/mosfet_lanes.hpp"

#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/units.hpp"

namespace lpsram {

MosfetLaneConsts mosfet_lane_consts(const Mosfet& fet, double temp_c) noexcept {
  const double vt = thermal_voltage(temp_c);
  MosfetLaneConsts c;
  c.pmos = fet.params().type == MosType::Pmos;
  c.vth = fet.vth_effective(temp_c);
  c.n = fet.params().n_slope;
  // Stored exactly as eval_core spells them so every downstream division and
  // multiplication rounds identically to the scalar path.
  c.two_vt = 2.0 * vt;
  c.inv2vt = 1.0 / (2.0 * vt);
  c.inv2vt_over_n = c.inv2vt / c.n;
  c.i0 = 2.0 * c.n * fet.beta(temp_c) * vt * vt;
  c.lambda = fet.params().lambda;
  return c;
}

void Mosfet::eval_lanes(const double* vg, const double* vd, const double* vs,
                        std::size_t n, double temp_c, double* id, double* gm,
                        double* gds, double* gms) const noexcept {
  const MosfetLaneConsts c = mosfet_lane_consts(*this, temp_c);
  if (kernel_config().simd == Kernel::Production) {
    using V = simd::Vec;
    constexpr std::size_t W = simd::kNativeWidth;
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      const MosEvalV<V> e =
          lane_eval_v(c, V::load(vg + i), V::load(vd + i), V::load(vs + i));
      if (id) e.id.store(id + i);
      if (gm) e.gm.store(gm + i);
      if (gds) e.gds.store(gds + i);
      if (gms) e.gms.store(gms + i);
    }
    if (i < n) {
      // Remainder block: pad with the last lane so every lane — regardless
      // of its position relative to the vector width — goes through the
      // identical vectorized expression tree.
      const std::size_t r = n - i;
      double bg[W], bd[W], bs[W];
      for (std::size_t j = 0; j < W; ++j) {
        const std::size_t k = i + (j < r ? j : r - 1);
        bg[j] = vg[k];
        bd[j] = vd[k];
        bs[j] = vs[k];
      }
      const MosEvalV<V> e =
          lane_eval_v(c, V::load(bg), V::load(bd), V::load(bs));
      double tid[W], tgm[W], tgds[W], tgms[W];
      e.id.store(tid);
      e.gm.store(tgm);
      e.gds.store(tgds);
      e.gms.store(tgms);
      for (std::size_t j = 0; j < r; ++j) {
        if (id) id[i + j] = tid[j];
        if (gm) gm[i + j] = tgm[j];
        if (gds) gds[i + j] = tgds[j];
        if (gms) gms[i + j] = tgms[j];
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const MosEval e = lane_eval(c, vg[i], vd[i], vs[i]);
    if (id) id[i] = e.id;
    if (gm) gm[i] = e.gm;
    if (gds) gds[i] = e.gds;
    if (gms) gms[i] = e.gms;
  }
}

}  // namespace lpsram
