#include "lpsram/cell/drv.hpp"

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/cell/snm.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/rootfind.hpp"

namespace lpsram {

double drv_hold(const CoreCell& cell, StoredBit bit, double temp_c,
                const DrvOptions& options) {
  // Batched kernel: one lane engine shared across every vdd probe, same
  // probe schedule — thresholds match the scalar kernel except when a probe
  // lands in the fold's solver-noise band (see drv_hold_batched).
  if (kernel_config().cell == Kernel::Production)
    return drv_hold_batched(cell, bit, temp_c, options);
  const double threshold = monotone_threshold_log(
      [&](double vdd_cc) { return holds_state(cell, bit, vdd_cc, temp_c); },
      options.vdd_min, options.vdd_max, options.rel_tolerance);
  // monotone_threshold_log returns 2*hi when never retaining, which matches
  // the drv_unretainable sentinel.
  return threshold;
}

DrvResult drv_ds(const CoreCell& cell, double temp_c,
                 const DrvOptions& options) {
  return {drv_hold(cell, StoredBit::One, temp_c, options),
          drv_hold(cell, StoredBit::Zero, temp_c, options)};
}

PvtDrvResult drv_ds_worst(const Technology& tech,
                          const CellVariation& variation,
                          std::span<const Corner> corners,
                          std::span<const double> temps,
                          const DrvOptions& options) {
  PvtDrvResult worst;
  worst.drv = {0.0, 0.0};
  for (const Corner corner : corners) {
    const CoreCell cell(tech, variation, corner);
    for (const double temp_c : temps) {
      const DrvResult r = drv_ds(cell, temp_c, options);
      if (r.drv1 > worst.drv.drv1) {
        worst.drv.drv1 = r.drv1;
        worst.corner1 = corner;
        worst.temp1 = temp_c;
      }
      if (r.drv0 > worst.drv.drv0) {
        worst.drv.drv0 = r.drv0;
        worst.corner0 = corner;
        worst.temp0 = temp_c;
      }
    }
  }
  return worst;
}

PvtDrvResult drv_ds_worst(const Technology& tech,
                          const CellVariation& variation,
                          const DrvOptions& options) {
  return drv_ds_worst(tech, variation, kAllCorners, tech.temperatures(),
                      options);
}

}  // namespace lpsram
