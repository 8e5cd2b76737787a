#include "lpsram/cell/snm.hpp"

#include <cmath>

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/cell/vtc.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/rootfind.hpp"

namespace lpsram {
namespace {

// Loop map for the stored state: given the low node's voltage x, drive the
// high node through its inverter (input raised by the noise d), then drive
// the low node back through the other inverter (input lowered by d).
// Composing two decreasing VTCs gives a monotone increasing map; its smallest
// fixed point is the state the cell settles into from the stored pattern.
struct LoopMap {
  const HoldVtc& vtc;
  StoredBit bit;
  double vdd_cc;
  double temp_c;
  double noise;

  // Voltage of the high node given the low node's voltage.
  double high_of_low(double v_low) const {
    return bit == StoredBit::One
               ? vtc.inverter_s(v_low + noise, vdd_cc, temp_c)
               : vtc.inverter_sb(v_low + noise, vdd_cc, temp_c);
  }
  // One loop iteration: next low-node voltage.
  double operator()(double v_low) const {
    const double v_high = high_of_low(v_low);
    return bit == StoredBit::One
               ? vtc.inverter_sb(v_high - noise, vdd_cc, temp_c)
               : vtc.inverter_s(v_high - noise, vdd_cc, temp_c);
  }
};

// Smallest fixed point of the monotone loop map on [0, vdd_cc], found by a
// coarse scan for the first sign change of f(x) = map(x) - x followed by
// Brent refinement.
double smallest_fixed_point(const LoopMap& map, double vdd_cc) {
  constexpr int kScanPoints = 48;
  double x_prev = 0.0;
  double f_prev = map(x_prev) - x_prev;
  if (f_prev <= 0.0) return x_prev;  // already at/below a fixed point

  for (int i = 1; i <= kScanPoints; ++i) {
    const double x = vdd_cc * i / kScanPoints;
    const double f = map(x) - x;
    if (f <= 0.0) {
      RootFindOptions opts;
      opts.x_tolerance = 1e-7;
      return brent([&](double xx) { return map(xx) - xx; }, x_prev, x, opts).x;
    }
    x_prev = x;
    f_prev = f;
  }
  // No crossing found: the map saturates near vdd (fully flipped state).
  return vdd_cc;
}

// True if the cell, started in `bit`, settles with the high node above the
// low node by the hold margin under adverse noise d.
bool retains(const CoreCell& cell, StoredBit bit, double vdd_cc, double temp_c,
             double noise) {
  const HoldVtc vtc(cell);
  const LoopMap map{vtc, bit, vdd_cc, temp_c, noise};
  const double v_low = smallest_fixed_point(map, vdd_cc);
  const double v_high = map.high_of_low(v_low);
  return (v_high - v_low) > kHoldMarginFraction * vdd_cc;
}

}  // namespace

HoldState hold_equilibrium(const CoreCell& cell, StoredBit bit, double vdd_cc,
                           double temp_c, double noise) {
  if (kernel_config().cell == Kernel::Production)
    return hold_equilibrium_batched(cell, bit, vdd_cc, temp_c, noise);
  const HoldVtc vtc(cell);
  const LoopMap map{vtc, bit, vdd_cc, temp_c, noise};
  const double v_low = smallest_fixed_point(map, vdd_cc);
  const double v_high = map.high_of_low(v_low);

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

bool holds_state(const CoreCell& cell, StoredBit bit, double vdd_cc,
                 double temp_c) {
  if (kernel_config().cell == Kernel::Production)
    return holds_state_batched(cell, bit, vdd_cc, temp_c);
  return retains(cell, bit, vdd_cc, temp_c, /*noise=*/0.0);
}

double hold_snm(const CoreCell& cell, StoredBit bit, double vdd_cc,
                double temp_c) {
  if (kernel_config().cell == Kernel::Production)
    return hold_snm_batched(cell, bit, vdd_cc, temp_c);
  if (!retains(cell, bit, vdd_cc, temp_c, 0.0)) return 0.0;
  // SNM is the largest adverse noise the cell survives; bisect on d.
  double lo = 0.0;          // retains
  double hi = vdd_cc;       // cannot retain with full-rail noise
  if (retains(cell, bit, vdd_cc, temp_c, hi)) return vdd_cc;
  constexpr double kResolution = 1e-4;  // 0.1 mV
  while (hi - lo > kResolution) {
    const double mid = 0.5 * (lo + hi);
    if (retains(cell, bit, vdd_cc, temp_c, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

SnmPair hold_snm_pair(const CoreCell& cell, double vdd_cc, double temp_c) {
  return {hold_snm(cell, StoredBit::One, vdd_cc, temp_c),
          hold_snm(cell, StoredBit::Zero, vdd_cc, temp_c)};
}

}  // namespace lpsram
