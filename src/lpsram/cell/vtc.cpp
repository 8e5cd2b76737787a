#include "lpsram/cell/vtc.hpp"

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/rootfind.hpp"

namespace lpsram {
namespace {

// The node-current residual is strictly increasing in the node voltage
// (pull-up current falls, pull-down and pass leakage rise), so Brent on a
// bracket slightly wider than the rails always succeeds.
double solve_node(const std::function<double(double)>& residual,
                  double vdd_cc) {
  RootFindOptions opts;
  opts.x_tolerance = 1e-9;
  opts.f_tolerance = 1e-18;
  const double lo = -0.05;
  const double hi = vdd_cc + 0.05;
  return brent(residual, lo, hi, opts).x;
}

// Shared implementation of curve_s/curve_sb: under the batched kernel all
// sample points solve in one lockstep call; under the scalar oracle each
// point is an independent Brent, exactly as before.
std::vector<std::pair<double, double>> sample_curve(
    const CoreCell& cell, bool side_s, double vdd_cc, double temp_c,
    int points) {
  std::vector<std::pair<double, double>> curve;
  curve.reserve(static_cast<std::size_t>(points));
  if (kernel_config().cell == Kernel::Production) {
    const std::size_t n = static_cast<std::size_t>(points);
    std::vector<double> in(n), out(n);
    for (int i = 0; i < points; ++i)
      in[static_cast<std::size_t>(i)] = vdd_cc * i / (points - 1);
    BatchHoldVtc engine(cell, temp_c);
    if (side_s) {
      engine.inverter_s(in.data(), n, vdd_cc, out.data());
    } else {
      engine.inverter_sb(in.data(), n, vdd_cc, out.data());
    }
    for (std::size_t i = 0; i < n; ++i) curve.emplace_back(in[i], out[i]);
    return curve;
  }
  const HoldVtc vtc(cell);
  for (int i = 0; i < points; ++i) {
    const double x = vdd_cc * i / (points - 1);
    curve.emplace_back(x, side_s ? vtc.inverter_s(x, vdd_cc, temp_c)
                                 : vtc.inverter_sb(x, vdd_cc, temp_c));
  }
  return curve;
}

}  // namespace

double HoldVtc::inverter_s(double v_sb, double vdd_cc, double temp_c) const {
  return solve_node(
      [&](double v_s) {
        return cell_->hold_residual_s(v_s, v_sb, vdd_cc, temp_c);
      },
      vdd_cc);
}

double HoldVtc::inverter_sb(double v_s, double vdd_cc, double temp_c) const {
  return solve_node(
      [&](double v_sb) {
        return cell_->hold_residual_sb(v_sb, v_s, vdd_cc, temp_c);
      },
      vdd_cc);
}

std::vector<std::pair<double, double>> HoldVtc::curve_s(double vdd_cc,
                                                        double temp_c,
                                                        int points) const {
  return sample_curve(*cell_, /*side_s=*/true, vdd_cc, temp_c, points);
}

std::vector<std::pair<double, double>> HoldVtc::curve_sb(double vdd_cc,
                                                         double temp_c,
                                                         int points) const {
  return sample_curve(*cell_, /*side_s=*/false, vdd_cc, temp_c, points);
}

}  // namespace lpsram
