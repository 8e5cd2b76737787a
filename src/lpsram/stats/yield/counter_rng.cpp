#include "lpsram/stats/yield/counter_rng.hpp"

#include <algorithm>
#include <cmath>

#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram {
namespace {

// counter_u64 split at the lane: the (seed, trial, cell) prefix, then the
// lane fold and the final mix.
std::uint64_t counter_prefix(std::uint64_t seed, std::uint64_t trial,
                             std::uint64_t cell) noexcept {
  return fold_key(fold_key(mix64(seed ^ 0x9e3779b97f4a7c15ULL), trial), cell);
}

std::uint64_t counter_lane(std::uint64_t prefix, std::uint64_t lane) noexcept {
  return mix64(fold_key(prefix, lane));
}

double uniform_of(std::uint64_t u64) noexcept {
  // Top 53 bits, centered on the half-integer grid: (k + 0.5) * 2^-53. For
  // k = 2^53 - 1 the sum rounds up to 2^53, i.e. p = 1; the clamp maps that
  // one draw to the largest double below 1 and leaves every other draw's
  // bits unchanged.
  const std::uint64_t bits = u64 >> 11;
  return std::min((static_cast<double>(bits) + 0.5) * 0x1p-53,
                  0x1.fffffffffffffp-1);
}

}  // namespace

std::uint64_t counter_u64(std::uint64_t seed, std::uint64_t trial,
                          std::uint64_t cell, std::uint64_t lane) noexcept {
  return counter_lane(counter_prefix(seed, trial, cell), lane);
}

double counter_uniform(std::uint64_t seed, std::uint64_t trial,
                       std::uint64_t cell, std::uint64_t lane) noexcept {
  return uniform_of(counter_u64(seed, trial, cell, lane));
}

double normal_cdf(double x) noexcept {
  return 0.5 * std::erfc(-x * M_SQRT1_2);
}

double normal_quantile_acklam(double p) noexcept {
  // Acklam's rational approximation (relative error < kAcklamRelError).
  static constexpr double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                  -2.759285104469687e+02, 1.383577518672690e+02,
                                  -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                  -1.556989798598866e+02, 6.680131188771972e+01,
                                  -1.328068155288572e+01};
  static constexpr double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                  -2.400758277161838e+00, -2.549732539343734e+00,
                                  4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                                  2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;

  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double normal_quantile_polish(double x, double p) noexcept {
  // One Halley step against the exact CDF pushes the approximation to full
  // double precision: e = Phi(x) - p, u = e / phi(x).
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  return x - u / (1.0 + 0.5 * x * u);
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0))
    throw InvalidArgument("normal_quantile: p must be in (0,1)");
  return normal_quantile_polish(normal_quantile_acklam(p), p);
}

double counter_normal(std::uint64_t seed, std::uint64_t trial,
                      std::uint64_t cell, std::uint64_t lane) noexcept {
  return normal_quantile(counter_uniform(seed, trial, cell, lane));
}

CellDraws draw_cell(std::uint64_t seed, std::uint64_t trial,
                    std::uint64_t cell) noexcept {
  CellDraws draws;
  const std::uint64_t prefix = counter_prefix(seed, trial, cell);
  for (std::size_t lane = 0; lane < draws.p.size(); ++lane) {
    draws.p[lane] = uniform_of(counter_lane(prefix, lane));
    draws.x[lane] = normal_quantile_acklam(draws.p[lane]);
  }
  return draws;
}

CellVariation CellDraws::polished() const noexcept {
  CellVariation v;
  for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane)
    v.set(kAllCellTransistors[lane], normal_quantile_polish(x[lane], p[lane]));
  return v;
}

CellVariation sample_cell_variation(std::uint64_t seed, std::uint64_t trial,
                                    std::uint64_t cell) noexcept {
  return draw_cell(seed, trial, cell).polished();
}

}  // namespace lpsram
