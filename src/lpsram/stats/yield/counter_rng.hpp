// Counter-based (stateless) random sampling for the yield engine.
//
// The Monte-Carlo loops in stats/array_stats.cpp originally pulled a
// sequential mt19937_64 stream, which welds the sampled variation field to
// one traversal order: a parallel executor, a resumed campaign, or a fabric
// fleet that visits cells in any other order would silently sample a
// different array. Here every random draw is instead a *pure function* of
// its coordinates,
//
//     u64  = g(seed, trial, cell, lane)
//
// built from the runtime's standard splitmix64 finalizer chain (mix64 /
// fold_key, runtime/parallel.hpp). Lanes 0..5 are the six core-cell
// transistors in kAllCellTransistors order; higher lanes are free for
// auxiliary draws (the importance sampler burns lane 6 on its mixture
// component pick). Gaussians come from a single uniform through the inverse
// normal CDF — no rejection, no paired Box-Muller state — so any subset of
// cells can be sampled in any order, on any worker, and the field is
// bit-identical to a serial sweep. That property is what makes the yield
// engine's thread-count/resume/fabric determinism contracts possible at all.
#pragma once

#include <array>
#include <cstdint>

#include "lpsram/cell/core_cell.hpp"

namespace lpsram {

// Raw 64-bit counter draw: splitmix-mixed fold of (seed, trial, cell, lane).
std::uint64_t counter_u64(std::uint64_t seed, std::uint64_t trial,
                          std::uint64_t cell, std::uint64_t lane) noexcept;

// Uniform draw strictly inside (0, 1): p >= 2^-54 and 1 - p >= 2^-53, so the
// inverse-CDF transform below is always finite.
double counter_uniform(std::uint64_t seed, std::uint64_t trial,
                       std::uint64_t cell, std::uint64_t lane) noexcept;

// Standard normal CDF, Phi(x) = erfc(-x / sqrt(2)) / 2.
double normal_cdf(double x) noexcept;

// Inverse standard normal CDF on (0, 1): Acklam's rational approximation
// polished with one Halley step against the exact erfc-based CDF (~1 ulp).
// Throws InvalidArgument outside (0, 1).
double normal_quantile(double p);

// normal_quantile in its two stages, for callers that can act on the
// approximation alone: Acklam's rational approximation (p must lie in
// (0, 1) and is not checked), and the Halley step that normal_quantile
// applies to it. normal_quantile(p) equals
// normal_quantile_polish(normal_quantile_acklam(p), p) bit for bit.
double normal_quantile_acklam(double p) noexcept;
double normal_quantile_polish(double x, double p) noexcept;

// Acklam's documented bound on the relative error of the approximation:
// |normal_quantile_acklam(p) - Phi^-1(p)| < kAcklamRelError * |Phi^-1(p)|.
inline constexpr double kAcklamRelError = 1.15e-9;
// Bound on |Phi^-1(p)| over every p that counter_uniform returns
// (Phi^-1(2^-54) = -8.2924, Phi^-1(1 - 2^-53) = 8.2095).
inline constexpr double kMaxAbsNormal = 8.3;

// N(0, 1) draw at the given counter coordinates.
double counter_normal(std::uint64_t seed, std::uint64_t trial,
                      std::uint64_t cell, std::uint64_t lane) noexcept;

// One cell's six uniforms and their unpolished (Acklam) normals, lanes in
// kAllCellTransistors order. The (seed, trial, cell) prefix of counter_u64
// is folded once for all six lanes. polished() finishes the draws into
// exactly the field sample_cell_variation returns.
struct CellDraws {
  std::array<double, 6> p{};  // counter_uniform of each lane
  std::array<double, 6> x{};  // normal_quantile_acklam(p)

  CellVariation polished() const noexcept;
};

CellDraws draw_cell(std::uint64_t seed, std::uint64_t trial,
                    std::uint64_t cell) noexcept;

// The six-transistor variation field of one cell, lanes 0..5 in
// kAllCellTransistors order (sigma units, i.i.d. N(0, 1)).
CellVariation sample_cell_variation(std::uint64_t seed, std::uint64_t trial,
                                    std::uint64_t cell) noexcept;

}  // namespace lpsram
