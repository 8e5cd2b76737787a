#include "lpsram/stats/drv_surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/matrix.hpp"

namespace lpsram {
namespace {

std::array<double, 6> to_array(const CellVariation& v) {
  return {v.mpcc1, v.mncc1, v.mpcc2, v.mncc2, v.mncc3, v.mncc4};
}

// Pool-adjacent-violators: least-squares monotone (non-decreasing) fit of
// y over pre-sorted x.
std::vector<double> pava(const std::vector<double>& y) {
  struct Block {
    double sum;
    std::size_t count;
    double mean() const { return sum / static_cast<double>(count); }
  };
  std::vector<Block> blocks;
  for (const double value : y) {
    blocks.push_back({value, 1});
    while (blocks.size() > 1 &&
           blocks[blocks.size() - 2].mean() > blocks.back().mean()) {
      blocks[blocks.size() - 2].sum += blocks.back().sum;
      blocks[blocks.size() - 2].count += blocks.back().count;
      blocks.pop_back();
    }
  }
  std::vector<double> fitted;
  fitted.reserve(y.size());
  for (const Block& b : blocks)
    fitted.insert(fitted.end(), b.count, b.mean());
  return fitted;
}

}  // namespace

DrvSurrogate DrvSurrogate::train(const Technology& tech,
                                 const DrvSurrogateOptions& options) {
  if (options.training_samples < 40)
    throw InvalidArgument("DrvSurrogate: need at least 40 training samples");

  std::mt19937_64 rng(options.seed);
  std::normal_distribution<double> normal(0.0, options.sample_sigma);

  // Training data: random patterns plus the axes (Fig. 4 points) so the
  // per-transistor structure is always represented.
  std::vector<CellVariation> patterns;
  for (const CellTransistor t : kAllCellTransistors) {
    for (const double s : {-6.0, -3.0, 3.0, 6.0}) {
      CellVariation v;
      v.set(t, s);
      patterns.push_back(v);
    }
  }
  // Every fifth random pattern is drawn at double spread so the monotone map
  // has support out to the scores a 256K-cell extreme can reach.
  std::size_t draw = 0;
  while (patterns.size() < static_cast<std::size_t>(options.training_samples)) {
    const double scale = (draw++ % 5 == 4) ? 2.0 : 1.0;
    CellVariation v;
    for (const CellTransistor t : kAllCellTransistors)
      v.set(t, scale * normal(rng));
    patterns.push_back(v);
  }

  std::vector<double> drv1(patterns.size());
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    const CoreCell cell(tech, patterns[k], options.corner);
    drv1[k] = drv_hold(cell, StoredBit::One, options.temp_c);
    // Clamp unretainable sentinels so the regression is not dominated by
    // the (arbitrary) sentinel magnitude.
    drv1[k] = std::min(drv1[k], 1.3);
  }

  // Split train/holdout deterministically.
  const std::size_t holdout =
      static_cast<std::size_t>(patterns.size() * options.holdout_fraction);
  const std::size_t fit_count = patterns.size() - holdout;

  // Least squares: drv ~= b0 + c . v  over the fit subset.
  Matrix normal_eq(7, 7);
  std::vector<double> rhs(7, 0.0);
  for (std::size_t k = 0; k < fit_count; ++k) {
    std::array<double, 7> x{1.0};
    const auto v = to_array(patterns[k]);
    std::copy(v.begin(), v.end(), x.begin() + 1);
    for (int i = 0; i < 7; ++i) {
      for (int j = 0; j < 7; ++j) normal_eq(i, j) += x[i] * x[j];
      rhs[static_cast<std::size_t>(i)] += x[static_cast<std::size_t>(i)] * drv1[k];
    }
  }
  const std::vector<double> beta = solve_linear_system(normal_eq, rhs);

  DrvSurrogate s;
  s.options_ = options;
  for (int i = 0; i < 6; ++i)
    s.weights_[static_cast<std::size_t>(i)] = beta[static_cast<std::size_t>(i + 1)];

  // Isotonic map over the fit subset: sort by score, PAVA the DRVs.
  std::vector<std::size_t> order(fit_count);
  for (std::size_t k = 0; k < fit_count; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return s.score(patterns[a]) < s.score(patterns[b]);
  });
  std::vector<double> sorted_scores(fit_count), sorted_drvs(fit_count);
  for (std::size_t k = 0; k < fit_count; ++k) {
    sorted_scores[k] = s.score(patterns[order[k]]);
    sorted_drvs[k] = drv1[order[k]];
  }
  const std::vector<double> monotone = pava(sorted_drvs);
  s.knot_scores_ = std::move(sorted_scores);
  s.knot_drvs_ = monotone;

  // Holdout accuracy.
  double sq = 0.0;
  double worst = 0.0;
  for (std::size_t k = fit_count; k < patterns.size(); ++k) {
    const double err = s.predict_drv1(patterns[k]) - drv1[k];
    sq += err * err;
    worst = std::max(worst, std::fabs(err));
  }
  s.rms_error_ = holdout ? std::sqrt(sq / static_cast<double>(holdout)) : 0.0;
  s.max_error_ = worst;
  return s;
}

std::uint64_t DrvSurrogate::fingerprint() const noexcept {
  std::uint64_t fp = fold_key(0x53555247ULL,  // "SURG"
                              static_cast<std::uint64_t>(options_.training_samples));
  fp = fold_key(fp, key_bits(options_.sample_sigma));
  fp = fold_key(fp, key_bits(options_.holdout_fraction));
  fp = fold_key(fp, options_.seed);
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.corner));
  fp = fold_key(fp, key_bits(options_.temp_c));
  for (const double w : weights_) fp = fold_key(fp, key_bits(w));
  fp = fold_key(fp, knot_scores_.size());
  for (const double k : knot_scores_) fp = fold_key(fp, key_bits(k));
  for (const double k : knot_drvs_) fp = fold_key(fp, key_bits(k));
  fp = fold_key(fp, key_bits(rms_error_));
  fp = fold_key(fp, key_bits(max_error_));
  return fp;
}

double DrvSurrogate::score(const CellVariation& variation) const noexcept {
  const auto v = to_array(variation);
  double u = 0.0;
  for (std::size_t i = 0; i < 6; ++i) u += weights_[i] * v[i];
  return u;
}

double DrvSurrogate::map(double score) const {
  if (knot_scores_.empty()) throw Error("DrvSurrogate: not trained");
  if (score <= knot_scores_.front()) return knot_drvs_.front();
  if (score >= knot_scores_.back()) return knot_drvs_.back();
  const auto it =
      std::upper_bound(knot_scores_.begin(), knot_scores_.end(), score);
  const std::size_t hi = static_cast<std::size_t>(it - knot_scores_.begin());
  const std::size_t lo = hi - 1;
  const double span = knot_scores_[hi] - knot_scores_[lo];
  const double f = span > 0.0 ? (score - knot_scores_[lo]) / span : 0.0;
  return knot_drvs_[lo] + f * (knot_drvs_[hi] - knot_drvs_[lo]);
}

double DrvSurrogate::score_threshold(double drv) const {
  if (knot_scores_.empty()) throw Error("DrvSurrogate: not trained");
  // A knot within kRoundingSlack of `drv` counts as reaching it: map()
  // interpolates between knot DRVs with a few ulps of rounding (DRVs are
  // below 1.3 V, so an ulp is below 3e-16 V), and the slack keeps every
  // interpolated value strictly under `drv` left of the returned knot.
  constexpr double kRoundingSlack = 1e-12;
  const auto reach = std::lower_bound(knot_drvs_.begin(), knot_drvs_.end(),
                                      drv - kRoundingSlack);
  if (reach == knot_drvs_.end()) return std::numeric_limits<double>::infinity();
  if (reach == knot_drvs_.begin())
    return -std::numeric_limits<double>::infinity();
  return knot_scores_[static_cast<std::size_t>(reach - knot_drvs_.begin()) - 1];
}

double DrvSurrogate::predict_drv1(const CellVariation& variation) const {
  return map(score(variation));
}

double DrvSurrogate::predict_drv0(const CellVariation& variation) const {
  return map(score(variation.mirrored()));
}

double DrvSurrogate::predict_drv(const CellVariation& variation) const {
  return std::max(predict_drv1(variation), predict_drv0(variation));
}

}  // namespace lpsram
