#include "lpsram/stats/yield/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/cell/drv.hpp"
#include "lpsram/spice/dc_solver.hpp"
#include "lpsram/spice/hooks.hpp"
#include "lpsram/stats/yield/counter_rng.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"

namespace lpsram {
namespace {

// Importance-sampling draws live in their own counter stream so they never
// collide with the nominal (trial, cell) field ("IS").
constexpr std::uint64_t kIsStreamTag = 0x4953ULL;
// Lane 6 picks the mixture component (lanes 0..5 are the six transistors).
constexpr std::uint64_t kComponentLane = 6;
// Pilot shift-tuning draws get their own stream too ("PS"): the pilot must
// not consume — or correlate with — the production sampling field.
constexpr std::uint64_t kPilotStreamTag = 0x5053ULL;

// Cells per cross-batched exact-solve chunk. A multiple of every native
// SIMD width; large enough that per-chunk setup (device-constant hoisting)
// amortizes, small enough that the staging working set stays cache-resident.
constexpr std::size_t kExactBatchLanes = 32;

const char* exact_batch_name(Kernel kernel) {
  return kernel == Kernel::Production ? "lane-batch" : "one-at-a-time";
}

}  // namespace

std::string yield_mode_name(YieldMode mode) {
  switch (mode) {
    case YieldMode::BruteForceExact: return "brute-force-exact";
    case YieldMode::Blockade: return "blockade";
    case YieldMode::ImportanceSampled: return "importance-sampled";
  }
  return "unknown";
}

YieldPlan::YieldPlan(const Technology& tech, const DrvSurrogate& surrogate,
                     YieldEngineOptions options)
    : tech_(&tech), surrogate_(&surrogate), options_(std::move(options)) {
  if (options_.rows < 1 || options_.cols < 1)
    throw InvalidArgument("YieldPlan: array must have >= 1 row and column");
  if (options_.trials < 1)
    throw InvalidArgument("YieldPlan: trials must be >= 1");
  if (options_.block_cells < 1)
    throw InvalidArgument("YieldPlan: block_cells must be >= 1");
  if (options_.vreg_grid.empty())
    throw InvalidArgument("YieldPlan: vreg_grid must not be empty");
  if (!std::is_sorted(options_.vreg_grid.begin(), options_.vreg_grid.end()))
    throw InvalidArgument("YieldPlan: vreg_grid must be ascending");
  for (const double v : options_.vreg_grid)
    if (!(v > 0.0) || !std::isfinite(v))
      throw InvalidArgument("YieldPlan: vreg grid points must be positive");
  // A +inf margin would make every cell a candidate: a brute-force run
  // under the blockade's name.
  if (!(options_.blockade_margin >= 0.0) ||
      !std::isfinite(options_.blockade_margin))
    throw InvalidArgument("YieldPlan: blockade_margin must be finite and >= 0");
  if (!std::isfinite(options_.temp_c))
    throw InvalidArgument("YieldPlan: temp_c must be finite");

  gate_ = options_.vreg_grid.front() - options_.blockade_margin;
  skip_below_ = -std::numeric_limits<double>::infinity();

  if (options_.mode == YieldMode::ImportanceSampled) {
    if (options_.is_samples < 1)
      throw InvalidArgument("YieldPlan: is_samples must be >= 1");
    if (!(options_.is_shift >= 0.0) || !std::isfinite(options_.is_shift))
      throw InvalidArgument("YieldPlan: is_shift must be finite and >= 0");
    if (!(options_.is_defensive >= 0.0 && options_.is_defensive < 1.0))
      throw InvalidArgument("YieldPlan: is_defensive must be in [0, 1)");
    if (options_.auto_shift) {
      if (options_.pilot_samples < 1)
        throw InvalidArgument("YieldPlan: pilot_samples must be >= 1");
      if (!(options_.pilot_shift_lo >= 0.0) ||
          !(options_.pilot_shift_hi >= options_.pilot_shift_lo) ||
          !std::isfinite(options_.pilot_shift_hi))
        throw InvalidArgument(
            "YieldPlan: need 0 <= pilot_shift_lo <= pilot_shift_hi < inf");
      if (options_.pilot_steps < 1)
        throw InvalidArgument("YieldPlan: pilot_steps must be >= 1");
    }
    blocks_per_trial_ =
        (options_.is_samples + options_.block_cells - 1) / options_.block_cells;
    task_count_ = blocks_per_trial_;

    const auto& w = surrogate.weights();
    double norm_sq = 0.0;
    for (const double wi : w) norm_sq += wi * wi;
    if (!(norm_sq > 0.0))
      throw InvalidArgument("YieldPlan: surrogate weights are all zero");

    // Pilot line search first (surrogate-only, deterministic): it may
    // replace options_.is_shift before the shift vectors are derived, so
    // everything downstream — the sampler, the weights, the fingerprint —
    // sees one consistent tuned value.
    pilot_.shift = options_.is_shift;
    if (options_.auto_shift) run_pilot_shift_search();

    // Mean shift along the fitted worst-case direction (unit Euclidean norm
    // of the surrogate weights), mirrored for the opposite polarity.
    const double scale = options_.is_shift / std::sqrt(norm_sq);
    CellVariation mu;
    for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i)
      mu.set(kAllCellTransistors[i], w[i] * scale);
    const CellVariation mu_m = mu.mirrored();
    for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i) {
      shift_[i] = mu.get(kAllCellTransistors[i]);
      shift_mirror_[i] = mu_m.get(kAllCellTransistors[i]);
    }
    shift_sq_half_ = 0.5 * options_.is_shift * options_.is_shift;
    is_seed_ = fold_key(options_.seed, kIsStreamTag);
  } else {
    blocks_per_trial_ =
        (options_.cells_per_trial() + options_.block_cells - 1) /
        options_.block_cells;
    task_count_ =
        blocks_per_trial_ * static_cast<std::size_t>(options_.trials);
  }

  if (options_.mode == YieldMode::Blockade) {
    // The unpolished gate. Pass 1 scores a cell on its Acklam normals x
    // before the Halley polish turns them into the cell's field v. Per lane
    // |v - x| <= kAcklamRelError * |v| + 1e-15 (the polish's own rounding
    // near v = 0), and |x|, |v| <= kMaxAbsNormal. Each of the two 6-term
    // dot products w . x and w . v rounds by at most
    // gamma_6 * kMaxAbsNormal * sum |w_i|, gamma_6 = 6u / (1 - 6u),
    // u = 2^-53. So a score on x sits within
    //   kMaxAbsNormal * sum |w_i| * (kAcklamRelError + 2 gamma_6)
    // of the score predict_drv computes on v, up to the 1e-15 per lane
    // that kSlackSafety covers many times over.
    constexpr double kSlackSafety = 4.0;
    constexpr double kUnitRoundoff = 0x1p-53;
    constexpr double kGamma6 = 6.0 * kUnitRoundoff / (1.0 - 6.0 * kUnitRoundoff);
    const auto& w = surrogate.weights();
    CellVariation wv;
    for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i)
      wv.set(kAllCellTransistors[i], w[i]);
    const CellVariation wm = wv.mirrored();
    double w_abs = 0.0;
    for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i) {
      mirror_weights_[i] = wm.get(kAllCellTransistors[i]);
      w_abs += std::fabs(w[i]);
    }
    score_slack_ = kSlackSafety * kMaxAbsNormal * w_abs *
                   (kAcklamRelError + 2.0 * kGamma6);
    skip_below_ = surrogate.score_threshold(gate_) - score_slack_;
  }
}

void YieldPlan::run_pilot_shift_search() {
  // ESS-maximizing line search along the surrogate worst-case direction.
  //
  // Design rules that keep this sound:
  //  * Surrogate-only: the pilot never spends an exact solve — the failure
  //    indicator is predict_drv(v) > vreg, which is what the production
  //    blockade gate keys off anyway.
  //  * Common random numbers: one (component pick, z) draw per pilot sample,
  //    reused for every candidate shift, so the comparison across shifts is
  //    paired and the winner is not a noise artifact of per-shift streams.
  //  * Own counter stream (kPilotStreamTag): pilot draws never collide with
  //    the production sampling field, so tuning cannot bias the estimate.
  //  * Tail ESS, not overall ESS: (sum w*f)^2 / sum w^2*f restricted to the
  //    failure indicator. The overall (sum w)^2 / sum w^2 is maximized by
  //    shift 0 — it measures weight uniformity, not tail evidence — and
  //    would tune every run back to plain Monte Carlo.
  //  * Max-min over grid points: the chosen shift must serve the whole
  //    curve, so the score is the minimum tail ESS over every grid point
  //    that registered at least one pilot hit at any shift; grid points no
  //    shift can reach are excluded rather than zeroing every score. If no
  //    grid point scores at all, the hand shift stays untouched.
  const auto& w = surrogate_->weights();
  double norm_sq = 0.0;
  for (const double wi : w) norm_sq += wi * wi;
  CellVariation u;
  for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i)
    u.set(kAllCellTransistors[i], w[i] / std::sqrt(norm_sq));
  const CellVariation u_m = u.mirrored();

  const std::vector<double>& grid = options_.vreg_grid;
  const std::size_t steps = static_cast<std::size_t>(options_.pilot_steps);
  std::vector<double> shifts(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    shifts[t] = steps > 1
                    ? options_.pilot_shift_lo +
                          (options_.pilot_shift_hi - options_.pilot_shift_lo) *
                              static_cast<double>(t) /
                              static_cast<double>(steps - 1)
                    : options_.pilot_shift_lo;
  }

  // sum_wf / sum_wf2 per (shift, grid point), summed in sample order.
  std::vector<double> sum_wf(steps * grid.size(), 0.0);
  std::vector<double> sum_wf2(steps * grid.size(), 0.0);
  std::vector<char> grid_hit(grid.size(), 0);

  const std::uint64_t pilot_seed = fold_key(options_.seed, kPilotStreamTag);
  const double alpha = options_.is_defensive;
  for (std::size_t j = 0; j < options_.pilot_samples; ++j) {
    const double pick = counter_uniform(pilot_seed, 0, j, kComponentLane);
    // Component selection mirrors the production sampler: nominal with
    // probability alpha, else one of the two shifted halves.
    int component = 0;  // 0 nominal, 1 shifted, 2 mirrored
    if (pick >= alpha)
      component = pick < alpha + 0.5 * (1.0 - alpha) ? 1 : 2;
    std::array<double, 6> z{};
    for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane)
      z[lane] = counter_normal(pilot_seed, 0, j, lane);

    for (std::size_t t = 0; t < steps; ++t) {
      const double c = shifts[t];
      CellVariation v;
      for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane) {
        const double mean =
            component == 1 ? c * u.get(kAllCellTransistors[lane])
            : component == 2 ? c * u_m.get(kAllCellTransistors[lane])
                             : 0.0;
        v.set(kAllCellTransistors[lane], z[lane] + mean);
      }
      // Likelihood ratio of the same defensive mixture at shift c:
      // a_i = c * (u_i . v) - c^2/2, w = 1/(alpha + (1-alpha) e^m s).
      double uv = 0.0, umv = 0.0;
      for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane) {
        const double vl = v.get(kAllCellTransistors[lane]);
        uv += u.get(kAllCellTransistors[lane]) * vl;
        umv += u_m.get(kAllCellTransistors[lane]) * vl;
      }
      const double a1 = c * uv - 0.5 * c * c;
      const double a2 = c * umv - 0.5 * c * c;
      const double m = std::max(a1, a2);
      const double s = 0.5 * (std::exp(a1 - m) + std::exp(a2 - m));
      const double weight =
          alpha > 0.0 ? 1.0 / (alpha + (1.0 - alpha) * std::exp(m) * s)
                      : std::exp(-(m + std::log(s)));

      const double sdrv = surrogate_->predict_drv(v);
      for (std::size_t k = 0; k < grid.size(); ++k) {
        if (sdrv > grid[k]) {
          sum_wf[t * grid.size() + k] += weight;
          sum_wf2[t * grid.size() + k] += weight * weight;
          grid_hit[k] = 1;
        }
      }
    }
  }

  pilot_.samples = options_.pilot_samples;
  for (const char h : grid_hit)
    if (h) ++pilot_.grid_points_scored;
  if (pilot_.grid_points_scored == 0) return;  // tail unreachable: keep hand shift

  double best_score = -1.0;
  double best_shift = options_.is_shift;
  for (std::size_t t = 0; t < steps; ++t) {
    double score = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < grid.size(); ++k) {
      if (!grid_hit[k]) continue;
      const double wf = sum_wf[t * grid.size() + k];
      const double wf2 = sum_wf2[t * grid.size() + k];
      score = std::min(score, wf2 > 0.0 ? wf * wf / wf2 : 0.0);
    }
    if (score > best_score) {  // strict: ties keep the smaller shift
      best_score = score;
      best_shift = shifts[t];
    }
  }

  options_.is_shift = best_shift;
  pilot_.tuned = true;
  pilot_.shift = best_shift;
  pilot_.objective = best_score;
}

std::uint64_t YieldPlan::key_of(std::size_t index) const noexcept {
  return fold_key(fold_key(kSalt, static_cast<std::uint64_t>(options_.mode)),
                  index);
}

std::uint64_t YieldPlan::configuration_fingerprint() const {
  std::uint64_t fp = fold_key(kSalt, task_count_);
  fp = fold_key(fp, options_.rows);
  fp = fold_key(fp, options_.cols);
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.trials));
  fp = fold_key(fp, options_.seed);
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.mode));
  fp = fold_key(fp, key_bits(options_.is_shift));
  fp = fold_key(fp, options_.is_samples);
  fp = fold_key(fp, key_bits(options_.is_defensive));
  // Pilot knobs: is_shift above already carries the *tuned* value (the
  // pilot rewrites it at construction), but folding the pilot configuration
  // too means a hand-shifted run can never alias an auto-shifted one that
  // happened to tune to the same number.
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.auto_shift ? 1 : 0));
  fp = fold_key(fp, options_.pilot_samples);
  fp = fold_key(fp, key_bits(options_.pilot_shift_lo));
  fp = fold_key(fp, key_bits(options_.pilot_shift_hi));
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.pilot_steps));
  fp = fold_key(fp, key_bits(options_.blockade_margin));
  fp = fold_key(fp, options_.block_cells);
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.corner));
  fp = fold_key(fp, key_bits(options_.temp_c));
  fp = fold_key(fp, options_.vreg_grid.size());
  for (const double v : options_.vreg_grid) fp = fold_key(fp, key_bits(v));
  // The trained surrogate defines both the blockade gate and the importance
  // direction; changing it silently would blend incompatible estimates.
  fp = fold_key(fp, surrogate_->fingerprint());
  // The exact-batch kind is result-neutral by construction, but the folded
  // fingerprint is the *claim* of that neutrality a resumed journal can
  // check: refusing a mixed resume is how the bit-identity contract stays
  // falsifiable instead of assumed.
  fp = fold_key(fp, static_cast<std::uint64_t>(kernel_config().yield_exact));
  return fp;
}

std::uint64_t YieldPlan::fingerprint() const {
  // The cell kernel and SIMD backend behind the exact solves move the
  // journaled counts within solver noise; fold them as every sweep does.
  return fold_kernel_kinds(configuration_fingerprint());
}

SweepPlan YieldPlan::sweep_plan(const CancelToken* cancel) const {
  SweepPlan plan;
  plan.salt = kSalt;
  plan.fingerprint = configuration_fingerprint();
  plan.count = task_count_;
  plan.key_of = [this](std::size_t index) { return key_of(index); };
  plan.task = [this, cancel](SweepTask& task) {
    return encode_block(sample_block(task.index, cancel));
  };
  return plan;
}

double YieldPlan::importance_weight(const CellVariation& v) const {
  // w = phi(v) / q(v) with the defensive mixture proposal
  //   q = alpha * phi + (1-alpha)/2 * (N(mu, I) + N(mirror(mu), I)),
  // so w = 1 / (alpha + (1-alpha)/2 * (e^a1 + e^a2)) where
  //   a_i = log(N(mu_i, I) / phi)(v) = mu_i . v - |mu|^2/2,
  // computed with the max trick so weights stay finite at large shifts.
  // With alpha > 0 every weight is bounded by 1/alpha.
  double a1 = -shift_sq_half_;
  double a2 = -shift_sq_half_;
  for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i) {
    const double vi = v.get(kAllCellTransistors[i]);
    a1 += shift_[i] * vi;
    a2 += shift_mirror_[i] * vi;
  }
  const double alpha = options_.is_defensive;
  const double m = std::max(a1, a2);
  const double s = 0.5 * (std::exp(a1 - m) + std::exp(a2 - m));
  if (alpha > 0.0) {
    // exp(m) may overflow to +inf for a point far along the shift; the
    // weight then correctly collapses to 0.
    return 1.0 / (alpha + (1.0 - alpha) * std::exp(m) * s);
  }
  return std::exp(-(m + std::log(s)));
}

BlockAccum YieldPlan::run_block(std::size_t index,
                                const CancelToken* cancel) const {
  if (index >= task_count_)
    throw InvalidArgument("YieldPlan::run_block: index out of range");
  // Scope any session chaos observer to this task, matching the executor
  // contract that concurrent tasks never share an observer instance.
  const ScopedTaskObserver task_scope(key_of(index));
  return sample_block(index, cancel);
}

BlockAccum YieldPlan::sample_block(std::size_t index,
                                   const CancelToken* cancel) const {
  const bool importance = options_.mode == YieldMode::ImportanceSampled;
  const std::vector<double>& grid = options_.vreg_grid;

  std::uint64_t trial = 0;
  std::size_t begin = 0, end = 0;
  if (importance) {
    begin = index * options_.block_cells;
    end = std::min(begin + options_.block_cells, options_.is_samples);
  } else {
    trial = index / blocks_per_trial_;
    begin = (index % blocks_per_trial_) * options_.block_cells;
    end = std::min(begin + options_.block_cells, options_.cells_per_trial());
  }

  BlockAccum acc;
  acc.points.resize(grid.size());

  // The block runs in three passes over a staging buffer instead of one
  // fused loop, so the exact solves can batch cross-cell without touching
  // the accumulation order:
  //   1. sample + weight + surrogate-classify every cell, staging the
  //      survivors' variations and positions;
  //   2. exact-solve the staged candidates — per candidate (the oracle) or
  //      in lane-width cross-cell chunks, both walking the same staging
  //      order and writing the same per-sample slots;
  //   3. accumulate every sample in s order, exactly the fused loop's
  //      order, so curves stay bit-identical across batch kinds, thread
  //      counts, resume and fleet merges.
  const std::size_t count = end - begin;
  std::vector<double> weights(count, 1.0);
  std::vector<double> drvs(count, 0.0);
  std::vector<CellVariation> staged_v;
  std::vector<std::size_t> staged_pos;
  // Blockade: the unpolished score of every cell pass 1 settles without
  // the polish (-inf for the others), and the highest of them.
  std::vector<double> skipped_score;
  std::size_t top_skipped = count;
  const std::array<double, 6>& gate_weights = surrogate_->weights();
  if (options_.mode == YieldMode::Blockade)
    skipped_score.assign(count, -std::numeric_limits<double>::infinity());

  // Pass 1 — sampling, weights, surrogate gate.
  for (std::size_t s = begin; s < end; ++s) {
    poll_cancel(cancel, "yield block", 0, 0.0);
    const std::size_t pos = s - begin;

    CellVariation v;
    double w = 1.0;
    if (importance) {
      // Component pick: [0, alpha) nominal, then the two shifted halves.
      const double pick = counter_uniform(is_seed_, 0, s, kComponentLane);
      const double alpha = options_.is_defensive;
      const std::array<double, 6>* mean = nullptr;
      if (pick >= alpha)
        mean = pick < alpha + 0.5 * (1.0 - alpha) ? &shift_ : &shift_mirror_;
      for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane) {
        const double z = counter_normal(is_seed_, 0, s, lane);
        v.set(kAllCellTransistors[lane], z + (mean ? (*mean)[lane] : 0.0));
      }
      w = importance_weight(v);
    } else {
      // Unpolished gate (Blockade; skip_below_ is -inf in brute force): a
      // cell whose score and mirrored score on its Acklam normals both sit
      // below skip_below_ predicts a DRV below the gate, so it is no
      // candidate and fails no grid point. It skips the polish and the
      // surrogate's knot search; its drvs[] slot keeps 0 until the block
      // maximum below asks for its value.
      const CellDraws draws = draw_cell(options_.seed, trial, s);
      double u1 = 0.0, u0 = 0.0;
      for (std::size_t i = 0; i < draws.x.size(); ++i) {
        u1 += gate_weights[i] * draws.x[i];
        u0 += mirror_weights_[i] * draws.x[i];
      }
      const double score = std::max(u1, u0);
      if (score < skip_below_) {
        skipped_score[pos] = score;
        if (top_skipped == count || score > skipped_score[top_skipped])
          top_skipped = pos;
        continue;
      }
      v = draws.polished();
    }

    // Cheap pre-filter: the surrogate classifies every cell; only candidates
    // near or past the gate spend an exact lane-kernel solve. Below the gate
    // the surrogate DRV sits at least blockade_margin under every grid
    // point, so the surrogate value classifies identically to the exact one
    // (up to surrogate error — which is what the margin absorbs, and what
    // the equivalence suite bounds).
    const double surrogate_drv = surrogate_->predict_drv(v);
    const bool candidate = surrogate_drv >= gate_;
    weights[pos] = w;
    drvs[pos] = surrogate_drv;
    if (candidate) ++acc.candidates;
    if (options_.mode == YieldMode::BruteForceExact || candidate) {
      staged_v.push_back(v);
      staged_pos.push_back(pos);
    }
  }

  // Pass 2 — exact solves over the staging buffer. Both kinds visit the
  // staged candidates in the same order and the cross-batched kernel is
  // lane-for-lane identical to the solo path (see cell/batch_vtc.hpp), so
  // the drvs[] array they produce is the same.
  const KernelConfig kernels = kernel_config();
  const bool lane_batch = kernels.yield_exact == Kernel::Production &&
                          kernels.cell == Kernel::Production;
  if (lane_batch) {
    CrossDrvOptions cross;
    std::vector<CoreCell> chunk_cells;
    std::vector<const CoreCell*> chunk_ptrs;
    std::vector<DrvResult> chunk_out;
    for (std::size_t i = 0; i < staged_v.size(); i += kExactBatchLanes) {
      poll_cancel(cancel, "yield exact batch", 0, 0.0);
      const std::size_t chunk =
          std::min(kExactBatchLanes, staged_v.size() - i);
      chunk_cells.clear();
      chunk_cells.reserve(chunk);
      chunk_ptrs.clear();
      chunk_out.resize(chunk);
      for (std::size_t j = 0; j < chunk; ++j)
        chunk_cells.emplace_back(*tech_, staged_v[i + j], options_.corner);
      for (const CoreCell& cell : chunk_cells) chunk_ptrs.push_back(&cell);
      drv_ds_cross_batched(chunk_ptrs.data(), chunk, options_.temp_c, cross,
                           chunk_out.data());
      for (std::size_t j = 0; j < chunk; ++j)
        drvs[staged_pos[i + j]] = chunk_out[j].drv();
      acc.exact_solves += chunk;
    }
  } else {
    for (std::size_t i = 0; i < staged_v.size(); ++i) {
      poll_cancel(cancel, "yield exact solve", 0, 0.0);
      const CoreCell cell(*tech_, staged_v[i], options_.corner);
      drvs[staged_pos[i]] = drv_ds(cell, options_.temp_c).drv();
      ++acc.exact_solves;
    }
  }

  // The block maximum is the one output that reads a skipped cell's DRV.
  // Give every skipped cell whose score could still reach the maximum its
  // exact surrogate value (polished field, predict_drv), highest score
  // first; a cell left at 0 predicts below the maximum as it stands. When
  // the highest-scoring skipped cell cannot reach it, none can.
  if (top_skipped < count) {
    double top = 0.0;  // BlockAccum's floor
    for (const double drv : drvs) top = std::max(top, drv);
    double reach = surrogate_->score_threshold(top) - score_slack_;
    const auto repolish = [&](std::size_t pos) {
      drvs[pos] = surrogate_->predict_drv(
          sample_cell_variation(options_.seed, trial, begin + pos));
      skipped_score[pos] = -std::numeric_limits<double>::infinity();
      if (drvs[pos] > top) {
        top = drvs[pos];
        reach = surrogate_->score_threshold(top) - score_slack_;
      }
    };
    if (skipped_score[top_skipped] >= reach) {
      repolish(top_skipped);
      for (std::size_t pos = 0; pos < count; ++pos)
        if (skipped_score[pos] >= reach) repolish(pos);
    }
  }

  // Pass 3 — accumulation, strictly in sample order.
  for (std::size_t pos = 0; pos < count; ++pos) {
    const double w = weights[pos];
    const double drv = drvs[pos];
    for (std::size_t k = 0; k < grid.size(); ++k)
      acc.points[k].add(w, drv > grid[k]);
    acc.sum_w += w;
    acc.sum_w2 += w * w;
    acc.max_drv = std::max(acc.max_drv, drv);
    ++acc.samples;
  }
  return acc;
}

std::vector<std::uint8_t> YieldPlan::encode_block(const BlockAccum& block) const {
  PayloadWriter out;
  out.u64(block.samples);
  out.u64(block.candidates);
  out.u64(block.exact_solves);
  out.f64(block.sum_w);
  out.f64(block.sum_w2);
  out.f64(block.max_drv);
  out.u32(static_cast<std::uint32_t>(block.points.size()));
  for (const TailPointAccum& pt : block.points) {
    out.u64(pt.fail_raw);
    out.f64(pt.sum_wf);
    out.f64(pt.sum_wf2);
  }
  return out.take();
}

BlockAccum YieldPlan::decode_block(PayloadReader& in) const {
  BlockAccum block;
  block.samples = in.u64();
  block.candidates = in.u64();
  block.exact_solves = in.u64();
  block.sum_w = in.f64();
  block.sum_w2 = in.f64();
  block.max_drv = in.f64();
  const std::uint32_t count = in.u32();
  if (count != options_.vreg_grid.size())
    throw InvalidArgument(
        "YieldPlan: journaled block has a different vreg grid");
  block.points.resize(count);
  for (TailPointAccum& pt : block.points) {
    pt.fail_raw = in.u64();
    pt.sum_wf = in.f64();
    pt.sum_wf2 = in.f64();
  }
  return block;
}

YieldResult YieldPlan::reduce(const std::vector<BlockAccum>& blocks) const {
  if (blocks.size() != task_count_)
    throw InvalidArgument("YieldPlan::reduce: wrong block count");

  BlockAccum total;
  total.points.resize(options_.vreg_grid.size());
  for (const BlockAccum& block : blocks) total.merge(block);

  YieldResult result;
  result.samples = total.samples;
  result.candidates = total.candidates;
  result.exact_solves = total.exact_solves;

  const double cells =
      static_cast<double>(options_.cells_per_trial());
  result.points.reserve(options_.vreg_grid.size());
  for (std::size_t k = 0; k < options_.vreg_grid.size(); ++k) {
    YieldPoint point;
    point.vreg = options_.vreg_grid[k];
    point.tail = estimate_tail(total, k);
    point.failures = total.points[k].fail_raw;
    const double p = std::clamp(point.tail.p, 0.0, 1.0);
    point.sigma = (p > 0.0 && p < 1.0) ? sigma_of_tail(p) : 0.0;
    point.array_yield = std::pow(1.0 - p, cells);
    result.points.push_back(point);
  }

  if (options_.mode != YieldMode::ImportanceSampled) {
    // Per-trial array DRV_DS maxima: blocks never span trials, so the trial
    // maximum is the max over its contiguous block range.
    std::vector<double> maxima;
    maxima.reserve(static_cast<std::size_t>(options_.trials));
    for (int t = 0; t < options_.trials; ++t) {
      double worst = 0.0;
      for (std::size_t b = 0; b < blocks_per_trial_; ++b)
        worst = std::max(
            worst,
            blocks[static_cast<std::size_t>(t) * blocks_per_trial_ + b].max_drv);
      maxima.push_back(worst);
    }
    result.array_dist = fit_array_drv_distribution(std::move(maxima));
  }
  return result;
}

namespace {

// Decodes a run's blocks in index order and reduces them into the curve.
YieldResult reduce_run(const YieldPlan& plan, const SweepRun& run) {
  std::vector<BlockAccum> blocks;
  blocks.reserve(run.tasks.size());
  for (const SweepResult& task : run.tasks) {
    PayloadReader in(task.payload);
    blocks.push_back(plan.decode_block(in));
  }
  YieldResult result = plan.reduce(blocks);
  result.telemetry = run.telemetry;
  return result;
}

}  // namespace

YieldResult run_yield(const YieldPlan& plan, Campaign* campaign,
                      const CancelToken* cancel) {
  return reduce_run(plan, SweepRunner(plan.options().threads)
                              .run(plan.sweep_plan(cancel), campaign));
}

YieldResult reduce_yield_journal(const YieldPlan& plan,
                                 const std::string& journal_path) {
  return reduce_run(plan,
                    replay_sweep_journal(plan.sweep_plan(nullptr), journal_path));
}

std::string yield_summary_line(const YieldPlan& plan,
                               const YieldResult& result) {
  const YieldEngineOptions& opt = plan.options();
  double ess = 0.0;
  double min_tail = std::numeric_limits<double>::infinity();
  for (const YieldPoint& p : result.points) {
    ess = p.tail.ess;  // the overall ESS is shared by every grid point
    if (p.tail.tail_ess > 0.0) min_tail = std::min(min_tail, p.tail.tail_ess);
  }
  if (!std::isfinite(min_tail)) min_tail = 0.0;

  char buf[320];
  const int n = std::snprintf(
      buf, sizeof(buf),
      "mode=%s exact-batch=%s samples=%llu candidates=%llu exact_solves=%llu "
      "ess=%.1f min_tail_ess=%.1f",
      yield_mode_name(opt.mode).c_str(),
      exact_batch_name(kernel_config().yield_exact),
      static_cast<unsigned long long>(result.samples),
      static_cast<unsigned long long>(result.candidates),
      static_cast<unsigned long long>(result.exact_solves), ess, min_tail);
  std::string line(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
  if (opt.mode == YieldMode::ImportanceSampled) {
    const int m = std::snprintf(buf, sizeof(buf), " shift=%.3f%s",
                                opt.is_shift,
                                plan.pilot().tuned ? " (pilot-tuned)" : "");
    line.append(buf, m > 0 ? static_cast<std::size_t>(m) : 0);
  }
  return line;
}

}  // namespace lpsram
