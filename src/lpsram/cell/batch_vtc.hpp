// Batched lane-parallel cell-analysis engine for the SNM/DRV hot path.
//
// The scalar path (vtc.cpp + snm.cpp + drv.cpp) pays one Brent solve over a
// std::function residual per VTC inversion, with a full Mosfet::eval per
// transistor per probe. This engine restructures the same analyses around
// structure-of-arrays batches:
//
//  * N node inversions advance in lockstep through one masked
//    Newton-bisection solver (util/rootfind_lanes), one batched residual
//    round per iteration;
//  * per-(device, temperature) model constants are hoisted once per engine
//    (device/mosfet_lanes), and the source-side softplus of every NMOS is
//    cached per lane — one exponential per probe instead of two;
//  * the smallest-fixed-point scan walks the scalar 48-point grid but skips
//    every grid point the monotone loop map already proves is below the
//    fixed point (each evaluation T(x) with x ≤ x* is itself a lower bound
//    for x*), and warm-starts from the previous noise level's solution;
//  * the SNM noise ladder evaluates a wavefront of candidate noise levels
//    per round, shrinking the bracket by (k+1)x per batch instead of 2x.
//
// The scalar path stays untouched as the equivalence oracle, selected at
// runtime by KernelConfig::cell (util/kernel_config.hpp). DRV extraction keeps the *exact* scalar
// vdd probe schedule, so the two kernels return the same DRV whenever every
// retains decision agrees — which is everywhere except probes landing right
// on the retention fold, where the predicate hinges on the sign of a
// ~1e-9-level residual and the two node solvers can land on opposite sides.
// Cross-kernel DRVs are therefore close (within one bisection bracket) but
// not guaranteed bit-identical; campaign manifests fold the kernel choice so
// a resumed journal refuses to mix kernels instead of relying on identity.
#pragma once

#include <cstddef>
#include <vector>

#include "lpsram/cell/core_cell.hpp"
#include "lpsram/cell/drv.hpp"
#include "lpsram/cell/snm.hpp"
#include "lpsram/device/mosfet_lanes.hpp"
#include "lpsram/util/rootfind_lanes.hpp"

namespace lpsram {

// ---------------------------------------------------------------------------
// The engine: one instance per (cell, temperature, external bias), reusable
// across supplies and noise levels — retains/hold_equilibrium/drv_hold share
// one engine across their whole search instead of rebuilding VTC state per
// probe.

class BatchHoldVtc {
 public:
  explicit BatchHoldVtc(const CoreCell& cell, double temp_c,
                        CoreCell::Bias bias = CoreCell::hold_bias());

  // Lockstep VTC inversions: out[i] is the S-node (resp. SB-node) voltage
  // for inverter input v_in[i] at supply vdd_cc — n solutions of the same
  // monotone node residual the scalar HoldVtc inverts one at a time.
  // `slope`, when given, receives d out[i] / d v_in[i] from the analytic
  // device derivatives at the solution (used to Newton-polish fixed points).
  void inverter_s(const double* v_in, std::size_t n, double vdd_cc,
                  double* out, double* slope = nullptr);
  void inverter_sb(const double* v_in, std::size_t n, double vdd_cc,
                   double* out, double* slope = nullptr);

  // Smallest fixed points of the stored-bit loop map for k adverse noise
  // levels, warm-started from x_start (a known retained equilibrium for a
  // smaller noise level, or 0.0 for a cold search — see DESIGN.md for why
  // warm starts preserve the smallest-fixed-point guarantee). v_low[i] is
  // the settled low-node voltage for noise[i]; v_high[i] the corresponding
  // high node.
  void smallest_fixed_points(StoredBit bit, double vdd_cc, const double* noise,
                             std::size_t k, double x_start, double* v_low,
                             double* v_high);

  double temp_c() const noexcept { return temp_c_; }
  const CoreCell& cell() const noexcept { return *cell_; }

 private:
  struct InverterPlan {
    MosfetLaneConsts pu;    // pull-up PMOS (MPcc1 / MPcc2)
    MosfetLaneConsts pd;    // pull-down NMOS (MNcc1 / MNcc2)
    MosfetLaneConsts pass;  // pass NMOS (MNcc3 / MNcc4)
    NmosSourceCache pass_cache;  // gate/source fixed by the external bias
    double pass_vs = 0.0;        // BL (side S) or BLB (side SB)
  };

  // Shared implementation of inverter_s/inverter_sb.
  void invert(const InverterPlan& plan, const double* v_in, std::size_t n,
              double vdd_cc, double* out, double* slope);

  // One loop-map evaluation T(x) for m lanes with per-lane noise, plus the
  // analytic map derivative T'(x) (product of the two inverter slopes) and
  // the intermediate high-node voltage.
  void loop_map(StoredBit bit, double vdd_cc, const double* x,
                const double* noise, std::size_t m, double* out, double* slope,
                double* v_high);

  const CoreCell* cell_;
  double temp_c_;
  CoreCell::Bias bias_;
  InverterPlan side_s_;
  InverterPlan side_sb_;

  // Scratch, reused across calls so the hot path is allocation-free after
  // warm-up. Node inversions and the fixed-point refinement nest (the map
  // residual solves two inversions per round), so they own separate solver
  // workspaces.
  LaneRootWorkspace node_ws_;
  LaneRootWorkspace map_ws_;
  std::vector<NmosSourceCache> pd_cache_;
  std::vector<double> inv_lo_, inv_hi_, gm_sum_, gds_sum_;
  std::vector<double> map_in_, map_high_, map_slope_high_, map_slope_low_;
  std::vector<double> fp_x_, fp_noise_, fp_t_, fp_slope_;
  std::vector<std::size_t> fp_lanes_;
};

// ---------------------------------------------------------------------------
// Batched equivalents of the scalar hot-path entry points. The scalar
// functions in snm.hpp/drv.hpp dispatch here when KernelConfig::cell is
// Production; call these directly only to pin a kernel irrespective of the
// process config.

HoldState hold_equilibrium_batched(const CoreCell& cell, StoredBit bit,
                                   double vdd_cc, double temp_c,
                                   double noise = 0.0);
bool holds_state_batched(const CoreCell& cell, StoredBit bit, double vdd_cc,
                         double temp_c);
double hold_snm_batched(const CoreCell& cell, StoredBit bit, double vdd_cc,
                        double temp_c);
// Keeps the exact scalar monotone_threshold_log probe schedule over vdd, so
// the returned DRV is bit-identical to the scalar kernel whenever every
// retains decision agrees. Probes landing inside the fold's solver-noise
// band (where map(0) sits within node-solve tolerance of zero) can flip, in
// which case the two kernels settle at most one bisection bracket apart.
double drv_hold_batched(const CoreCell& cell, StoredBit bit, double temp_c,
                        const DrvOptions& options = {});

// ---------------------------------------------------------------------------
// Cross-cell DRV batching: lanes are *different cells*, not one cell's
// node-inversion grid. The yield engine's candidate exact solves are the
// consumer — a staging buffer of surrogate-gated samples marches through in
// lane-width blocks, every cell running the same outer search in lockstep.
//
// Determinism contract: per lane the result is identical to the solo
// `drv_hold_batched` call for that cell — the outer probe schedule is the
// scalar monotone_threshold_log state machine per lane, each retains
// evaluation runs the same scan/refine/high-node phases with per-lane
// constants, and every per-lane solver trajectory (Newton-vs-bisect choices
// included) depends only on the lane's own state plus a round counter that
// both paths start at zero. Batch composition therefore cannot change any
// cell's DRV, which is what lets the yield engine keep its curves
// bit-identical across batch kinds.

struct CrossDrvOptions {
  DrvOptions drv;
  // Scan rounds allowed inside one retains evaluation before a lane is
  // evicted from the batch and re-solved solo (straggler safety valve; the
  // monotone-accelerated scan needs well under 48 rounds in practice, so
  // the default never triggers outside adversarial tests). Eviction is
  // result-neutral: the solo path computes the identical DRV.
  int scan_round_budget = 64;
};

struct CrossDrvStats {
  std::size_t evicted = 0;  // lanes re-solved via the solo path
};

// DRV of one stored bit for n cells at one temperature; drv_out[i] receives
// the DRV of *cells[i]. All cells share the hold bias and the search
// options.
void drv_hold_cross_batched(const CoreCell* const* cells, std::size_t n,
                            StoredBit bit, double temp_c,
                            const CrossDrvOptions& options, double* drv_out,
                            CrossDrvStats* stats = nullptr);

// Both DRV components for n cells: out[i] = {drv1, drv0} of *cells[i],
// matching drv_ds() per lane (bit One first, then Zero).
void drv_ds_cross_batched(const CoreCell* const* cells, std::size_t n,
                          double temp_c, const CrossDrvOptions& options,
                          DrvResult* out, CrossDrvStats* stats = nullptr);

}  // namespace lpsram
