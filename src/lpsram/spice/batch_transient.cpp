#include "lpsram/spice/batch_transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "lpsram/device/mosfet_lanes.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/simd.hpp"
#include "lpsram/util/sparse_lanes.hpp"

namespace lpsram {

BatchTransientSolver::BatchTransientSolver(Netlist& netlist, double temp_c,
                                           TransientOptions options)
    : netlist_(netlist),
      temp_c_(temp_c),
      options_(options),
      assembler_(netlist, temp_c) {}

std::vector<Waveform> BatchTransientSolver::run(
    const std::vector<TransientLane>& lanes, const std::vector<NodeId>& probes,
    const Stimulus& stimulus) {
  evictions_ = 0;
  if (lanes.empty()) return {};
  for (const TransientLane& lane : lanes)
    if (lane.initial_x.size() != assembler_.dimension())
      throw InvalidArgument("BatchTransientSolver: initial state size mismatch");

  return kernel_config().transient == Kernel::Reference
             ? run_serial(lanes, probes, stimulus)
             : run_lockstep(lanes, probes, stimulus);
}

namespace {

// Original values of every distinct override element, for restoring the
// shared netlist between per-lane contexts. apply() tracks what the netlist
// currently holds and writes only the elements whose desired value differs,
// so switching between lanes of the same defect site (the common Df sweep
// shape) costs one set_resistance instead of a full restore-then-set.
struct OverrideSet {
  std::vector<std::pair<ElementId, double>> originals;
  std::vector<double> current;

  explicit OverrideSet(const Netlist& netlist,
                       const std::vector<TransientLane>& lanes) {
    for (const TransientLane& lane : lanes) {
      if (lane.element < 0) continue;
      bool seen = false;
      for (const auto& [el, ohms] : originals) seen = seen || el == lane.element;
      if (!seen)
        originals.emplace_back(lane.element, netlist.resistance(lane.element));
    }
    current.reserve(originals.size());
    for (const auto& [el, ohms] : originals) current.push_back(ohms);
  }

  void restore(Netlist& netlist) {
    for (std::size_t i = 0; i < originals.size(); ++i) {
      if (current[i] != originals[i].second)
        netlist.set_resistance(originals[i].first, originals[i].second);
      current[i] = originals[i].second;
    }
  }

  void apply(Netlist& netlist, const TransientLane& lane) {
    for (std::size_t i = 0; i < originals.size(); ++i) {
      const double want =
          originals[i].first == lane.element ? lane.ohms : originals[i].second;
      if (current[i] != want) {
        netlist.set_resistance(originals[i].first, want);
        current[i] = want;
      }
    }
  }
};

}  // namespace

std::vector<Waveform> BatchTransientSolver::run_serial(
    const std::vector<TransientLane>& lanes, const std::vector<NodeId>& probes,
    const Stimulus& stimulus) {
  OverrideSet overrides(netlist_, lanes);
  std::vector<Waveform> waves;
  waves.reserve(lanes.size());
  try {
    for (const TransientLane& lane : lanes) {
      overrides.apply(netlist_, lane);
      TransientSolver solver(netlist_, temp_c_, options_);
      waves.push_back(solver.run(probes, stimulus, &lane.initial_x));
    }
  } catch (...) {
    overrides.restore(netlist_);
    throw;
  }
  overrides.restore(netlist_);
  return waves;
}

std::vector<Waveform> BatchTransientSolver::run_lockstep(
    const std::vector<TransientLane>& lanes, const std::vector<NodeId>& probes,
    const Stimulus& stimulus) {
  using V = simd::Vec;
  constexpr std::size_t W = simd::kNativeWidth;

  const std::size_t K = lanes.size();
  const std::size_t st = simd::round_up_lanes(K);
  const StampPlan& p = *assembler_.plan();
  const std::size_t dim = p.dim;
  const std::size_t n_nodes = p.n_nodes;
  const std::size_t nnz = p.cols.size();
  const std::vector<Element>& elements = netlist_.elements();
  const bool use_simd_mos = kernel_config().simd == Kernel::Production;

  // Per-device constants, hoisted once (lane-invariant; see header contract).
  std::vector<MosfetLaneConsts> mos_consts;
  mos_consts.reserve(p.mosfets.size());
  for (const MosStamp& s : p.mosfets)
    mos_consts.push_back(mosfet_lane_consts(
        std::get<MosElement>(elements[static_cast<std::size_t>(s.el)].body)
            .device,
        temp_c_));

  // Loads and capacitances are immutable during the run (no netlist setter
  // exists for either), so the variant resolutions hoist out of the rounds.
  std::vector<const CurrentLoad*> load_models;
  load_models.reserve(p.loads.size());
  for (const LoadStamp& s : p.loads)
    load_models.push_back(
        std::get_if<CurrentLoad>(&elements[static_cast<std::size_t>(s.el)].body));
  std::vector<double> cap_farads;
  cap_farads.reserve(p.capacitors.size());
  for (const CapacitorStamp& s : p.capacitors)
    cap_farads.push_back(
        std::get<Capacitor>(elements[static_cast<std::size_t>(s.el)].body)
            .farads);

  // Lane-innermost SoA state: value[slot_or_row * st + lane].
  std::vector<double> base_vals(nnz * st, 0.0);
  std::vector<double> base_rhs(dim * st, 0.0);
  std::vector<double> jvals(nnz * st, 0.0);
  std::vector<double> resid(dim * st, 0.0);
  std::vector<double> rhs(dim * st, 0.0);
  std::vector<double> dx(dim * st, 0.0);
  std::vector<double> refine_r(dim * st, 0.0);
  std::vector<double> refine_e(dim * st, 0.0);
  std::vector<double> xcur(dim * st, 0.0);
  std::vector<double> xnext(dim * st, 0.0);
  std::vector<double> dt_lane(st, 1.0);  // padding stays 1.0 (finite g = C/dt)

  enum class LaneState : unsigned char { kStart, kNewton };
  std::vector<double> t(K, 0.0);
  std::vector<double> dt(K, options_.dt_initial);
  std::vector<int> iters(K, 0);
  std::vector<LaneState> state(K, LaneState::kStart);
  std::vector<unsigned char> done(K, 0);
  std::vector<unsigned char> evicted(K, 0);
  std::vector<unsigned char> active(st, 0);
  std::vector<unsigned char> group_active(st / W, 0);
  std::vector<unsigned char> lu_ok(st, 0);
  std::vector<unsigned char> residual_ok(K, 0);
  std::vector<unsigned char> refine(K, 0);
  std::vector<unsigned char> refine_group(st / W, 0);
  bool active_dirty = true;
  // Lane-indexed reduction scratch for the vectorized max-|dx| / max-|r|
  // passes and the per-lane Newton step scale (0.0 parks a lane: its xnext
  // is either dead or rebuilt from xcur at the next attempt start).
  std::vector<double> maxdv(st, 0.0);
  std::vector<double> maxres(st, 0.0);
  std::vector<double> scale_arr(st, 0.0);

  std::vector<Waveform> waves(K);
  const auto record = [&](std::size_t l) {
    waves[l].time.push_back(t[l]);
    for (std::size_t pi = 0; pi < probes.size(); ++pi) {
      const NodeId node = probes[pi];
      waves[l].values[pi].push_back(
          node == kGround ? 0.0
                          : xcur[static_cast<std::size_t>(node - 1) * st + l]);
    }
  };
  for (std::size_t l = 0; l < K; ++l) {
    waves[l].values.resize(probes.size());
    for (std::size_t i = 0; i < dim; ++i) xcur[i * st + l] = lanes[l].initial_x[i];
    record(l);
    if (!(t[l] < options_.t_stop)) done[l] = 1;
  }

  OverrideSet overrides(netlist_, lanes);

  // Replicates assemble_sparse's linear base freeze (elements.cpp) for the
  // netlist state currently applied, into lane l's base columns.
  const auto freeze_base_lane = [&](std::size_t l) {
    for (std::size_t s = 0; s < nnz; ++s) base_vals[s * st + l] = 0.0;
    for (std::size_t r = 0; r < dim; ++r) base_rhs[r * st + l] = 0.0;
    const auto add_slot = [&](int slot, double v) {
      if (slot >= 0) base_vals[static_cast<std::size_t>(slot) * st + l] += v;
    };
    for (const ResistorStamp& s : p.resistors) {
      const auto& r =
          std::get<Resistor>(elements[static_cast<std::size_t>(s.el)].body);
      const double g = 1.0 / r.ohms;
      add_slot(s.saa, g);
      add_slot(s.sab, -g);
      add_slot(s.sba, -g);
      add_slot(s.sbb, g);
    }
    for (const VSourceStamp& s : p.vsources) {
      const auto& v =
          std::get<VSource>(elements[static_cast<std::size_t>(s.el)].body);
      add_slot(s.s_p_br, 1.0);
      add_slot(s.s_br_p, 1.0);
      add_slot(s.s_n_br, -1.0);
      add_slot(s.s_br_n, -1.0);
      base_rhs[static_cast<std::size_t>(s.branch_row) * st + l] -= v.volts;
    }
    for (const ISourceStamp& s : p.isources) {
      const auto& i =
          std::get<ISource>(elements[static_cast<std::size_t>(s.el)].body);
      if (s.uf >= 0) base_rhs[static_cast<std::size_t>(s.uf) * st + l] += i.amps;
      if (s.ut >= 0) base_rhs[static_cast<std::size_t>(s.ut) * st + l] -= i.amps;
    }
    if (options_.dc.gmin > 0.0)
      for (std::size_t u = 0; u < n_nodes; ++u)
        base_vals[static_cast<std::size_t>(p.gmin_slots[u]) * st + l] +=
            options_.dc.gmin;
  };

  // ---- incremental refreeze machinery --------------------------------------
  // A lane's base changes between attempts only through the elements the
  // override and the stimulus mutate — typically one resistor and one
  // source out of the whole netlist. Rebuilding the full base per attempt
  // (freeze_base_lane) is the dominant per-attempt cost, so after the first
  // freeze each attempt only *diffs* the linear element values against the
  // lane's frozen copies and recomputes the touched slots/rows. A touched
  // slot is rebuilt by replaying just its own contributions in the same
  // global order the full freeze accumulates them (resistors, vsources,
  // gmin), so the recomputed value is bit-identical to a full refreeze.
  enum : unsigned char { kCbResistor, kCbUnit, kCbGmin, kCbVsVolt, kCbIsAmp };
  struct BaseContrib {
    unsigned char kind;
    int idx;      // index into p.resistors / p.vsources / p.isources
    double sign;  // +1.0 or -1.0
  };
  const std::size_t n_res = p.resistors.size();
  const std::size_t n_vs = p.vsources.size();
  const std::size_t n_is = p.isources.size();
  std::vector<std::vector<BaseContrib>> slot_contrib(nnz);
  std::vector<std::vector<BaseContrib>> rhs_contrib(dim);
  {
    const auto add_contrib = [&](int slot, unsigned char kind, int idx,
                                 double sign) {
      if (slot >= 0)
        slot_contrib[static_cast<std::size_t>(slot)].push_back(
            {kind, idx, sign});
    };
    for (std::size_t ri = 0; ri < n_res; ++ri) {
      const ResistorStamp& s = p.resistors[ri];
      add_contrib(s.saa, kCbResistor, static_cast<int>(ri), 1.0);
      add_contrib(s.sab, kCbResistor, static_cast<int>(ri), -1.0);
      add_contrib(s.sba, kCbResistor, static_cast<int>(ri), -1.0);
      add_contrib(s.sbb, kCbResistor, static_cast<int>(ri), 1.0);
    }
    for (std::size_t vi = 0; vi < n_vs; ++vi) {
      const VSourceStamp& s = p.vsources[vi];
      add_contrib(s.s_p_br, kCbUnit, static_cast<int>(vi), 1.0);
      add_contrib(s.s_br_p, kCbUnit, static_cast<int>(vi), 1.0);
      add_contrib(s.s_n_br, kCbUnit, static_cast<int>(vi), -1.0);
      add_contrib(s.s_br_n, kCbUnit, static_cast<int>(vi), -1.0);
      rhs_contrib[static_cast<std::size_t>(s.branch_row)].push_back(
          {kCbVsVolt, static_cast<int>(vi), -1.0});
    }
    for (std::size_t ii = 0; ii < n_is; ++ii) {
      const ISourceStamp& s = p.isources[ii];
      if (s.uf >= 0)
        rhs_contrib[static_cast<std::size_t>(s.uf)].push_back(
            {kCbIsAmp, static_cast<int>(ii), 1.0});
      if (s.ut >= 0)
        rhs_contrib[static_cast<std::size_t>(s.ut)].push_back(
            {kCbIsAmp, static_cast<int>(ii), -1.0});
    }
    if (options_.dc.gmin > 0.0)
      for (std::size_t u = 0; u < n_nodes; ++u)
        slot_contrib[static_cast<std::size_t>(p.gmin_slots[u])].push_back(
            {kCbGmin, 0, 1.0});
  }

  // Per-lane frozen copies of every linear element value the base was last
  // built from, plus diff scratch.
  std::vector<double> frozen_res(K * n_res, 0.0);
  std::vector<double> frozen_vs(K * n_vs, 0.0);
  std::vector<double> frozen_is(K * n_is, 0.0);
  std::vector<unsigned char> base_frozen(K, 0);
  std::vector<int> slot_epoch(nnz, -1);
  std::vector<int> row_epoch(dim, -1);
  std::vector<int> touched_slots;
  std::vector<int> touched_rows;
  int freeze_epoch = 0;

  // Direct pointers to every mutable linear element value. The element
  // vector is stable for the whole run (the topology is frozen under the
  // stamp plan; set_resistance / set_source_voltage / set_source_current
  // mutate in place), and these reads sit on the per-attempt hot path where
  // a variant access per element per attempt is measurable.
  std::vector<const double*> res_ohms_ptr(n_res);
  std::vector<const double*> vs_volts_ptr(n_vs);
  std::vector<const double*> is_amps_ptr(n_is);
  for (std::size_t ri = 0; ri < n_res; ++ri)
    res_ohms_ptr[ri] =
        &std::get<Resistor>(
             elements[static_cast<std::size_t>(p.resistors[ri].el)].body)
             .ohms;
  for (std::size_t vi = 0; vi < n_vs; ++vi)
    vs_volts_ptr[vi] =
        &std::get<VSource>(
             elements[static_cast<std::size_t>(p.vsources[vi].el)].body)
             .volts;
  for (std::size_t ii = 0; ii < n_is; ++ii)
    is_amps_ptr[ii] =
        &std::get<ISource>(
             elements[static_cast<std::size_t>(p.isources[ii].el)].body)
             .amps;
  const auto res_ohms = [&](std::size_t ri) { return *res_ohms_ptr[ri]; };
  const auto vs_volts = [&](std::size_t vi) { return *vs_volts_ptr[vi]; };
  const auto is_amps = [&](std::size_t ii) { return *is_amps_ptr[ii]; };

  const auto record_frozen = [&](std::size_t l) {
    for (std::size_t ri = 0; ri < n_res; ++ri)
      frozen_res[l * n_res + ri] = res_ohms(ri);
    for (std::size_t vi = 0; vi < n_vs; ++vi)
      frozen_vs[l * n_vs + vi] = vs_volts(vi);
    for (std::size_t ii = 0; ii < n_is; ++ii)
      frozen_is[l * n_is + ii] = is_amps(ii);
    base_frozen[l] = 1;
  };

  const auto delta_refreeze_lane = [&](std::size_t l) {
    ++freeze_epoch;
    touched_slots.clear();
    touched_rows.clear();
    const auto mark_slot = [&](int slot) {
      if (slot < 0) return;
      const std::size_t s = static_cast<std::size_t>(slot);
      if (slot_epoch[s] == freeze_epoch) return;
      slot_epoch[s] = freeze_epoch;
      touched_slots.push_back(slot);
    };
    const auto mark_row = [&](int row) {
      if (row < 0) return;
      const std::size_t r = static_cast<std::size_t>(row);
      if (row_epoch[r] == freeze_epoch) return;
      row_epoch[r] = freeze_epoch;
      touched_rows.push_back(row);
    };
    for (std::size_t ri = 0; ri < n_res; ++ri) {
      const double ohms = res_ohms(ri);
      double& frozen = frozen_res[l * n_res + ri];
      if (ohms == frozen) continue;
      frozen = ohms;
      const ResistorStamp& s = p.resistors[ri];
      mark_slot(s.saa);
      mark_slot(s.sab);
      mark_slot(s.sba);
      mark_slot(s.sbb);
    }
    for (std::size_t vi = 0; vi < n_vs; ++vi) {
      const double volts = vs_volts(vi);
      double& frozen = frozen_vs[l * n_vs + vi];
      if (volts == frozen) continue;
      frozen = volts;
      mark_row(p.vsources[vi].branch_row);  // the unit slots never change
    }
    for (std::size_t ii = 0; ii < n_is; ++ii) {
      const double amps = is_amps(ii);
      double& frozen = frozen_is[l * n_is + ii];
      if (amps == frozen) continue;
      frozen = amps;
      mark_row(p.isources[ii].uf);
      mark_row(p.isources[ii].ut);
    }
    for (const int slot : touched_slots) {
      double v = 0.0;
      for (const BaseContrib& cb :
           slot_contrib[static_cast<std::size_t>(slot)]) {
        if (cb.kind == kCbResistor) {
          const double g = 1.0 / res_ohms(static_cast<std::size_t>(cb.idx));
          v = cb.sign > 0.0 ? v + g : v - g;
        } else if (cb.kind == kCbUnit) {
          v += cb.sign;
        } else {  // kCbGmin
          v += options_.dc.gmin;
        }
      }
      base_vals[static_cast<std::size_t>(slot) * st + l] = v;
    }
    for (const int row : touched_rows) {
      double v = 0.0;
      for (const BaseContrib& cb :
           rhs_contrib[static_cast<std::size_t>(row)]) {
        const double val = cb.kind == kCbVsVolt
                               ? vs_volts(static_cast<std::size_t>(cb.idx))
                               : is_amps(static_cast<std::size_t>(cb.idx));
        v = cb.sign > 0.0 ? v + val : v - val;
      }
      base_rhs[static_cast<std::size_t>(row) * st + l] = v;
    }
  };

  SparseMatrix jac0(dim, p.row_ptr, p.cols);
  SparseLu lu0;
  SparseLuLanes llu;
  bool lu_bound = false;

  const auto evict = [&](std::size_t l) {
    evicted[l] = 1;
    active[l] = 0;
    active_dirty = true;
  };

  try {
    int round = 0;
    for (;;) {
      bool any_in_flight = false;
      for (std::size_t l = 0; l < K; ++l)
        any_in_flight = any_in_flight || (!done[l] && !evicted[l]);
      if (!any_in_flight) break;
      poll_cancel(options_.dc.cancel, "BatchTransientSolver", round++, 0.0);

      // --- start fresh step attempts: per-lane netlist context + base -----
      for (std::size_t l = 0; l < K; ++l) {
        if (done[l] || evicted[l] || state[l] != LaneState::kStart) continue;
        dt[l] = std::min(dt[l], options_.t_stop - t[l]);
        dt_lane[l] = dt[l];
        overrides.apply(netlist_, lanes[l]);
        if (stimulus) stimulus(t[l] + dt[l], netlist_);
        if (base_frozen[l]) {
          delta_refreeze_lane(l);
        } else {
          freeze_base_lane(l);
          record_frozen(l);
        }
        iters[l] = 0;
        for (std::size_t i = 0; i < dim; ++i)
          xnext[i * st + l] = xcur[i * st + l];
        state[l] = LaneState::kNewton;
      }
      // Whole vector groups with no in-flight lane are skipped by every
      // batched stage below: as heterogeneous lanes finish at different
      // rounds, the tail otherwise pays full-stride work for dead lanes.
      // The masks only change when a lane retires (done/evicted), so they
      // are rebuilt on that event rather than every round.
      if (active_dirty) {
        std::fill(active.begin(), active.end(), 0);
        for (std::size_t l = 0; l < K; ++l)
          if (!done[l] && !evicted[l]) active[l] = 1;
        for (std::size_t g = 0; g < st / W; ++g) {
          unsigned char any = 0;
          for (std::size_t l = g * W; l < g * W + W && l < K; ++l)
            any |= active[l];
          group_active[g] = any;
        }
        active_dirty = false;
      }

      // --- batched assembly: one Newton iteration's system per lane -------
      // Linear part: jvals = base, residual = A_base x + base_rhs, vector
      // over lanes in the serial slot order (elementwise per lane, so the
      // scalar arithmetic is reproduced bit for bit).
      for (std::size_t r = 0; r < dim; ++r) {
        const int s0 = p.row_ptr[r];
        const int s1 = p.row_ptr[r + 1];
        for (std::size_t l = 0; l < st; l += W) {
          if (!group_active[l / W]) continue;
          V acc = V::load(&base_rhs[r * st + l]);
          for (int s = s0; s < s1; ++s) {
            const std::size_t ss = static_cast<std::size_t>(s);
            const V v = V::load(&base_vals[ss * st + l]);
            v.store(&jvals[ss * st + l]);
            acc = acc +
                  v * V::load(&xnext[static_cast<std::size_t>(p.cols[ss]) * st +
                                     l]);
          }
          acc.store(&resid[r * st + l]);
        }
      }

      // MOSFET restamps: the only kind-dependent stage. Scalar runs the
      // hoisted-constant scalar model per lane (bit-identical to
      // Mosfet::eval); Simd evaluates W lanes per instruction with the
      // vectorized model (documented ulp tolerance).
      if (use_simd_mos) {
        const V vzero = V::zero();
        const auto xat_v = [&](int u, std::size_t l) {
          return u < 0 ? vzero
                       : V::load(&xnext[static_cast<std::size_t>(u) * st + l]);
        };
        const auto add_slot_v = [&](int slot, std::size_t l, V v) {
          if (slot < 0) return;
          double* dst = &jvals[static_cast<std::size_t>(slot) * st + l];
          (V::load(dst) + v).store(dst);
        };
        for (std::size_t mi = 0; mi < p.mosfets.size(); ++mi) {
          const MosStamp& s = p.mosfets[mi];
          const MosfetLaneConsts& c = mos_consts[mi];
          for (std::size_t l = 0; l < st; l += W) {
            if (!group_active[l / W]) continue;
            const MosEvalV<V> e =
                lane_eval_v(c, xat_v(s.ug, l), xat_v(s.ud, l), xat_v(s.us, l));
            if (s.ud >= 0) {
              double* dst = &resid[static_cast<std::size_t>(s.ud) * st + l];
              (V::load(dst) + e.id).store(dst);
            }
            if (s.us >= 0) {
              double* dst = &resid[static_cast<std::size_t>(s.us) * st + l];
              (V::load(dst) - e.id).store(dst);
            }
            add_slot_v(s.s_dg, l, e.gm);
            add_slot_v(s.s_dd, l, e.gds);
            add_slot_v(s.s_ds, l, e.gms);
            add_slot_v(s.s_sg, l, vzero - e.gm);
            add_slot_v(s.s_sd, l, vzero - e.gds);
            add_slot_v(s.s_ss, l, vzero - e.gms);
          }
        }
      } else {
        const auto xat = [&](int u, std::size_t l) {
          return u < 0 ? 0.0 : xnext[static_cast<std::size_t>(u) * st + l];
        };
        for (std::size_t l = 0; l < K; ++l) {
          if (!active[l]) continue;
          const auto add_slot = [&](int slot, double v) {
            if (slot >= 0) jvals[static_cast<std::size_t>(slot) * st + l] += v;
          };
          for (std::size_t mi = 0; mi < p.mosfets.size(); ++mi) {
            const MosStamp& s = p.mosfets[mi];
            const MosEval e = lane_eval(mos_consts[mi], xat(s.ug, l),
                                        xat(s.ud, l), xat(s.us, l));
            if (s.ud >= 0) resid[static_cast<std::size_t>(s.ud) * st + l] += e.id;
            if (s.us >= 0) resid[static_cast<std::size_t>(s.us) * st + l] -= e.id;
            add_slot(s.s_dg, e.gm);
            add_slot(s.s_dd, e.gds);
            add_slot(s.s_ds, e.gms);
            add_slot(s.s_sg, -e.gm);
            add_slot(s.s_sd, -e.gds);
            add_slot(s.s_ss, -e.gms);
          }
        }
      }

      // Current loads: scalar closures, evaluated per in-flight lane.
      for (std::size_t l = 0; l < K; ++l) {
        if (!active[l]) continue;
        for (std::size_t li = 0; li < p.loads.size(); ++li) {
          const LoadStamp& s = p.loads[li];
          const CurrentLoad& load = *load_models[li];
          const double v =
              s.u < 0 ? 0.0 : xnext[static_cast<std::size_t>(s.u) * st + l];
          const auto [i, didv] = load.iv(v, temp_c_);
          if (s.u >= 0) resid[static_cast<std::size_t>(s.u) * st + l] += i;
          if (s.slot >= 0)
            jvals[static_cast<std::size_t>(s.slot) * st + l] += didv;
        }
      }

      // Capacitors (backward-Euler companions) with per-lane dt; vector ops
      // are elementwise, so each lane matches the serial arithmetic.
      {
        const V vzero = V::zero();
        const auto col_v = [&](const std::vector<double>& x, int u,
                               std::size_t l) {
          return u < 0 ? vzero
                       : V::load(&x[static_cast<std::size_t>(u) * st + l]);
        };
        for (std::size_t ci = 0; ci < p.capacitors.size(); ++ci) {
          const CapacitorStamp& s = p.capacitors[ci];
          if (cap_farads[ci] <= 0.0) continue;
          const V farads = V::broadcast(cap_farads[ci]);
          for (std::size_t l = 0; l < st; l += W) {
            if (!group_active[l / W]) continue;
            const V g = farads / V::load(&dt_lane[l]);
            const V vab = col_v(xnext, s.ua, l) - col_v(xnext, s.ub, l);
            const V vab_prev = col_v(xcur, s.ua, l) - col_v(xcur, s.ub, l);
            const V i = g * (vab - vab_prev);
            if (s.ua >= 0) {
              double* dst = &resid[static_cast<std::size_t>(s.ua) * st + l];
              (V::load(dst) + i).store(dst);
            }
            if (s.ub >= 0) {
              double* dst = &resid[static_cast<std::size_t>(s.ub) * st + l];
              (V::load(dst) - i).store(dst);
            }
            const auto add_slot_v = [&](int slot, V v) {
              if (slot < 0) return;
              double* dst = &jvals[static_cast<std::size_t>(slot) * st + l];
              (V::load(dst) + v).store(dst);
            };
            add_slot_v(s.saa, g);
            add_slot_v(s.sab, vzero - g);
            add_slot_v(s.sba, vzero - g);
            add_slot_v(s.sbb, g);
          }
        }
      }

      // Residual acceptance + Newton right-hand side (unary minus, exactly
      // as step_sparse writes it). The max reduction runs lanes-inner with
      // blend(acc < x) rather than V::max so each lane reproduces
      // std::max's operand ordering (a NaN never displaces the
      // accumulator), exactly like the scalar loop it replaces.
      // The rhs negation rides in the same pass (V::neg is an exact
      // sign-bit flip, so rhs matches the scalar `-resid` to the bit) and
      // inherits the group mask, instead of a second full-stride sweep.
      for (std::size_t l = 0; l < st; l += W) {
        if (!group_active[l / W]) continue;
        V acc = V::zero();
        for (std::size_t r = 0; r < dim; ++r) {
          const V v = V::load(&resid[r * st + l]);
          const V x = V::abs(v);
          acc = V::blend(V::cmp_lt(acc, x), x, acc);
          V::neg(v).store(&rhs[r * st + l]);
        }
        acc.store(&maxres[l]);
      }
      for (std::size_t l = 0; l < K; ++l)
        if (active[l])
          residual_ok[l] = maxres[l] < options_.dc.residual_tolerance ? 1 : 0;

      // --- lane-batched LU -----------------------------------------------
      if (!lu_bound) {
        std::size_t repr = 0;
        while (repr < K && !active[repr]) ++repr;
        for (std::size_t s = 0; s < nnz; ++s)
          jac0.values()[s] = jvals[s * st + repr];
        try {
          lu0.factor(jac0);
        } catch (const ConvergenceError&) {
          // Representative Jacobian singular: no shared pivot order exists;
          // let the serial fallback reproduce the per-lane behaviour.
          for (std::size_t l = 0; l < K; ++l)
            if (active[l]) evict(l);
          continue;
        }
        llu.bind(lu0, K);
        lu_bound = true;
      }
      // Refactor fused with the forward substitution (the rhs is already
      // final from the residual stage): one pass over L instead of two,
      // bit-identical to refactor() followed by solve().
      llu.refactor_fused_forward(jvals.data(), rhs.data(), active.data(),
                                 lu_ok.data());
      for (std::size_t l = 0; l < K; ++l)
        if (active[l] && !lu_ok[l]) evict(l);
      bool any_active = false;
      for (std::size_t l = 0; l < K; ++l) any_active = any_active || active[l];
      if (!any_active) continue;
      llu.solve_fused_back(dx.data());

      // Vectorized max-|dx| over the node rows, shared by the refine gate
      // and the Newton step control below. blend(acc < x) instead of V::max
      // reproduces std::max's operand ordering per lane (a NaN operand
      // never displaces the accumulator), so maxdv[l] is bit-identical to
      // the scalar reduction.
      const auto reduce_maxdv = [&](const std::vector<unsigned char>& groups) {
        for (std::size_t l = 0; l < st; l += W) {
          if (!groups[l / W]) continue;
          V acc = V::zero();
          for (std::size_t i = 0; i < n_nodes; ++i) {
            const V x = V::abs(V::load(&dx[i * st + l]));
            acc = V::blend(V::cmp_lt(acc, x), x, acc);
          }
          acc.store(&maxdv[l]);
        }
      };
      reduce_maxdv(group_active);

      // Endgame refinement (transient.cpp applies refine_step when the
      // plain step is already small): every follow-up stage — residual
      // matvec, second substitution, correction — runs only over the vector
      // groups that hold a refining lane, which keeps the endgame of a few
      // straggler lanes from paying full-batch work each round.
      bool any_refine = false;
      std::fill(refine.begin(), refine.end(), 0);
      std::fill(refine_group.begin(), refine_group.end(), 0);
      for (std::size_t l = 0; l < K; ++l) {
        if (!active[l]) continue;
        if (maxdv[l] < kSparseRefineDvThreshold) {
          refine[l] = 1;
          refine_group[l / W] = 1;
          any_refine = true;
        }
      }
      if (any_refine) {
        // r = b - A x in the serial slot order; the correction is applied
        // only where the serial path would refine.
        for (std::size_t r = 0; r < dim; ++r) {
          const int s0 = p.row_ptr[r];
          const int s1 = p.row_ptr[r + 1];
          for (std::size_t l = 0; l < st; l += W) {
            if (!refine_group[l / W]) continue;
            V acc = V::load(&rhs[r * st + l]);
            for (int s = s0; s < s1; ++s) {
              const std::size_t ss = static_cast<std::size_t>(s);
              acc = acc -
                    V::load(&jvals[ss * st + l]) *
                        V::load(&dx[static_cast<std::size_t>(p.cols[ss]) * st +
                                    l]);
            }
            acc.store(&refine_r[r * st + l]);
          }
        }
        llu.solve(refine_r.data(), refine_e.data(), refine_group.data());
        for (std::size_t l = 0; l < K; ++l)
          if (refine[l])
            for (std::size_t i = 0; i < dim; ++i)
              dx[i * st + l] += refine_e[i * st + l];
        // The correction moved dx in the refining groups; their step
        // heights are re-reduced (non-refining lanes in those groups have
        // unchanged dx, so recomputing the whole group is a no-op for
        // them).
        reduce_maxdv(refine_group);
      }

      // --- per-lane Newton update and step control ------------------------
      // The Newton step xnext += scale * dx runs lanes-inner with a
      // per-lane scale: 0.0 parks inactive and failed-step lanes (their
      // xnext is dead, or rebuilt from xcur at the next attempt start, so a
      // parked lane's 0 * dx never becomes observable even when dx is
      // non-finite); active lanes see exactly the scalar multiply-add.
      for (std::size_t l = 0; l < K; ++l) {
        scale_arr[l] = 0.0;
        if (!active[l]) continue;
        const double max_dv = maxdv[l];
        if (std::isfinite(max_dv))
          scale_arr[l] = max_dv > options_.dc.step_limit
                             ? options_.dc.step_limit / max_dv
                             : 1.0;
      }
      for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t l = 0; l < st; l += W) {
          if (!group_active[l / W]) continue;
          double* xp = &xnext[i * st + l];
          (V::load(xp) + V::load(&scale_arr[l]) * V::load(&dx[i * st + l]))
              .store(xp);
        }
      }
      for (std::size_t l = 0; l < K; ++l) {
        if (!active[l]) continue;
        const bool step_failed = !std::isfinite(maxdv[l]);
        bool converged = false;
        if (!step_failed) {
          converged =
              maxdv[l] < options_.dc.v_tolerance || residual_ok[l] != 0;
          ++iters[l];
        }

        if (converged) {
          for (std::size_t i = 0; i < dim; ++i)
            xcur[i * st + l] = xnext[i * st + l];
          t[l] += dt[l];
          record(l);
          dt[l] = std::min(dt[l] * 1.5, options_.dt_max);
          if (!(t[l] < options_.t_stop)) {
            done[l] = 1;
            active_dirty = true;
          } else {
            state[l] = LaneState::kStart;
          }
        } else if (step_failed || iters[l] >= options_.dc.max_iterations) {
          dt[l] *= 0.25;
          if (dt[l] < options_.dt_min)
            evict(l);  // serial fallback reproduces the underflow throw
          else
            state[l] = LaneState::kStart;
        }
        // else: keep iterating this attempt next round.
      }
    }

    // --- serial fallback for evicted lanes -------------------------------
    for (std::size_t l = 0; l < K; ++l) {
      if (!evicted[l]) continue;
      ++evictions_;
      overrides.apply(netlist_, lanes[l]);
      TransientSolver solver(netlist_, temp_c_, options_);
      waves[l] = solver.run(probes, stimulus, &lanes[l].initial_x);
    }
  } catch (...) {
    overrides.restore(netlist_);
    throw;
  }
  overrides.restore(netlist_);
  return waves;
}

}  // namespace lpsram
