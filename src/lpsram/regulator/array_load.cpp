#include "lpsram/regulator/array_load.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "lpsram/cell/snm.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/kernel_config.hpp"

namespace lpsram {

struct ArrayLoadTable {
  std::vector<double> v;       // grid
  std::vector<double> i_leak;  // per-cell leakage on grid
  std::vector<double> i_meta;  // per-cell crossover current on grid
};

namespace {

// Piecewise-linear interpolation with clamped ends.
double interp(const std::vector<double>& xs, const std::vector<double>& ys,
              double x) {
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double f = (x - xs[lo]) / (xs[hi] - xs[lo]);
  return ys[lo] + f * (ys[hi] - ys[lo]);
}

double interp_slope(const std::vector<double>& xs,
                    const std::vector<double>& ys, double x) {
  if (x <= xs.front() || x >= xs.back()) return 0.0;
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  return (ys[hi] - ys[lo]) / (xs[hi] - xs[lo]);
}

ArrayLoadTable build_table(const CoreCell& cell, double temp_c) {
  constexpr int kPoints = ArrayLoadModel::kGridPoints;
  ArrayLoadTable table;
  table.v.resize(kPoints);
  table.i_leak.resize(kPoints);
  table.i_meta.resize(kPoints);
  for (int k = 0; k < kPoints; ++k) {
    const double v = ArrayLoadModel::kGridMax * k / (kPoints - 1);
    table.v[k] = v;
    if (v < 1e-6) {
      table.i_leak[k] = 0.0;
      table.i_meta[k] = 0.0;
      continue;
    }
    // Hold-state leakage: solve the equilibrium the cell actually sits in.
    const HoldState state = hold_equilibrium(cell, StoredBit::One, v, temp_c);
    table.i_leak[k] =
        std::max(0.0, cell.supply_current(state.v_s, state.v_sb, v, temp_c));
    // Crossover current: both inverters at the metastable midpoint.
    table.i_meta[k] = std::max(
        table.i_leak[k], cell.supply_current(0.5 * v, 0.5 * v, v, temp_c));
  }
  return table;
}

// Every numeric MosfetParams field; a field added to the device model must
// be added here too, or cells that differ only in it would share a table.
constexpr double MosfetParams::*kParamFields[] = {
    &MosfetParams::vth0,    &MosfetParams::kp,      &MosfetParams::w,
    &MosfetParams::l,       &MosfetParams::n_slope, &MosfetParams::lambda,
    &MosfetParams::vth_tc,  &MosfetParams::mob_exp, &MosfetParams::cgate,
    &MosfetParams::dvth,    &MosfetParams::mob_factor};

// Everything that shapes a table: the six corner-applied device parameter
// sets of the nominal cell (type + numeric fields), the exact temperature,
// and the kernels the cell analysis dispatches to.
constexpr std::size_t kWordsPerDevice = 1 + std::size(kParamFields);
using TableKey = std::array<std::uint64_t,
                            kAllCellTransistors.size() * kWordsPerDevice + 3>;

TableKey table_key(const CoreCell& cell, double temp_c) {
  TableKey key{};
  std::size_t n = 0;
  for (const CellTransistor t : kAllCellTransistors) {
    const MosfetParams& p = cell.transistor(t).params();
    key[n++] = static_cast<std::uint64_t>(p.type);
    for (const auto field : kParamFields) key[n++] = key_bits(p.*field);
  }
  key[n++] = key_bits(temp_c);
  const KernelConfig kernels = kernel_config();
  key[n++] = static_cast<std::uint64_t>(kernels.cell);
  key[n++] = static_cast<std::uint64_t>(kernels.simd);
  return key;
}

struct RegistryEntry {
  std::once_flag built;
  ArrayLoadTable table;
};

// Process-wide table registry. The mutex guards only the map (find or
// create an entry); each entry is built outside it, exactly once, and is
// never mutated or erased afterwards, so references handed out stay valid
// for the life of the process.
struct TableRegistry {
  std::mutex mutex;
  std::map<TableKey, std::unique_ptr<RegistryEntry>> entries;
  std::atomic<std::size_t> tables_built{0};
};

TableRegistry& table_registry() {
  static TableRegistry registry;
  return registry;
}

const ArrayLoadTable& shared_table(const CoreCell& cell, double temp_c) {
  const TableKey key = table_key(cell, temp_c);
  TableRegistry& registry = table_registry();
  RegistryEntry* entry = nullptr;
  {
    const std::lock_guard<std::mutex> lock(registry.mutex);
    auto& slot = registry.entries[key];
    if (!slot) slot = std::make_unique<RegistryEntry>();
    entry = slot.get();
  }
  std::call_once(entry->built, [&] {
    entry->table = build_table(cell, temp_c);
    registry.tables_built.fetch_add(1, std::memory_order_relaxed);
  });
  return entry->table;
}

}  // namespace

std::size_t array_load_tables_built() noexcept {
  return table_registry().tables_built.load(std::memory_order_relaxed);
}

ArrayLoadModel::ArrayLoadModel(const Technology& tech, Corner corner,
                               const Options& options)
    : options_(options), cell_(tech, CellVariation{}, corner) {
  if (options_.weak_cells > 0 && !(options_.weak_drv > 0.0))
    throw InvalidArgument("ArrayLoadModel: weak cells need a positive DRV");
}

const ArrayLoadTable& ArrayLoadModel::table_for(double temp_c) const {
  const int key = static_cast<int>(std::lround(temp_c * 4.0));
  const auto found = tables_.find(key);
  if (found != tables_.end()) return *found->second;
  const ArrayLoadTable& table = shared_table(cell_, temp_c);
  tables_.emplace(key, &table);
  return table;
}

double ArrayLoadModel::cell_leakage(double v, double temp_c) const {
  const ArrayLoadTable& t = table_for(temp_c);
  return interp(t.v, t.i_leak, v);
}

double ArrayLoadModel::cell_crossover(double v, double temp_c) const {
  const ArrayLoadTable& t = table_for(temp_c);
  return interp(t.v, t.i_meta, v);
}

double ArrayLoadModel::current(double v, double temp_c) const {
  const ArrayLoadTable& t = table_for(temp_c);
  double i = static_cast<double>(options_.total_cells) * interp(t.v, t.i_leak, v);
  if (options_.weak_cells > 0) {
    // Fraction of weak cells riding the metastable region: ramps up as the
    // supply falls into [drv, drv + flip_band].
    const double x = (options_.weak_drv + options_.flip_band - v) /
                     options_.flip_band;
    const double frac = std::clamp(x, 0.0, 1.0);
    const double extra = interp(t.v, t.i_meta, v) - interp(t.v, t.i_leak, v);
    i += static_cast<double>(options_.weak_cells) * frac * std::max(0.0, extra);
  }
  return i;
}

double ArrayLoadModel::conductance(double v, double temp_c) const {
  const ArrayLoadTable& t = table_for(temp_c);
  // The weak-cell flip ramp's (negative) slope is left out so Newton keeps a
  // positive load conductance.
  const double g =
      static_cast<double>(options_.total_cells) * interp_slope(t.v, t.i_leak, v);
  return std::max(g, 0.0);
}

CurrentLoadFn ArrayLoadModel::load_function() const {
  // The netlist keeps the load by value; capture a copy of `this` state via
  // shared ownership of a heap clone so the function outlives the model.
  auto model = std::make_shared<ArrayLoadModel>(*this);
  return [model](double v, double temp_c) {
    return std::make_pair(model->current(v, temp_c),
                          model->conductance(v, temp_c));
  };
}

}  // namespace lpsram
