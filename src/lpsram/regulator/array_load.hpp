// Aggregate electrical load the core-cell array presents to the regulated
// VDD_CC line in deep-sleep mode.
//
// Two components, both derived from the cell model rather than fitted:
//  * baseline leakage: N_cells x per-cell hold-state supply current, computed
//    from the 6T equilibrium at each supply voltage (weak-inversion EKV, so
//    the strong temperature dependence the paper leans on — "minimal
//    resistance values of defects occur always at high temperatures" — comes
//    out naturally);
//  * weak-cell flip current: when Vreg approaches the DRV of cells weakened
//    by variation, those cells ride through their metastable region and draw
//    crossover current. This is the CS5 mechanism: with 64 weak cells the
//    extra demand degrades Vreg further, so smaller defect resistances
//    already cause retention faults (paper Section IV.B, last paragraph).
//
// The per-cell I-V tables depend only on the nominal cell at one (corner,
// temperature), so they live in a process-wide registry shared by every
// model: each distinct table is built once per process, never mutated and
// never freed (see DESIGN.md, concurrency model).
#pragma once

#include <cstddef>
#include <map>

#include "lpsram/cell/core_cell.hpp"
#include "lpsram/spice/netlist.hpp"

namespace lpsram {

// One immutable per-cell I-V table of the registry (array_load.cpp).
struct ArrayLoadTable;

class ArrayLoadModel {
 public:
  // Tabulation grid: kGridPoints supply voltages evenly spaced over
  // [0, kGridMax] V. 2.5 mV spacing: fine enough that the piecewise-linear
  // slope changes stay below Newton's damping and never cause limit cycling
  // in the DC solver.
  static constexpr int kGridPoints = 541;
  static constexpr double kGridMax = 1.35;

  struct Options {
    std::size_t total_cells = 256 * 1024;  // 4Kx64 reference block
    std::size_t weak_cells = 0;            // cells affected by variation
    double weak_drv = 0.0;                 // DRV of the weak cells [V]
    // Width of the supply band just above DRV in which weak cells start to
    // ride their metastable region [V].
    double flip_band = 0.05;
  };

  ArrayLoadModel(const Technology& tech, Corner corner, const Options& options);

  // Aggregate current drawn from VDD_CC at voltage v [A].
  double current(double v, double temp_c) const;
  // Derivative d(current)/dv [A/V] (from the interpolation grid).
  double conductance(double v, double temp_c) const;

  // Per-cell hold leakage [A] (diagnostic).
  double cell_leakage(double v, double temp_c) const;
  // Crossover current of one cell riding its metastable point [A].
  double cell_crossover(double v, double temp_c) const;

  // Netlist hook: nonlinear grounded load evaluating {I, dI/dV}.
  CurrentLoadFn load_function() const;

  const Options& options() const noexcept { return options_; }

 private:
  const ArrayLoadTable& table_for(double temp_c) const;

  Options options_;
  CoreCell cell_;
  // Registry tables this model has looked up, keyed by rounded temperature;
  // the first temperature seen under a key picks the table. Not
  // thread-safe, like the rest of the model: one instance per solver.
  mutable std::map<int, const ArrayLoadTable*> tables_;
};

// Number of tables the process-wide registry has built so far (diagnostic;
// one per distinct key, however many models share it).
std::size_t array_load_tables_built() noexcept;

}  // namespace lpsram
