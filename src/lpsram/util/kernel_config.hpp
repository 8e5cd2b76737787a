// Process-wide kernel selection: one switch per layer, each naming either
// the production kernel or the reference it is checked against.
//
// Every layer with two implementations of one computation keeps the simpler
// one as the oracle its equivalence suite compares against; the serial
// transient and one-at-a-time yield paths double as the fallbacks an
// evicted lane re-runs on. Production code never selects a reference —
// tests and benchmarks pin one with a ScopedKernelConfig, which flips the
// whole stack without threading an option through every call site.
#pragma once

#include <cstdint>

namespace lpsram {

// The numeric values are folded into campaign manifests
// (runtime/sweep.hpp fold_kernel_kinds), so they are part of the journal
// format: changing them refuses every journal recorded before.
enum class Kernel : std::uint8_t {
  Reference = 1,
  Production = 2,
};

struct KernelConfig {
  // Newton's linear solve (DC and transient): sparse LU (util/sparse) or
  // the dense LU (util/matrix).
  Kernel linear_solver = Kernel::Production;
  // Hold SNM / DRV / VTC analyses: the batched lane engine
  // (cell/batch_vtc) or the scalar Brent path.
  Kernel cell = Kernel::Production;
  // Lane kernels' device math: the vectorized exp/log1p expression tree
  // (util/simd) or the per-lane libm oracle.
  Kernel simd = Kernel::Production;
  // Defect transients: lockstep lanes (spice/batch_transient) or one
  // TransientSolver per lane.
  Kernel transient = Kernel::Production;
  // Yield candidate exact solves: cross-cell lane batches or one cell at a
  // time (stats/yield/engine).
  Kernel yield_exact = Kernel::Production;

  bool operator==(const KernelConfig&) const = default;
};

// The config every kernel dispatches on: all Production unless a scope is
// open. Atomic, so sweeps may read it while another thread holds a scope.
KernelConfig kernel_config() noexcept;

// Overrides one field of the process config for its lifetime, e.g.
// ScopedKernelConfig(&KernelConfig::simd, Kernel::Reference), and restores
// the previous config on destruction. Scopes nest; open and close them on
// one thread.
class ScopedKernelConfig {
 public:
  ScopedKernelConfig(Kernel KernelConfig::*field, Kernel kernel) noexcept;
  ~ScopedKernelConfig();

  ScopedKernelConfig(const ScopedKernelConfig&) = delete;
  ScopedKernelConfig& operator=(const ScopedKernelConfig&) = delete;

 private:
  KernelConfig previous_;
};

}  // namespace lpsram
