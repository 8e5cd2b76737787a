#include "lpsram/util/kernel_config.hpp"

#include <atomic>
#include <cstddef>
#include <iterator>

namespace lpsram {
namespace {

// One byte per field in the atomic word, in declaration order.
constexpr Kernel KernelConfig::*kFields[] = {
    &KernelConfig::linear_solver, &KernelConfig::cell, &KernelConfig::simd,
    &KernelConfig::transient, &KernelConfig::yield_exact};

constexpr std::uint64_t pack(const KernelConfig& config) noexcept {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < std::size(kFields); ++i)
    word |= std::uint64_t{static_cast<std::uint8_t>(config.*kFields[i])}
            << (8 * i);
  return word;
}

KernelConfig unpack(std::uint64_t word) noexcept {
  KernelConfig config;
  for (std::size_t i = 0; i < std::size(kFields); ++i)
    config.*kFields[i] = static_cast<Kernel>((word >> (8 * i)) & 0xff);
  return config;
}

constinit std::atomic<std::uint64_t> g_config{pack(KernelConfig{})};

}  // namespace

KernelConfig kernel_config() noexcept {
  return unpack(g_config.load(std::memory_order_relaxed));
}

ScopedKernelConfig::ScopedKernelConfig(Kernel KernelConfig::*field,
                                       Kernel kernel) noexcept
    : previous_(kernel_config()) {
  KernelConfig config = previous_;
  config.*field = kernel;
  g_config.store(pack(config), std::memory_order_relaxed);
}

ScopedKernelConfig::~ScopedKernelConfig() {
  g_config.store(pack(previous_), std::memory_order_relaxed);
}

}  // namespace lpsram
