#include "lpsram/util/simd.hpp"

namespace lpsram {

std::size_t simd_width() noexcept { return simd::kNativeWidth; }

const char* simd_backend_name() noexcept { return simd::kBackendName; }

}  // namespace lpsram
