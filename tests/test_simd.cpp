// Property tests for the portable SIMD layer (util/simd.hpp): the
// vexp/vlog1p max-ulp contracts against libm over the MOSFET operating
// range, remainder/padding handling and backend identity. The suite is sanitizer-clean by construction (no reads past
// round_up_lanes buffers) and is part of the TSan/ASan/UBSan CI jobs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "lpsram/util/kernel_config.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {
namespace {

using simd::Vec;
constexpr std::size_t W = simd::kNativeWidth;

// Distance in units-in-the-last-place between two finite doubles, measured
// on the integer lattice of their bit patterns (same-sign assumption holds
// for every case the contracts cover).
double ulp_distance(double a, double b) {
  if (a == b) return 0.0;
  std::int64_t ia;
  std::int64_t ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  return std::fabs(static_cast<double>(ia - ib));
}

std::vector<double> lane_apply(Vec (*fn)(Vec), const std::vector<double>& xs) {
  std::vector<double> padded(simd::round_up_lanes(xs.size()), 0.0);
  std::copy(xs.begin(), xs.end(), padded.begin());
  std::vector<double> out(padded.size(), 0.0);
  for (std::size_t i = 0; i < padded.size(); i += W)
    fn(Vec::load(&padded[i])).store(&out[i]);
  out.resize(xs.size());
  return out;
}

// ---------- ulp contracts --------------------------------------------------------

TEST(SimdMath, VexpUlpContractOverOperatingRange) {
  // The MOSFET model feeds vexp arguments in roughly [-90, 40] (vgs/vt
  // ratios times subthreshold slopes); sweep well beyond on both sides.
  std::vector<double> xs;
  for (double x = -120.0; x <= 60.0; x += 7.7e-3) xs.push_back(x);
  // Dense coverage near zero where exp is most sensitive in ulp terms.
  for (double x = -1.0; x <= 1.0; x += 1.3e-5) xs.push_back(x);

  const std::vector<double> got = lane_apply(&simd::vexp<Vec>, xs);
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expect = std::exp(xs[i]);
    const double ulps = ulp_distance(got[i], expect);
    worst = std::max(worst, ulps);
    ASSERT_LE(ulps, simd::kVexpMaxUlp)
        << "x = " << xs[i] << " got " << got[i] << " libm " << expect;
  }
  RecordProperty("worst_ulp", std::to_string(worst));
}

TEST(SimdMath, VexpClampsExtremeArguments) {
  const std::vector<double> xs = {-1e4, -701.0, 700.0 - 1e-9};
  const std::vector<double> got = lane_apply(&simd::vexp<Vec>, xs);
  EXPECT_GT(got[0], 0.0);  // clamped, not flushed to an IEEE zero
  EXPECT_GT(got[1], 0.0);
  EXPECT_TRUE(std::isfinite(got[2]));
}

TEST(SimdMath, Vlog1pUlpContractOverOperatingRange) {
  // softplus/log1p arguments in the device model are exp() outputs: span
  // tiny positives through large magnitudes, plus the delicate region
  // around 0 where log1p exists to save precision.
  std::vector<double> xs;
  for (double x = -0.9999; x <= 1.0; x += 2.3e-5) xs.push_back(x);
  for (double x = 1.0; x <= 1e6; x *= 1.37) xs.push_back(x);
  for (double x = 1e-12; x <= 1e-3; x *= 1.91) xs.push_back(x);

  const std::vector<double> got = lane_apply(&simd::vlog1p<Vec>, xs);
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expect = std::log1p(xs[i]);
    if (expect == 0.0) {
      EXPECT_EQ(got[i], expect) << "x = " << xs[i];
      continue;
    }
    const double ulps = ulp_distance(got[i], expect);
    worst = std::max(worst, ulps);
    ASSERT_LE(ulps, simd::kVlog1pMaxUlp)
        << "x = " << xs[i] << " got " << got[i] << " libm " << expect;
  }
  RecordProperty("worst_ulp", std::to_string(worst));
}

// ---------- lane mechanics -------------------------------------------------------

TEST(SimdLanes, RoundUpLanesCoversRemainders) {
  EXPECT_EQ(simd::round_up_lanes(0), 0u);
  for (std::size_t n = 1; n <= 3 * W; ++n) {
    const std::size_t r = simd::round_up_lanes(n);
    EXPECT_GE(r, n);
    EXPECT_LT(r, n + W);
    EXPECT_EQ(r % W, 0u);
  }
}

TEST(SimdLanes, ElementwiseOpsMatchScalarBitwise) {
  // The bit-exactness taxonomy rests on elementwise lane ops reproducing
  // the scalar program: verify +,-,*,/ and fma lanes against scalar doubles.
  std::vector<double> a(W), b(W), c(W);
  for (std::size_t i = 0; i < W; ++i) {
    a[i] = 1.37e-3 * static_cast<double>(i + 1) / 3.0;
    b[i] = -2.11e2 / static_cast<double>(i + 2);
    c[i] = 7.77e-7 * static_cast<double>(i * i + 1);
  }
  const Vec va = Vec::load(a.data());
  const Vec vb = Vec::load(b.data());
  const Vec vc = Vec::load(c.data());

  std::vector<double> out(W);
  (va + vb).store(out.data());
  for (std::size_t i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] + b[i]);
  (va - vb).store(out.data());
  for (std::size_t i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] - b[i]);
  (va * vb).store(out.data());
  for (std::size_t i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] * b[i]);
  (va / vb).store(out.data());
  for (std::size_t i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] / b[i]);
  Vec::fma(va, vb, vc).store(out.data());
  for (std::size_t i = 0; i < W; ++i)
    EXPECT_EQ(out[i], std::fma(a[i], b[i], c[i]));
}

TEST(SimdLanes, VexpIsLanePositionIndependent) {
  // A value's vexp must not depend on which lane carries it or on the
  // padding values around it.
  const double x = -13.37;
  const double reference = lane_apply(&simd::vexp<Vec>, {x})[0];
  for (std::size_t pos = 0; pos < W; ++pos) {
    std::vector<double> lanes(W, 700.0);  // extreme padding
    lanes[pos] = x;
    std::vector<double> out(W);
    simd::vexp(Vec::load(lanes.data())).store(out.data());
    EXPECT_EQ(out[pos], reference) << "lane " << pos;
  }
}

// ---------- kind plumbing --------------------------------------------------------

TEST(SimdKindTest, BackendIdentityIsConsistent) {
  EXPECT_EQ(simd_width(), W);
  const std::string backend = simd_backend_name();
#if defined(LPSRAM_SIMD_FORCE_SCALAR)
  EXPECT_EQ(backend, "scalar");
#else
  EXPECT_TRUE(backend == "avx512" || backend == "avx2" || backend == "neon" ||
              backend == "scalar")
      << backend;
#endif
  EXPECT_EQ(backend, simd::kBackendName);
}

TEST(SimdKindTest, ScopedDefaultRestores) {
  const Kernel before = kernel_config().simd;
  {
    const ScopedKernelConfig scope(&KernelConfig::simd, Kernel::Reference);
    EXPECT_EQ(kernel_config().simd, Kernel::Reference);
    {
      const ScopedKernelConfig inner(&KernelConfig::simd, Kernel::Production);
      EXPECT_EQ(kernel_config().simd, Kernel::Production);
    }
    EXPECT_EQ(kernel_config().simd, Kernel::Reference);
  }
  EXPECT_EQ(kernel_config().simd, before);
}

}  // namespace
}  // namespace lpsram
