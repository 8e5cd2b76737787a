// Portable explicit-SIMD layer: a fixed-width double vector with AVX-512,
// AVX2, NEON and scalar backends selected at compile time, plus the fast
// vectorized exp/log1p pair the device kernels are built on.
//
// Backend selection: AVX-512 (width 8) when the TU is compiled with
// __AVX512F__ && __AVX512DQ__ && __FMA__, else AVX2 (width 4) under
// __AVX2__ && __FMA__ (the root CMakeLists adds the widest flag set a host
// try-run accepts), NEON (width 2) on aarch64, and a plain-array scalar
// backend (width 4) otherwise. -DLPSRAM_SIMD=off defines
// LPSRAM_SIMD_FORCE_SCALAR and pins the scalar backend regardless of the
// ISA, which is how the CI fallback job keeps the portable path honest.
//
// Numerics contract:
//  * vexp / vlog1p are *bit-identical across backends*. Every backend runs
//    the same fma-based expression tree; the scalar backend uses std::fma
//    and std::nearbyint (correctly rounded / round-half-even under the
//    default environment), which is exactly what the AVX2/NEON instructions
//    compute. tests/test_simd.cpp locks both functions to a max-ulp bound
//    against libm (kVexpMaxUlp / kVlog1pMaxUlp below).
//  * vexp clamps its argument to [-700, 700]; outside that range it returns
//    exp(±700) instead of overflowing/underflowing. The device kernels only
//    ever need |u| <= ~45 (softplus switches to its asymptotes at ±35).
//  * vlog / vlog1p require a positive (1 + x) that is a normal double;
//    results outside that domain are unspecified (no traps, no NaN checks).
//  * hsum and gather-based reductions are deterministic per backend but not
//    bit-identical across backends (summation order differs from libm-free
//    lane order only in documentation, not behavior: hsum sums lanes left
//    to right).
//
// Kernels that have both a scalar-oracle loop and a vectorized path consult
// KernelConfig::simd (util/kernel_config.hpp), so tests and benches can pin
// either path process-wide.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(LPSRAM_SIMD_FORCE_SCALAR)
#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__FMA__)
#define LPSRAM_SIMD_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__) && defined(__FMA__)
#define LPSRAM_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define LPSRAM_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace lpsram {

// Native vector width / backend name for report contexts and manifests.
std::size_t simd_width() noexcept;
const char* simd_backend_name() noexcept;

namespace simd {

// -----------------------------------------------------------------------
// Generic scalar backend: a plain array of W doubles. Also the portable
// fallback the LPSRAM_SIMD=off build pins for every width.

template <std::size_t W>
struct DoubleVec {
  static constexpr std::size_t kWidth = W;
  double lane[W];

  struct Mask {
    bool lane[W];
  };

  static DoubleVec load(const double* p) noexcept {
    DoubleVec r;
    for (std::size_t i = 0; i < W; ++i) r.lane[i] = p[i];
    return r;
  }
  static DoubleVec broadcast(double v) noexcept {
    DoubleVec r;
    for (std::size_t i = 0; i < W; ++i) r.lane[i] = v;
    return r;
  }
  static DoubleVec zero() noexcept { return broadcast(0.0); }
  void store(double* p) const noexcept {
    for (std::size_t i = 0; i < W; ++i) p[i] = lane[i];
  }
  double extract(std::size_t i) const noexcept { return lane[i]; }

  friend DoubleVec operator+(DoubleVec a, DoubleVec b) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.lane[i] += b.lane[i];
    return a;
  }
  friend DoubleVec operator-(DoubleVec a, DoubleVec b) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.lane[i] -= b.lane[i];
    return a;
  }
  friend DoubleVec operator*(DoubleVec a, DoubleVec b) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.lane[i] *= b.lane[i];
    return a;
  }
  friend DoubleVec operator/(DoubleVec a, DoubleVec b) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.lane[i] /= b.lane[i];
    return a;
  }

  // a * b + c, fused (std::fma is correctly rounded — the same result the
  // AVX2/NEON fused instructions produce).
  static DoubleVec fma(DoubleVec a, DoubleVec b, DoubleVec c) noexcept {
    DoubleVec r;
    for (std::size_t i = 0; i < W; ++i)
      r.lane[i] = std::fma(a.lane[i], b.lane[i], c.lane[i]);
    return r;
  }
  // c - a * b, fused.
  static DoubleVec fnma(DoubleVec a, DoubleVec b, DoubleVec c) noexcept {
    DoubleVec r;
    for (std::size_t i = 0; i < W; ++i)
      r.lane[i] = std::fma(-a.lane[i], b.lane[i], c.lane[i]);
    return r;
  }

  static DoubleVec min(DoubleVec a, DoubleVec b) noexcept {
    for (std::size_t i = 0; i < W; ++i)
      a.lane[i] = b.lane[i] < a.lane[i] ? b.lane[i] : a.lane[i];
    return a;
  }
  static DoubleVec max(DoubleVec a, DoubleVec b) noexcept {
    for (std::size_t i = 0; i < W; ++i)
      a.lane[i] = b.lane[i] > a.lane[i] ? b.lane[i] : a.lane[i];
    return a;
  }
  static DoubleVec abs(DoubleVec a) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.lane[i] = std::fabs(a.lane[i]);
    return a;
  }
  // Exact unary minus (sign-bit flip): neg(+0.0) is -0.0, matching scalar
  // `-x` where `zero() - x` would not.
  static DoubleVec neg(DoubleVec a) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.lane[i] = -a.lane[i];
    return a;
  }
  static DoubleVec sqrt(DoubleVec a) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.lane[i] = std::sqrt(a.lane[i]);
    return a;
  }
  // Round to nearest, ties to even (the default FP environment).
  static DoubleVec round_nearest(DoubleVec a) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.lane[i] = std::nearbyint(a.lane[i]);
    return a;
  }

  static Mask cmp_gt(DoubleVec a, DoubleVec b) noexcept {
    Mask m;
    for (std::size_t i = 0; i < W; ++i) m.lane[i] = a.lane[i] > b.lane[i];
    return m;
  }
  static Mask cmp_lt(DoubleVec a, DoubleVec b) noexcept {
    Mask m;
    for (std::size_t i = 0; i < W; ++i) m.lane[i] = a.lane[i] < b.lane[i];
    return m;
  }
  // m ? a : b per lane.
  static DoubleVec blend(Mask m, DoubleVec a, DoubleVec b) noexcept {
    DoubleVec r;
    for (std::size_t i = 0; i < W; ++i)
      r.lane[i] = m.lane[i] ? a.lane[i] : b.lane[i];
    return r;
  }

  // 2^k for integral-valued k in [-1021, 1023]: exact exponent-field build.
  static DoubleVec exp2i(DoubleVec k) noexcept {
    DoubleVec r;
    for (std::size_t i = 0; i < W; ++i) {
      const std::int64_t ki = static_cast<std::int64_t>(k.lane[i]);
      const std::uint64_t bits = static_cast<std::uint64_t>(ki + 1023) << 52;
      std::memcpy(&r.lane[i], &bits, sizeof(double));
    }
    return r;
  }
  // x = 2^e * m with m in [1, 2), for positive normal x. Exact.
  static void log_split(DoubleVec x, DoubleVec& e, DoubleVec& m) noexcept {
    for (std::size_t i = 0; i < W; ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, &x.lane[i], sizeof(double));
      e.lane[i] =
          static_cast<double>(static_cast<std::int64_t>(bits >> 52) - 1023);
      const std::uint64_t mb =
          (bits & 0x000FFFFFFFFFFFFFULL) | 0x3FF0000000000000ULL;
      std::memcpy(&m.lane[i], &mb, sizeof(double));
    }
  }

  static DoubleVec gather(const double* base, const int* idx) noexcept {
    DoubleVec r;
    for (std::size_t i = 0; i < W; ++i) r.lane[i] = base[idx[i]];
    return r;
  }
  // Left-to-right lane sum (deterministic per backend).
  static double hsum(DoubleVec a) noexcept {
    double s = a.lane[0];
    for (std::size_t i = 1; i < W; ++i) s += a.lane[i];
    return s;
  }
};

#if defined(LPSRAM_SIMD_AVX512)

template <>
struct DoubleVec<8> {
  static constexpr std::size_t kWidth = 8;
  __m512d v;

  using Mask = __mmask8;

  static DoubleVec load(const double* p) noexcept {
    return {_mm512_loadu_pd(p)};
  }
  static DoubleVec broadcast(double x) noexcept { return {_mm512_set1_pd(x)}; }
  static DoubleVec zero() noexcept { return {_mm512_setzero_pd()}; }
  void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
  double extract(std::size_t i) const noexcept {
    double tmp[8];
    _mm512_storeu_pd(tmp, v);
    return tmp[i];
  }

  friend DoubleVec operator+(DoubleVec a, DoubleVec b) noexcept {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend DoubleVec operator-(DoubleVec a, DoubleVec b) noexcept {
    return {_mm512_sub_pd(a.v, b.v)};
  }
  friend DoubleVec operator*(DoubleVec a, DoubleVec b) noexcept {
    return {_mm512_mul_pd(a.v, b.v)};
  }
  friend DoubleVec operator/(DoubleVec a, DoubleVec b) noexcept {
    return {_mm512_div_pd(a.v, b.v)};
  }

  static DoubleVec fma(DoubleVec a, DoubleVec b, DoubleVec c) noexcept {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  static DoubleVec fnma(DoubleVec a, DoubleVec b, DoubleVec c) noexcept {
    return {_mm512_fnmadd_pd(a.v, b.v, c.v)};
  }

  static DoubleVec min(DoubleVec a, DoubleVec b) noexcept {
    return {_mm512_min_pd(a.v, b.v)};
  }
  static DoubleVec max(DoubleVec a, DoubleVec b) noexcept {
    return {_mm512_max_pd(a.v, b.v)};
  }
  static DoubleVec abs(DoubleVec a) noexcept {
    return {_mm512_andnot_pd(_mm512_set1_pd(-0.0), a.v)};
  }
  static DoubleVec neg(DoubleVec a) noexcept {
    return {_mm512_xor_pd(_mm512_set1_pd(-0.0), a.v)};
  }
  static DoubleVec sqrt(DoubleVec a) noexcept { return {_mm512_sqrt_pd(a.v)}; }
  static DoubleVec round_nearest(DoubleVec a) noexcept {
    return {_mm512_roundscale_pd(
        a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }

  static Mask cmp_gt(DoubleVec a, DoubleVec b) noexcept {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ);
  }
  static Mask cmp_lt(DoubleVec a, DoubleVec b) noexcept {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
  }
  static DoubleVec blend(Mask m, DoubleVec a, DoubleVec b) noexcept {
    // mask_blend picks its second vector operand where the mask is set.
    return {_mm512_mask_blend_pd(m, b.v, a.v)};
  }

  static DoubleVec exp2i(DoubleVec k) noexcept {
    // k is integral-valued and small: convert exactly to int64 (AVX-512DQ
    // has the direct conversion AVX2 lacks), then build the exponent field.
    __m512i k64 = _mm512_cvtpd_epi64(k.v);
    k64 = _mm512_add_epi64(k64, _mm512_set1_epi64(1023));
    k64 = _mm512_slli_epi64(k64, 52);
    return {_mm512_castsi512_pd(k64)};
  }
  static void log_split(DoubleVec x, DoubleVec& e, DoubleVec& m) noexcept {
    const __m512i bits = _mm512_castpd_si512(x.v);
    // Positive input contract: the sign bit is clear, so a logical shift
    // isolates the biased exponent.
    const __m512i biased = _mm512_sub_epi64(_mm512_srli_epi64(bits, 52),
                                            _mm512_set1_epi64(1023));
    e.v = _mm512_cvtepi64_pd(biased);
    const __m512i mb = _mm512_or_epi64(
        _mm512_and_epi64(bits, _mm512_set1_epi64(0x000FFFFFFFFFFFFFLL)),
        _mm512_set1_epi64(0x3FF0000000000000LL));
    m.v = _mm512_castsi512_pd(mb);
  }

  static DoubleVec gather(const double* base, const int* idx) noexcept {
    static_assert(sizeof(int) == 4, "i32 gather expects 32-bit int indices");
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm512_i32gather_pd(vi, base, 8)};
  }
  static double hsum(DoubleVec a) noexcept {
    double tmp[8];
    _mm512_storeu_pd(tmp, a.v);
    double s = tmp[0];
    for (std::size_t i = 1; i < 8; ++i) s += tmp[i];
    return s;
  }
};

inline constexpr std::size_t kNativeWidth = 8;
inline constexpr const char* kBackendName = "avx512";

#elif defined(LPSRAM_SIMD_AVX2)

template <>
struct DoubleVec<4> {
  static constexpr std::size_t kWidth = 4;
  __m256d v;

  using Mask = __m256d;

  static DoubleVec load(const double* p) noexcept {
    return {_mm256_loadu_pd(p)};
  }
  static DoubleVec broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  static DoubleVec zero() noexcept { return {_mm256_setzero_pd()}; }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
  double extract(std::size_t i) const noexcept {
    double tmp[4];
    _mm256_storeu_pd(tmp, v);
    return tmp[i];
  }

  friend DoubleVec operator+(DoubleVec a, DoubleVec b) noexcept {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend DoubleVec operator-(DoubleVec a, DoubleVec b) noexcept {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend DoubleVec operator*(DoubleVec a, DoubleVec b) noexcept {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend DoubleVec operator/(DoubleVec a, DoubleVec b) noexcept {
    return {_mm256_div_pd(a.v, b.v)};
  }

  static DoubleVec fma(DoubleVec a, DoubleVec b, DoubleVec c) noexcept {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  static DoubleVec fnma(DoubleVec a, DoubleVec b, DoubleVec c) noexcept {
    return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
  }

  static DoubleVec min(DoubleVec a, DoubleVec b) noexcept {
    return {_mm256_min_pd(a.v, b.v)};
  }
  static DoubleVec max(DoubleVec a, DoubleVec b) noexcept {
    return {_mm256_max_pd(a.v, b.v)};
  }
  static DoubleVec abs(DoubleVec a) noexcept {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
  }
  static DoubleVec neg(DoubleVec a) noexcept {
    return {_mm256_xor_pd(_mm256_set1_pd(-0.0), a.v)};
  }
  static DoubleVec sqrt(DoubleVec a) noexcept { return {_mm256_sqrt_pd(a.v)}; }
  static DoubleVec round_nearest(DoubleVec a) noexcept {
    return {_mm256_round_pd(a.v,
                            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }

  static Mask cmp_gt(DoubleVec a, DoubleVec b) noexcept {
    return _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ);
  }
  static Mask cmp_lt(DoubleVec a, DoubleVec b) noexcept {
    return _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
  }
  static DoubleVec blend(Mask m, DoubleVec a, DoubleVec b) noexcept {
    return {_mm256_blendv_pd(b.v, a.v, m)};
  }

  static DoubleVec exp2i(DoubleVec k) noexcept {
    // k is integral-valued and small: narrow through int32 (exact), widen,
    // then build the exponent field directly.
    const __m128i k32 = _mm256_cvtpd_epi32(k.v);
    __m256i k64 = _mm256_cvtepi32_epi64(k32);
    k64 = _mm256_add_epi64(k64, _mm256_set1_epi64x(1023));
    k64 = _mm256_slli_epi64(k64, 52);
    return {_mm256_castsi256_pd(k64)};
  }
  static void log_split(DoubleVec x, DoubleVec& e, DoubleVec& m) noexcept {
    const __m256i bits = _mm256_castpd_si256(x.v);
    // Positive input contract: the sign bit is clear, so a logical shift
    // isolates the biased exponent.
    const __m256i biased = _mm256_sub_epi64(_mm256_srli_epi64(bits, 52),
                                            _mm256_set1_epi64x(1023));
    // int64 -> double via the 1.5*2^52 magic-number trick (AVX2 has no
    // cvtepi64_pd); exact for |value| < 2^51.
    const __m256d magic = _mm256_set1_pd(6755399441055744.0);  // 1.5 * 2^52
    const __m256i shifted =
        _mm256_add_epi64(biased, _mm256_castpd_si256(magic));
    e.v = _mm256_sub_pd(_mm256_castsi256_pd(shifted), magic);
    const __m256i mb = _mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
        _mm256_set1_epi64x(0x3FF0000000000000LL));
    m.v = _mm256_castsi256_pd(mb);
  }

  static DoubleVec gather(const double* base, const int* idx) noexcept {
    static_assert(sizeof(int) == 4, "i32 gather expects 32-bit int indices");
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    return {_mm256_i32gather_pd(base, vi, 8)};
  }
  static double hsum(DoubleVec a) noexcept {
    double tmp[4];
    _mm256_storeu_pd(tmp, a.v);
    return ((tmp[0] + tmp[1]) + tmp[2]) + tmp[3];
  }
};

inline constexpr std::size_t kNativeWidth = 4;
inline constexpr const char* kBackendName = "avx2";

#elif defined(LPSRAM_SIMD_NEON)

template <>
struct DoubleVec<2> {
  static constexpr std::size_t kWidth = 2;
  float64x2_t v;

  using Mask = uint64x2_t;

  static DoubleVec load(const double* p) noexcept { return {vld1q_f64(p)}; }
  static DoubleVec broadcast(double x) noexcept { return {vdupq_n_f64(x)}; }
  static DoubleVec zero() noexcept { return {vdupq_n_f64(0.0)}; }
  void store(double* p) const noexcept { vst1q_f64(p, v); }
  double extract(std::size_t i) const noexcept {
    double tmp[2];
    vst1q_f64(tmp, v);
    return tmp[i];
  }

  friend DoubleVec operator+(DoubleVec a, DoubleVec b) noexcept {
    return {vaddq_f64(a.v, b.v)};
  }
  friend DoubleVec operator-(DoubleVec a, DoubleVec b) noexcept {
    return {vsubq_f64(a.v, b.v)};
  }
  friend DoubleVec operator*(DoubleVec a, DoubleVec b) noexcept {
    return {vmulq_f64(a.v, b.v)};
  }
  friend DoubleVec operator/(DoubleVec a, DoubleVec b) noexcept {
    return {vdivq_f64(a.v, b.v)};
  }

  static DoubleVec fma(DoubleVec a, DoubleVec b, DoubleVec c) noexcept {
    return {vfmaq_f64(c.v, a.v, b.v)};
  }
  static DoubleVec fnma(DoubleVec a, DoubleVec b, DoubleVec c) noexcept {
    return {vfmsq_f64(c.v, a.v, b.v)};
  }

  static DoubleVec min(DoubleVec a, DoubleVec b) noexcept {
    return {vminq_f64(a.v, b.v)};
  }
  static DoubleVec max(DoubleVec a, DoubleVec b) noexcept {
    return {vmaxq_f64(a.v, b.v)};
  }
  static DoubleVec abs(DoubleVec a) noexcept { return {vabsq_f64(a.v)}; }
  static DoubleVec neg(DoubleVec a) noexcept { return {vnegq_f64(a.v)}; }
  static DoubleVec sqrt(DoubleVec a) noexcept { return {vsqrtq_f64(a.v)}; }
  static DoubleVec round_nearest(DoubleVec a) noexcept {
    return {vrndnq_f64(a.v)};
  }

  static Mask cmp_gt(DoubleVec a, DoubleVec b) noexcept {
    return vcgtq_f64(a.v, b.v);
  }
  static Mask cmp_lt(DoubleVec a, DoubleVec b) noexcept {
    return vcltq_f64(a.v, b.v);
  }
  static DoubleVec blend(Mask m, DoubleVec a, DoubleVec b) noexcept {
    return {vbslq_f64(m, a.v, b.v)};
  }

  static DoubleVec exp2i(DoubleVec k) noexcept {
    int64x2_t k64 = vcvtnq_s64_f64(k.v);
    k64 = vaddq_s64(k64, vdupq_n_s64(1023));
    k64 = vshlq_n_s64(k64, 52);
    return {vreinterpretq_f64_s64(k64)};
  }
  static void log_split(DoubleVec x, DoubleVec& e, DoubleVec& m) noexcept {
    const uint64x2_t bits = vreinterpretq_u64_f64(x.v);
    const int64x2_t biased = vsubq_s64(
        vreinterpretq_s64_u64(vshrq_n_u64(bits, 52)), vdupq_n_s64(1023));
    e.v = vcvtq_f64_s64(biased);
    const uint64x2_t mb =
        vorrq_u64(vandq_u64(bits, vdupq_n_u64(0x000FFFFFFFFFFFFFULL)),
                  vdupq_n_u64(0x3FF0000000000000ULL));
    m.v = vreinterpretq_f64_u64(mb);
  }

  static DoubleVec gather(const double* base, const int* idx) noexcept {
    double tmp[2] = {base[idx[0]], base[idx[1]]};
    return {vld1q_f64(tmp)};
  }
  static double hsum(DoubleVec a) noexcept {
    return vgetq_lane_f64(a.v, 0) + vgetq_lane_f64(a.v, 1);
  }
};

inline constexpr std::size_t kNativeWidth = 2;
inline constexpr const char* kBackendName = "neon";

#else

inline constexpr std::size_t kNativeWidth = 4;
inline constexpr const char* kBackendName = "scalar";

#endif

using Vec = DoubleVec<kNativeWidth>;

// Smallest multiple of the native width >= n — batch padding helper.
constexpr std::size_t round_up_lanes(std::size_t n) noexcept {
  return (n + kNativeWidth - 1) / kNativeWidth * kNativeWidth;
}

// -----------------------------------------------------------------------
// Vectorized exp / log / log1p. One algorithm shared by every backend via
// the DoubleVec interface; all operations are either exact (bit ops,
// multiplies by powers of two) or single-rounded (fma), so results are
// bit-identical across backends.

// Cody–Waite two-part ln(2) split (the cephes pair): kLn2Hi has enough
// trailing mantissa zeros that k * kLn2Hi is exact for |k| < 2^11.
inline constexpr double kLog2E = 1.4426950408889634074;
inline constexpr double kLn2Hi = 6.93145751953125e-1;
inline constexpr double kLn2Lo = 1.42860682030941723212e-6;
inline constexpr double kSqrt2 = 1.41421356237309504880;
// vexp clamps here: keeps 2^k inside the normal exponent range with margin.
inline constexpr double kVexpClamp = 700.0;

// Max-ulp contracts tests pin vexp / vlog1p against libm. Measured on the
// AVX2 and scalar backends (identical bits): vexp <= 1 ulp, vlog1p <= 3 ulp
// over the tested ranges; the contract leaves headroom for other libms.
inline constexpr double kVexpMaxUlp = 4.0;
inline constexpr double kVlog1pMaxUlp = 4.0;

template <class V>
inline V vexp(V x) noexcept {
  const V clamp = V::broadcast(kVexpClamp);
  x = V::min(clamp, V::max(V::broadcast(-kVexpClamp), x));
  // Range reduction: x = k*ln2 + r, r in [-ln2/2, ln2/2].
  const V k = V::round_nearest(x * V::broadcast(kLog2E));
  V r = V::fnma(k, V::broadcast(kLn2Hi), x);
  r = V::fnma(k, V::broadcast(kLn2Lo), r);
  // e^r by degree-13 Taylor (truncation < 2^-52 over the reduced range),
  // Horner with fused steps.
  V p = V::broadcast(1.0 / 6227020800.0);               // 1/13!
  p = V::fma(p, r, V::broadcast(1.0 / 479001600.0));    // 1/12!
  p = V::fma(p, r, V::broadcast(1.0 / 39916800.0));     // 1/11!
  p = V::fma(p, r, V::broadcast(1.0 / 3628800.0));      // 1/10!
  p = V::fma(p, r, V::broadcast(1.0 / 362880.0));       // 1/9!
  p = V::fma(p, r, V::broadcast(1.0 / 40320.0));        // 1/8!
  p = V::fma(p, r, V::broadcast(1.0 / 5040.0));         // 1/7!
  p = V::fma(p, r, V::broadcast(1.0 / 720.0));          // 1/6!
  p = V::fma(p, r, V::broadcast(1.0 / 120.0));          // 1/5!
  p = V::fma(p, r, V::broadcast(1.0 / 24.0));           // 1/4!
  p = V::fma(p, r, V::broadcast(1.0 / 6.0));            // 1/3!
  p = V::fma(p, r, V::broadcast(0.5));                  // 1/2!
  p = V::fma(p, r, V::broadcast(1.0));                  // 1/1!
  p = V::fma(p, r, V::broadcast(1.0));                  // 1/0!
  // Scale by 2^k — exact (no overflow/underflow thanks to the clamp).
  return p * V::exp2i(k);
}

// Natural log of positive normal x. Decompose x = 2^e * m, renormalize m
// into (sqrt2/2, sqrt2], then log(m) = 2 atanh(t) with t = (m-1)/(m+1)
// (|t| <= 0.1716) by an odd series in t^2.
template <class V>
inline V vlog(V x) noexcept {
  V e, m;
  V::log_split(x, e, m);
  const auto big = V::cmp_gt(m, V::broadcast(kSqrt2));
  m = V::blend(big, m * V::broadcast(0.5), m);
  e = V::blend(big, e + V::broadcast(1.0), e);
  const V one = V::broadcast(1.0);
  const V t = (m - one) / (m + one);
  const V t2 = t * t;
  // atanh series: sum t^(2n) / (2n+1), n = 0..10 (truncation < 2^-53
  // relative at |t| = 0.1716).
  V p = V::broadcast(1.0 / 21.0);
  p = V::fma(p, t2, V::broadcast(1.0 / 19.0));
  p = V::fma(p, t2, V::broadcast(1.0 / 17.0));
  p = V::fma(p, t2, V::broadcast(1.0 / 15.0));
  p = V::fma(p, t2, V::broadcast(1.0 / 13.0));
  p = V::fma(p, t2, V::broadcast(1.0 / 11.0));
  p = V::fma(p, t2, V::broadcast(1.0 / 9.0));
  p = V::fma(p, t2, V::broadcast(1.0 / 7.0));
  p = V::fma(p, t2, V::broadcast(1.0 / 5.0));
  p = V::fma(p, t2, V::broadcast(1.0 / 3.0));
  p = V::fma(p, t2, one);
  const V log_m = (t + t) * p;
  // e*ln2_hi is exact; fold the low part into the small term first.
  return V::fma(e, V::broadcast(kLn2Hi),
                V::fma(e, V::broadcast(kLn2Lo), log_m));
}

// log(1 + x) for x > -1 with 1 + x a positive normal: log(z) plus the exact
// additive correction (x - (z - 1)) / z for the rounding in z = 1 + x.
// When z rounds to exactly 1 the correction alone is x and vlog returns 0,
// so the tiny-|x| limit needs no special case.
template <class V>
inline V vlog1p(V x) noexcept {
  const V one = V::broadcast(1.0);
  const V z = x + one;
  const V c = (x - (z - one)) / z;
  return vlog(z) + c;
}

// Vector softplus/sigmoid pair with the exact branch semantics of
// mosfet_math::softplus_eval, expressed as lane blends. The asymptote
// cutoffs (±35) match the scalar kernel so Simd-vs-Scalar differences stay
// at the ulp level of vexp/vlog1p.
template <class V>
struct SoftplusEvalV {
  V f;  // softplus(u)
  V d;  // sigmoid(u)
};

template <class V>
inline SoftplusEvalV<V> softplus_eval_v(V u) noexcept {
  const V one = V::broadcast(1.0);
  const V e = vexp(u);
  const V f_mid = vlog1p(e);
  const V d_mid = e / (one + e);
  const auto hi = V::cmp_gt(u, V::broadcast(35.0));
  const auto lo = V::cmp_lt(u, V::broadcast(-35.0));
  SoftplusEvalV<V> r;
  r.f = V::blend(hi, u, V::blend(lo, e, f_mid));
  r.d = V::blend(hi, one, V::blend(lo, e, d_mid));
  return r;
}

// Vector smooth-|v| pair (mosfet_math::smooth_abs / smooth_abs_d), written
// mul+add (not fused) to match the scalar expression under
// -ffp-contract=off.
template <class V>
inline V smooth_abs_v(V v) noexcept {
  const V eps2 = V::broadcast(1e-3 * 1e-3);
  return V::sqrt(v * v + eps2);
}
template <class V>
inline V smooth_abs_d_v(V v) noexcept {
  return v / smooth_abs_v(v);
}

}  // namespace simd
}  // namespace lpsram
