#include "util/simd.h"

#include <cstdlib>

#include "util/hash.h"

#if defined(__x86_64__) && !defined(FWDECAY_SIMD_DISABLED)
#define FWDECAY_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && !defined(FWDECAY_SIMD_DISABLED)
#define FWDECAY_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace fwdecay::simd {

namespace {

struct DispatchState {
  Arch arch = Arch::kScalar;
  bool forced = false;
};

// Resolved once at static initialization — the only place the dispatch
// layer touches the environment, so the ingest hot path itself stays
// syscall-free (scripts/analyze.py rule hotpath-purity).
DispatchState Detect() {
  DispatchState s;
  const char* env = std::getenv("FWDECAY_FORCE_SCALAR");
  s.forced = env != nullptr && env[0] != '\0' &&
             !(env[0] == '0' && env[1] == '\0');
  if (s.forced) return s;
#if defined(FWDECAY_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) s.arch = Arch::kAvx2;
#elif defined(FWDECAY_SIMD_NEON)
  s.arch = Arch::kNeon;
#endif
  return s;
}

const DispatchState g_dispatch = Detect();

}  // namespace

Arch ActiveArch() { return g_dispatch.arch; }

const char* ActiveArchName() {
  switch (g_dispatch.arch) {
    case Arch::kAvx2: return "avx2";
    case Arch::kNeon: return "neon";
    case Arch::kScalar: return "scalar";
  }
  return "scalar";
}

bool ForcedScalar() { return g_dispatch.forced; }

// ---------------------------------------------------------------------------
// Scalar arms — the oracle. Every loop is one operation per element with
// no reassociation, so a vector arm matches it lane for lane.
// ---------------------------------------------------------------------------

namespace scalar {

std::size_t FilterByteEq(const std::uint8_t* bytes, std::uint8_t target,
                         std::size_t n, std::uint32_t* out_sel) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (bytes[i] == target) out_sel[k++] = static_cast<std::uint32_t>(i);
  }
  return k;
}

void GroupHashI64(const std::int64_t* keys, std::size_t n,
                  std::uint64_t seed, std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = HashCombine(seed,
                         HashU64(static_cast<std::uint64_t>(keys[i]), 1));
  }
}

void ShardIndexU64(const std::uint64_t* hashes, std::size_t n,
                   std::uint64_t seed, std::uint32_t num_shards,
                   std::uint32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto hi = static_cast<std::uint32_t>(HashU64(hashes[i], seed) >> 32);
    out[i] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(hi) * num_shards) >> 32);
  }
}

void AddF64(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}
void SubF64(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}
void MulF64(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}
void DivF64(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] / b[i];
}
void AddI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}
void SubI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01) {
  // Exactly dsms::Compare's double branch: ordered < and >, so kLe/kGe
  // are the *negated* strict compares (a NaN operand makes Compare
  // return 0, which satisfies <= and >=).
  switch (op) {
    case CmpOp::kEq:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] == b[i] ? 1 : 0;
      return;
    case CmpOp::kNe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] == b[i] ? 0 : 1;
      return;
    case CmpOp::kLt:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] < b[i] ? 1 : 0;
      return;
    case CmpOp::kLe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] > b[i] ? 0 : 1;
      return;
    case CmpOp::kGt:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] > b[i] ? 1 : 0;
      return;
    case CmpOp::kGe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] < b[i] ? 0 : 1;
      return;
  }
}

void CmpI64(CmpOp op, const std::int64_t* a, const std::int64_t* b,
            std::size_t n, std::int64_t* out01) {
  switch (op) {
    case CmpOp::kEq:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] == b[i] ? 1 : 0;
      return;
    case CmpOp::kNe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] != b[i] ? 1 : 0;
      return;
    case CmpOp::kLt:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] < b[i] ? 1 : 0;
      return;
    case CmpOp::kLe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] <= b[i] ? 1 : 0;
      return;
    case CmpOp::kGt:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] > b[i] ? 1 : 0;
      return;
    case CmpOp::kGe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] >= b[i] ? 1 : 0;
      return;
  }
}

std::size_t CompactNonZeroI64(const std::int64_t* vals, std::uint32_t* sel,
                              std::size_t n) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] != 0) sel[k++] = sel[i];
  }
  return k;
}

std::size_t CompactNonZeroF64(const double* vals, std::uint32_t* sel,
                              std::size_t n) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] != 0.0) sel[k++] = sel[i];  // NaN != 0.0 — NaN is truthy
  }
  return k;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 arms (x86-64, runtime-gated on cpuid; compiled with a per-function
// target attribute so the rest of the library keeps the baseline ISA).
// ---------------------------------------------------------------------------

#if defined(FWDECAY_SIMD_X86)

namespace avx2 {

__attribute__((target("avx2"))) std::size_t FilterByteEq(
    const std::uint8_t* bytes, std::uint8_t target, std::size_t n,
    std::uint32_t* out_sel) {
  std::size_t k = 0;
  std::size_t i = 0;
  const __m256i t = _mm256_set1_epi8(static_cast<char>(target));
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes + i));
    std::uint32_t m = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, t)));
    while (m != 0) {
      out_sel[k++] = static_cast<std::uint32_t>(
          i + static_cast<std::uint32_t>(__builtin_ctz(m)));
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    if (bytes[i] == target) out_sel[k++] = static_cast<std::uint32_t>(i);
  }
  return k;
}

// 64-bit lane-wise multiply from 32x32 partial products (the mullo_epi64
// instruction itself is AVX-512DQ).
__attribute__((target("avx2"))) inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i Mix64V(__m256i x) {
  x = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

__attribute__((target("avx2"))) void GroupHashI64(const std::int64_t* keys,
                                                  std::size_t n,
                                                  std::uint64_t seed,
                                                  std::uint64_t* out) {
  // h = seed ^ (Mix64(Mix64(k ^ C1)) + K): the HashU64(k, 1) inner mix
  // followed by HashCombine's outer mix, with the seed-dependent parts
  // folded into constants (see the scalar arm for the reference form).
  const std::uint64_t c1 =
      0xff51afd7ed558ccdULL + 0xc4ceb9fe1a85ec53ULL;  // HashU64 seed==1
  const std::uint64_t kadd =
      0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  const __m256i vc1 = _mm256_set1_epi64x(static_cast<long long>(c1));
  const __m256i vk = _mm256_set1_epi64x(static_cast<long long>(kadd));
  const __m256i vs = _mm256_set1_epi64x(static_cast<long long>(seed));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    x = Mix64V(Mix64V(_mm256_xor_si256(x, vc1)));
    x = _mm256_xor_si256(vs, _mm256_add_epi64(x, vk));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), x);
  }
  if (i < n) scalar::GroupHashI64(keys + i, n - i, seed, out + i);
}

__attribute__((target("avx2"))) void ShardIndexU64(const std::uint64_t* hashes,
                                                   std::size_t n,
                                                   std::uint64_t seed,
                                                   std::uint32_t num_shards,
                                                   std::uint32_t* out) {
  // HashU64(h, seed) = Mix64(h ^ (seed*K1 + K2)) with the seed part
  // folded into one constant, exactly as the scalar arm computes it.
  const std::uint64_t c =
      seed * 0xff51afd7ed558ccdULL + 0xc4ceb9fe1a85ec53ULL;
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c));
  const __m256i vshards = _mm256_set1_epi64x(static_cast<long long>(num_shards));
  // Lane gather pattern packing the four 64-bit lanes' low dwords into
  // the lower 128 bits (the reduced index always fits in 32 bits).
  const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hashes + i));
    // Multiply-shift: _mm256_mul_epu32 multiplies each lane's low dword,
    // here the remixed hash's high half, by N into a full 64-bit product.
    x = _mm256_srli_epi64(Mix64V(_mm256_xor_si256(x, vc)), 32);
    x = _mm256_srli_epi64(_mm256_mul_epu32(x, vshards), 32);
    const __m256i packed = _mm256_permutevar8x32_epi32(x, pack);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(packed));
  }
  if (i < n) scalar::ShardIndexU64(hashes + i, n - i, seed, num_shards,
                                   out + i);
}

__attribute__((target("avx2"))) void AddF64(const double* a, const double* b,
                                            std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_add_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) void SubF64(const double* a, const double* b,
                                            std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

__attribute__((target("avx2"))) void MulF64(const double* a, const double* b,
                                            std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

__attribute__((target("avx2"))) void DivF64(const double* a, const double* b,
                                            std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] / b[i];
}

__attribute__((target("avx2"))) void AddI64(const std::int64_t* a,
                                            const std::int64_t* b,
                                            std::size_t n, std::int64_t* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_add_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) void SubI64(const std::int64_t* a,
                                            const std::int64_t* b,
                                            std::size_t n, std::int64_t* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_sub_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

__attribute__((target("avx2"))) void CmpF64(CmpOp op, const double* a,
                                            const double* b, std::size_t n,
                                            std::int64_t* out01) {
  // Predicate choice mirrors the scalar oracle's NaN behaviour: ordered
  // for the strict compares and equality, unordered-negated for kLe/kGe
  // (== !(a > b) / !(a < b)) and kNe.
  const __m256i ones = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(a + i);
    const __m256d y = _mm256_loadu_pd(b + i);
    __m256d m = _mm256_setzero_pd();
    switch (op) {
      case CmpOp::kEq: m = _mm256_cmp_pd(x, y, _CMP_EQ_OQ); break;
      case CmpOp::kNe: m = _mm256_cmp_pd(x, y, _CMP_NEQ_UQ); break;
      case CmpOp::kLt: m = _mm256_cmp_pd(x, y, _CMP_LT_OQ); break;
      case CmpOp::kLe: m = _mm256_cmp_pd(x, y, _CMP_NGT_UQ); break;
      case CmpOp::kGt: m = _mm256_cmp_pd(x, y, _CMP_GT_OQ); break;
      case CmpOp::kGe: m = _mm256_cmp_pd(x, y, _CMP_NLT_UQ); break;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out01 + i),
                        _mm256_and_si256(_mm256_castpd_si256(m), ones));
  }
  if (i < n) scalar::CmpF64(op, a + i, b + i, n - i, out01 + i);
}

__attribute__((target("avx2"))) void CmpI64(CmpOp op, const std::int64_t* a,
                                            const std::int64_t* b,
                                            std::size_t n,
                                            std::int64_t* out01) {
  const __m256i ones = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i r = _mm256_setzero_si256();
    switch (op) {
      case CmpOp::kEq:
        r = _mm256_and_si256(_mm256_cmpeq_epi64(x, y), ones);
        break;
      case CmpOp::kNe:
        r = _mm256_andnot_si256(_mm256_cmpeq_epi64(x, y), ones);
        break;
      case CmpOp::kLt:
        r = _mm256_and_si256(_mm256_cmpgt_epi64(y, x), ones);
        break;
      case CmpOp::kLe:
        r = _mm256_andnot_si256(_mm256_cmpgt_epi64(x, y), ones);
        break;
      case CmpOp::kGt:
        r = _mm256_and_si256(_mm256_cmpgt_epi64(x, y), ones);
        break;
      case CmpOp::kGe:
        r = _mm256_andnot_si256(_mm256_cmpgt_epi64(y, x), ones);
        break;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out01 + i), r);
  }
  if (i < n) scalar::CmpI64(op, a + i, b + i, n - i, out01 + i);
}

__attribute__((target("avx2"))) std::size_t CompactNonZeroI64(
    const std::int64_t* vals, std::uint32_t* sel, std::size_t n) {
  std::size_t k = 0;
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    std::uint32_t m =
        static_cast<std::uint32_t>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(x, zero)))) ^ 0xFu;
    while (m != 0) {
      sel[k++] = sel[i + static_cast<std::uint32_t>(__builtin_ctz(m))];
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    if (vals[i] != 0) sel[k++] = sel[i];
  }
  return k;
}

__attribute__((target("avx2"))) std::size_t CompactNonZeroF64(
    const double* vals, std::uint32_t* sel, std::size_t n) {
  std::size_t k = 0;
  std::size_t i = 0;
  const __m256d zero = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(vals + i);
    // EQ_OQ is true only for ±0.0; NaN compares false, i.e. truthy —
    // exactly the scalar `v != 0.0` predicate, complemented.
    std::uint32_t m = static_cast<std::uint32_t>(_mm256_movemask_pd(
                          _mm256_cmp_pd(x, zero, _CMP_EQ_OQ))) ^ 0xFu;
    while (m != 0) {
      sel[k++] = sel[i + static_cast<std::uint32_t>(__builtin_ctz(m))];
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    if (vals[i] != 0.0) sel[k++] = sel[i];
  }
  return k;
}

}  // namespace avx2

#endif  // FWDECAY_SIMD_X86

// ---------------------------------------------------------------------------
// NEON arms (aarch64 baseline — no runtime probe needed). Only the f64
// elementwise and compare kernels have native arms; the index-emitting
// and 64-bit-multiply kernels fall through to scalar (DESIGN.md §13.4
// records the full dispatch matrix).
// ---------------------------------------------------------------------------

#if defined(FWDECAY_SIMD_NEON)

namespace neon {

// Lane-wise complement of an all-ones/all-zeros compare mask (there is
// no 64-bit vmvn; the 32-bit form is equivalent on such masks).
inline uint64x2_t NotMask(uint64x2_t m) {
  return vreinterpretq_u64_u32(vmvnq_u32(vreinterpretq_u32_u64(m)));
}

void AddF64(const double* a, const double* b, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}
void SubF64(const double* a, const double* b, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}
void MulF64(const double* a, const double* b, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}
void DivF64(const double* a, const double* b, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vdivq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] / b[i];
}

void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01) {
  const uint64x2_t ones = vdupq_n_u64(1);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x = vld1q_f64(a + i);
    const float64x2_t y = vld1q_f64(b + i);
    uint64x2_t m;
    switch (op) {
      case CmpOp::kEq: m = vceqq_f64(x, y); break;
      case CmpOp::kNe: m = NotMask(vceqq_f64(x, y)); break;
      case CmpOp::kLt: m = vcltq_f64(x, y); break;
      case CmpOp::kLe: m = NotMask(vcgtq_f64(x, y)); break;
      case CmpOp::kGt: m = vcgtq_f64(x, y); break;
      case CmpOp::kGe: m = NotMask(vcltq_f64(x, y)); break;
    }
    vst1q_s64(out01 + i, vreinterpretq_s64_u64(vandq_u64(m, ones)));
  }
  if (i < n) scalar::CmpF64(op, a + i, b + i, n - i, out01 + i);
}

}  // namespace neon

#endif  // FWDECAY_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

std::size_t FilterByteEq(const std::uint8_t* bytes, std::uint8_t target,
                         std::size_t n, std::uint32_t* out_sel) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) {
    return avx2::FilterByteEq(bytes, target, n, out_sel);
  }
#endif
  return scalar::FilterByteEq(bytes, target, n, out_sel);
}

void GroupHashI64(const std::int64_t* keys, std::size_t n,
                  std::uint64_t seed, std::uint64_t* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) {
    avx2::GroupHashI64(keys, n, seed, out);
    return;
  }
#endif
  scalar::GroupHashI64(keys, n, seed, out);
}

void ShardIndexU64(const std::uint64_t* hashes, std::size_t n,
                   std::uint64_t seed, std::uint32_t num_shards,
                   std::uint32_t* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) {
    avx2::ShardIndexU64(hashes, n, seed, num_shards, out);
    return;
  }
#endif
  scalar::ShardIndexU64(hashes, n, seed, num_shards, out);
}

void AddF64(const double* a, const double* b, std::size_t n, double* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::AddF64(a, b, n, out);
#elif defined(FWDECAY_SIMD_NEON)
  if (g_dispatch.arch == Arch::kNeon) return neon::AddF64(a, b, n, out);
#endif
  scalar::AddF64(a, b, n, out);
}

void SubF64(const double* a, const double* b, std::size_t n, double* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::SubF64(a, b, n, out);
#elif defined(FWDECAY_SIMD_NEON)
  if (g_dispatch.arch == Arch::kNeon) return neon::SubF64(a, b, n, out);
#endif
  scalar::SubF64(a, b, n, out);
}

void MulF64(const double* a, const double* b, std::size_t n, double* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::MulF64(a, b, n, out);
#elif defined(FWDECAY_SIMD_NEON)
  if (g_dispatch.arch == Arch::kNeon) return neon::MulF64(a, b, n, out);
#endif
  scalar::MulF64(a, b, n, out);
}

void DivF64(const double* a, const double* b, std::size_t n, double* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::DivF64(a, b, n, out);
#elif defined(FWDECAY_SIMD_NEON)
  if (g_dispatch.arch == Arch::kNeon) return neon::DivF64(a, b, n, out);
#endif
  scalar::DivF64(a, b, n, out);
}

void AddI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::AddI64(a, b, n, out);
#endif
  scalar::AddI64(a, b, n, out);
}

void SubI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::SubI64(a, b, n, out);
#endif
  scalar::SubI64(a, b, n, out);
}

void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::CmpF64(op, a, b, n, out01);
#elif defined(FWDECAY_SIMD_NEON)
  if (g_dispatch.arch == Arch::kNeon) return neon::CmpF64(op, a, b, n, out01);
#endif
  scalar::CmpF64(op, a, b, n, out01);
}

void CmpI64(CmpOp op, const std::int64_t* a, const std::int64_t* b,
            std::size_t n, std::int64_t* out01) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::CmpI64(op, a, b, n, out01);
#endif
  scalar::CmpI64(op, a, b, n, out01);
}

std::size_t CompactNonZeroI64(const std::int64_t* vals, std::uint32_t* sel,
                              std::size_t n) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) {
    return avx2::CompactNonZeroI64(vals, sel, n);
  }
#endif
  return scalar::CompactNonZeroI64(vals, sel, n);
}

std::size_t CompactNonZeroF64(const double* vals, std::uint32_t* sel,
                              std::size_t n) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) {
    return avx2::CompactNonZeroF64(vals, sel, n);
  }
#endif
  return scalar::CompactNonZeroF64(vals, sel, n);
}

}  // namespace fwdecay::simd
