// Differential tests for the runtime-dispatched SIMD kernels
// (DESIGN.md §13.4): every dispatched kernel is compared against the
// always-compiled scalar oracle in simd::scalar on the same inputs, and
// the comparison is *bitwise* for doubles — NaN payloads, signed zeros,
// denormals and infinities must round-trip identically through both
// arms, because the engine's batched/per-tuple bit-exactness contract
// (DESIGN.md §8) rests on these kernels being indistinguishable from
// the scalar loops they replaced.
//
// Lengths cover the remainder-loop seams of both vector widths: 0, 1,
// lane−1 / lane / lane+1 for 2-lane NEON and 4-lane AVX2 doubles, the
// 32-byte AVX2 chunk of FilterByteEq, and a long unaligned 1023 tail.
//
// When the build runs under FWDECAY_FORCE_SCALAR=1 (the forced-scalar
// CI leg) the dispatched arm *is* the oracle and the differentials
// reduce to self-consistency — the env-knob test below pins that down.

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/arena.h"
#include "util/hash.h"
#include "util/simd.h"

namespace fwdecay {
namespace {

// Seam-covering lengths (see file comment). 1023 = 2^10 - 1 exercises a
// long stream whose tail misses every vector width.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 1023};

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t BitsOf(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double DoubleFromBits(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

// Every IEEE-754 special the kernels must pass through unchanged,
// including a quiet NaN with a nonzero payload and both zero signs.
std::vector<double> SpecialDoubles() {
  return {
      std::numeric_limits<double>::quiet_NaN(),
      DoubleFromBits(0x7ff8dead0000beefULL),  // quiet NaN, payload bits
      DoubleFromBits(0xfff8000000000001ULL),  // negative NaN
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      1.0,
      -1.5,
      3.141592653589793,
  };
}

// Fills `out` with a mix of ordinary finite values and the specials,
// deterministically from `seed`, so the same vector is regenerated for
// the dispatched and scalar runs.
void FillDoubles(std::uint64_t seed, std::vector<double>* out) {
  const std::vector<double> specials = SpecialDoubles();
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < out->size(); ++i) {
    const std::uint64_t r = SplitMix64(&s);
    if ((r & 7) == 0) {
      (*out)[i] = specials[(r >> 8) % specials.size()];
    } else {
      // Finite spread across magnitudes, both signs.
      const double mag = static_cast<double>(r >> 16) /
                         static_cast<double>(1ULL << ((r >> 3) & 31));
      (*out)[i] = (r & 1) ? mag : -mag;
    }
  }
}

// int64 values kept inside ±2^61 so elementwise add/sub in either arm
// can never hit signed-overflow UB; boundary structure comes from the
// low bits being forced through 0/±1/min-step patterns.
void FillInt64(std::uint64_t seed, std::vector<std::int64_t>* out) {
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < out->size(); ++i) {
    const std::uint64_t r = SplitMix64(&s);
    std::int64_t v = static_cast<std::int64_t>(r >> 3);  // < 2^61
    if ((r & 7) == 0) v = 0;
    if ((r & 7) == 1) v = (r & 8) ? 1 : -1;
    (*out)[i] = (r & 4) ? v : -v;
  }
}

using BinF64 = void (*)(const double*, const double*, std::size_t, double*);
using BinI64 = void (*)(const std::int64_t*, const std::int64_t*, std::size_t,
                        std::int64_t*);

struct NamedBinF64 {
  const char* name;
  BinF64 dispatched;
  BinF64 oracle;
};

struct NamedBinI64 {
  const char* name;
  BinI64 dispatched;
  BinI64 oracle;
};

const NamedBinF64 kBinF64[] = {
    {"AddF64", &simd::AddF64, &simd::scalar::AddF64},
    {"SubF64", &simd::SubF64, &simd::scalar::SubF64},
    {"MulF64", &simd::MulF64, &simd::scalar::MulF64},
    {"DivF64", &simd::DivF64, &simd::scalar::DivF64},
};

const NamedBinI64 kBinI64[] = {
    {"AddI64", &simd::AddI64, &simd::scalar::AddI64},
    {"SubI64", &simd::SubI64, &simd::scalar::SubI64},
};

const simd::CmpOp kCmpOps[] = {simd::CmpOp::kEq, simd::CmpOp::kNe,
                               simd::CmpOp::kLt, simd::CmpOp::kLe,
                               simd::CmpOp::kGt, simd::CmpOp::kGe};

const char* CmpOpName(simd::CmpOp op) {
  switch (op) {
    case simd::CmpOp::kEq: return "kEq";
    case simd::CmpOp::kNe: return "kNe";
    case simd::CmpOp::kLt: return "kLt";
    case simd::CmpOp::kLe: return "kLe";
    case simd::CmpOp::kGt: return "kGt";
    case simd::CmpOp::kGe: return "kGe";
  }
  return "?";
}

constexpr std::uint64_t kGuard64 = 0xa5a5a5a5a5a5a5a5ULL;
constexpr std::uint32_t kGuard32 = 0xa5a5a5a5U;

TEST(SimdDispatch, ArchNameMatchesArch) {
  switch (simd::ActiveArch()) {
    case simd::Arch::kScalar:
      EXPECT_STREQ(simd::ActiveArchName(), "scalar");
      break;
    case simd::Arch::kAvx2:
      EXPECT_STREQ(simd::ActiveArchName(), "avx2");
      break;
    case simd::Arch::kNeon:
      EXPECT_STREQ(simd::ActiveArchName(), "neon");
      break;
  }
}

TEST(SimdDispatch, ForceScalarEnvKnob) {
  // The knob is truthy unless unset or exactly "0" (util/simd.cc); the
  // forced-scalar CI leg runs this whole binary with it set.
  const char* env = std::getenv("FWDECAY_FORCE_SCALAR");
  const bool want_forced =
      env != nullptr && std::string(env) != "0" && *env != '\0';
  EXPECT_EQ(simd::ForcedScalar(), want_forced);
  if (simd::ForcedScalar()) {
    EXPECT_EQ(simd::ActiveArch(), simd::Arch::kScalar);
  }
}

TEST(SimdDifferential, BinaryF64BitExact) {
  for (const NamedBinF64& k : kBinF64) {
    for (const std::size_t n : kLengths) {
      std::vector<double> a(n), b(n);
      FillDoubles(0x1000 + n, &a);
      FillDoubles(0x2000 + n, &b);
      // DivF64: make some divisors exact zeros to force ±inf / NaN.
      std::uint64_t s = 0x3000 + n;
      for (std::size_t i = 0; i < n; ++i) {
        if ((SplitMix64(&s) & 15) == 0) b[i] = (s & 1) ? 0.0 : -0.0;
      }
      std::vector<double> got(n + 1), want(n + 1);
      got[n] = DoubleFromBits(kGuard64);   // overrun canary
      want[n] = DoubleFromBits(kGuard64);
      k.dispatched(a.data(), b.data(), n, got.data());
      k.oracle(a.data(), b.data(), n, want.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(BitsOf(got[i]), BitsOf(want[i]))
            << k.name << " n=" << n << " i=" << i << " a=" << a[i]
            << " b=" << b[i];
      }
      EXPECT_EQ(BitsOf(got[n]), kGuard64) << k.name << " wrote past n=" << n;
    }
  }
}

TEST(SimdDifferential, BinaryI64Exact) {
  for (const NamedBinI64& k : kBinI64) {
    for (const std::size_t n : kLengths) {
      std::vector<std::int64_t> a(n), b(n);
      FillInt64(0x4000 + n, &a);
      FillInt64(0x5000 + n, &b);
      std::vector<std::int64_t> got(n + 1), want(n + 1);
      got[n] = static_cast<std::int64_t>(kGuard64);
      want[n] = static_cast<std::int64_t>(kGuard64);
      k.dispatched(a.data(), b.data(), n, got.data());
      k.oracle(a.data(), b.data(), n, want.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << k.name << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(got[n], static_cast<std::int64_t>(kGuard64))
          << k.name << " wrote past n=" << n;
    }
  }
}

TEST(SimdDifferential, CmpF64AllOpsIncludingNaN) {
  for (const simd::CmpOp op : kCmpOps) {
    for (const std::size_t n : kLengths) {
      std::vector<double> a(n), b(n);
      FillDoubles(0x6000 + n, &a);
      FillDoubles(0x7000 + n, &b);
      // Force equal pairs so kEq/kLe/kGe see true lanes, and NaN-vs-NaN
      // pairs so the ordered-predicate rule is exercised on both sides.
      std::uint64_t s = 0x8000 + n;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t r = SplitMix64(&s);
        if ((r & 7) == 0) b[i] = a[i];
        if ((r & 7) == 1) {
          a[i] = std::numeric_limits<double>::quiet_NaN();
          b[i] = std::numeric_limits<double>::quiet_NaN();
        }
      }
      std::vector<std::int64_t> got(n + 1), want(n + 1);
      got[n] = static_cast<std::int64_t>(kGuard64);
      want[n] = static_cast<std::int64_t>(kGuard64);
      simd::CmpF64(op, a.data(), b.data(), n, got.data());
      simd::scalar::CmpF64(op, a.data(), b.data(), n, want.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "CmpF64 " << CmpOpName(op) << " n=" << n
                                   << " i=" << i << " a=" << a[i]
                                   << " b=" << b[i];
        ASSERT_TRUE(got[i] == 0 || got[i] == 1)
            << "CmpF64 must produce 0/1, got " << got[i];
      }
      EXPECT_EQ(got[n], static_cast<std::int64_t>(kGuard64));
    }
  }
}

TEST(SimdDifferential, CmpF64NaNSemantics) {
  // Pinned independently of the oracle: the strict predicates kEq, kLt,
  // kGt are IEEE-ordered (NaN → false) while kNe, kLe, kGe are their
  // *negations* (NaN → true) — exactly dsms::Compare's double branch,
  // where a NaN operand yields Compare() == 0 and 0 satisfies <= / >=.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double vals[] = {nan, 1.0, nan};
  const double ones[] = {1.0, nan, nan};
  std::int64_t out[3];
  for (const simd::CmpOp op : kCmpOps) {
    simd::CmpF64(op, vals, ones, 3, out);
    const bool strict = op == simd::CmpOp::kEq || op == simd::CmpOp::kLt ||
                        op == simd::CmpOp::kGt;
    const std::int64_t want = strict ? 0 : 1;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(out[i], want) << CmpOpName(op) << " lane " << i;
    }
  }
}

TEST(SimdDifferential, CmpI64AllOps) {
  for (const simd::CmpOp op : kCmpOps) {
    for (const std::size_t n : kLengths) {
      std::vector<std::int64_t> a(n), b(n);
      FillInt64(0x9000 + n, &a);
      FillInt64(0xa000 + n, &b);
      std::uint64_t s = 0xb000 + n;
      for (std::size_t i = 0; i < n; ++i) {
        if ((SplitMix64(&s) & 3) == 0) b[i] = a[i];
      }
      std::vector<std::int64_t> got(n + 1), want(n + 1);
      got[n] = static_cast<std::int64_t>(kGuard64);
      want[n] = static_cast<std::int64_t>(kGuard64);
      simd::CmpI64(op, a.data(), b.data(), n, got.data());
      simd::scalar::CmpI64(op, a.data(), b.data(), n, want.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i])
            << "CmpI64 " << CmpOpName(op) << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(got[n], static_cast<std::int64_t>(kGuard64));
    }
  }
}

TEST(SimdDifferential, FilterByteEq) {
  for (const std::size_t n : kLengths) {
    std::vector<std::uint8_t> bytes(n);
    std::uint64_t s = 0xc000 + n;
    for (std::size_t i = 0; i < n; ++i) {
      // Dense hits on a small alphabet so runs of matches and misses
      // both occur within one 32-byte AVX2 chunk.
      bytes[i] = static_cast<std::uint8_t>(SplitMix64(&s) & 3);
    }
    for (const std::uint8_t target : {std::uint8_t{0}, std::uint8_t{2},
                                      std::uint8_t{255}}) {
      std::vector<std::uint32_t> got(n + 1, kGuard32), want(n + 1, kGuard32);
      const std::size_t got_n =
          simd::FilterByteEq(bytes.data(), target, n, got.data());
      const std::size_t want_n =
          simd::scalar::FilterByteEq(bytes.data(), target, n, want.data());
      ASSERT_EQ(got_n, want_n) << "n=" << n << " target=" << int(target);
      for (std::size_t i = 0; i < got_n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(bytes[got[i]], target);
      }
      // Ascending, duplicate-free selection vector.
      for (std::size_t i = 1; i < got_n; ++i) ASSERT_LT(got[i - 1], got[i]);
      EXPECT_EQ(got[got_n], kGuard32) << "wrote past match count";
    }
  }
}

TEST(SimdDifferential, GroupHashI64MatchesGenericHash) {
  // The kernel's contract is exact equality with the per-Value hash the
  // engine computes on the generic path: HashCombine(seed,
  // HashU64(uint64(key), 1)). Checked against both the scalar oracle
  // and that closed form.
  for (const std::size_t n : kLengths) {
    std::vector<std::int64_t> keys(n);
    FillInt64(0xd000 + n, &keys);
    if (n > 0) {
      keys[0] = 0;
      keys[n - 1] = std::numeric_limits<std::int64_t>::min();
    }
    if (n > 2) keys[1] = std::numeric_limits<std::int64_t>::max();
    const std::uint64_t seed = 0x12345678abcdef01ULL;  // engine group seed
    std::vector<std::uint64_t> got(n + 1, kGuard64), want(n + 1, kGuard64);
    simd::GroupHashI64(keys.data(), n, seed, got.data());
    simd::scalar::GroupHashI64(keys.data(), n, seed, want.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
      const std::uint64_t closed = HashCombine(
          seed, HashU64(static_cast<std::uint64_t>(keys[i]), 1));
      ASSERT_EQ(got[i], closed) << "closed-form mismatch at i=" << i;
    }
    EXPECT_EQ(got[n], kGuard64);
  }
}

TEST(SimdDifferential, ShardIndexU64MatchesRemixedModulo) {
  // The routing kernel's contract is exact equality with the remixed
  // multiply-shift reduction: the high half of HashU64(hash, seed),
  // times shards, shifted down 32 bits. Every shard count, power of two
  // or not, takes the vectorized path — checked against the scalar
  // oracle and the closed form.
  const std::uint64_t seed = 0x5ca1ab1e0ddba11ULL;  // engine route seed
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 7u, 8u, 64u}) {
    for (const std::size_t n : kLengths) {
      std::vector<std::uint64_t> hashes(n);
      std::uint64_t s = 0xf100 + n + shards;
      for (std::size_t i = 0; i < n; ++i) hashes[i] = SplitMix64(&s);
      if (n > 0) hashes[0] = 0;
      if (n > 1) hashes[n - 1] = ~std::uint64_t{0};
      std::vector<std::uint32_t> got(n + 1, kGuard32), want(n + 1, kGuard32);
      simd::ShardIndexU64(hashes.data(), n, seed, shards, got.data());
      simd::scalar::ShardIndexU64(hashes.data(), n, seed, shards,
                                  want.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i])
            << "shards=" << shards << " n=" << n << " i=" << i;
        const std::uint64_t hi = HashU64(hashes[i], seed) >> 32;
        ASSERT_EQ(got[i], (hi * shards) >> 32);
        ASSERT_LT(got[i], shards);
      }
      EXPECT_EQ(got[n], kGuard32) << "wrote past n";
    }
  }
}

TEST(SimdDifferential, CompactNonZeroI64) {
  for (const std::size_t n : kLengths) {
    std::vector<std::int64_t> vals(n);
    std::vector<std::uint32_t> sel(n);
    std::uint64_t s = 0xe000 + n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t r = SplitMix64(&s);
      vals[i] = (r & 3) == 0 ? 0 : static_cast<std::int64_t>(r >> 3);
      sel[i] = static_cast<std::uint32_t>(i * 2);  // arbitrary payload
    }
    std::vector<std::uint32_t> got = sel, want = sel;
    const std::size_t got_n = simd::CompactNonZeroI64(vals.data(), got.data(), n);
    const std::size_t want_n =
        simd::scalar::CompactNonZeroI64(vals.data(), want.data(), n);
    ASSERT_EQ(got_n, want_n) << "n=" << n;
    for (std::size_t i = 0; i < got_n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdDifferential, CompactNonZeroF64TruthinessOfSpecials) {
  // NaN is truthy (NaN != 0.0); both zero signs are falsy; denormals
  // and infinities are truthy.
  const std::vector<double> specials = SpecialDoubles();
  for (const std::size_t n : kLengths) {
    std::vector<double> vals(n);
    std::vector<std::uint32_t> sel(n);
    std::uint64_t s = 0xf000 + n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t r = SplitMix64(&s);
      switch (r & 3) {
        case 0: vals[i] = 0.0; break;
        case 1: vals[i] = -0.0; break;
        default: vals[i] = specials[(r >> 8) % specials.size()];
      }
      sel[i] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint32_t> got = sel, want = sel;
    const std::size_t got_n = simd::CompactNonZeroF64(vals.data(), got.data(), n);
    const std::size_t want_n =
        simd::scalar::CompactNonZeroF64(vals.data(), want.data(), n);
    ASSERT_EQ(got_n, want_n) << "n=" << n;
    for (std::size_t i = 0; i < got_n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
      const double v = vals[got[i]];
      ASSERT_TRUE(std::isnan(v) || v != 0.0) << "kept a falsy lane";
    }
  }
}

// --- Arena (DESIGN.md §13.3) ----------------------------------------------

TEST(Arena, AlignmentAndDistinctness) {
  util::Arena arena(256);
  void* seen[64];
  for (int i = 0; i < 64; ++i) {
    const std::size_t align = std::size_t{1} << (i % 6);  // 1..32
    void* p = arena.Allocate(static_cast<std::size_t>(i % 17) + 1, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
    seen[i] = p;
    std::memset(p, 0xcd, static_cast<std::size_t>(i % 17) + 1);
  }
  for (int i = 0; i < 64; ++i) {
    for (int j = i + 1; j < 64; ++j) EXPECT_NE(seen[i], seen[j]);
  }
}

TEST(Arena, OversizedAllocationGetsDedicatedChunk) {
  util::Arena arena(64);
  void* big = arena.Allocate(4096, 8);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xab, 4096);
  EXPECT_GE(arena.bytes_reserved(), 4096u);
  // Subsequent small allocations still succeed.
  void* small = arena.Allocate(16, 8);
  ASSERT_NE(small, nullptr);
}

TEST(Arena, ResetRetainsChunks) {
  util::Arena arena(1024);
  for (int i = 0; i < 100; ++i) arena.Allocate(64, 8);
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GT(arena.bytes_allocated(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  // Reuse after reset hands back the same storage range.
  for (int i = 0; i < 100; ++i) arena.Allocate(64, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(Arena, NewRunsConstructorCallerRunsDestructor) {
  struct Tracked {
    explicit Tracked(int* c) : counter(c) { ++*counter; }
    ~Tracked() { --*counter; }
    int* counter;
    char payload[40];
  };
  int live = 0;
  util::Arena arena;
  Tracked* a = arena.New<Tracked>(&live);
  Tracked* b = arena.New<Tracked>(&live);
  EXPECT_EQ(live, 2);
  a->~Tracked();
  b->~Tracked();
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace fwdecay
