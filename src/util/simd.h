#ifndef FWDECAY_UTIL_SIMD_H_
#define FWDECAY_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

// Runtime-dispatched SIMD kernels for the batched ingest hot path
// (DESIGN.md §13.4). The instruction set is detected once at startup
// (AVX2 on x86-64, NEON on aarch64, scalar otherwise); every kernel also
// ships a scalar arm that is compiled unconditionally and kept
// *bit-exact* with the vector arms — the scalar implementations are the
// differential oracle (tests/simd_test.cc) and the forced-scalar CI leg
// runs the whole engine through them.
//
// Bit-exactness discipline: vector arms may only reorder *independent*
// lanes. Elementwise IEEE-754 add/sub/mul/div/compare are exact per
// lane, so they vectorize; ordered reductions and libm calls stay with
// the caller in stream order. Each kernel performs exactly one FP
// operation per element so no arm can be contracted into an FMA the
// other arm does not perform.
//
// Knobs:
//   FWDECAY_FORCE_SCALAR=1  (env) forces the scalar arms at startup.
//   -DFWDECAY_SIMD=OFF      (cmake) compiles the vector arms out.

namespace fwdecay::simd {

enum class Arch { kScalar, kAvx2, kNeon };

/// The arm every dispatched kernel below routes to; fixed at startup.
Arch ActiveArch();

/// "scalar" | "avx2" | "neon" — recorded in BENCH_ingest.json rows.
const char* ActiveArchName();

/// True if FWDECAY_FORCE_SCALAR pinned the dispatch to scalar.
bool ForcedScalar();

/// Comparison operator selector for the compare kernels. Semantics match
/// dsms::Value comparisons on numerics: ordered predicates, so any NaN
/// operand yields 0 for kEq/kLt/kGt and 1 for their negations.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// --- Dispatched kernels ----------------------------------------------------

/// Writes the indices i in [0, n) with bytes[i] == target to out_sel
/// (ascending); returns the match count. The engine's protocol filter.
std::size_t FilterByteEq(const std::uint8_t* bytes, std::uint8_t target,
                         std::size_t n, std::uint32_t* out_sel);

/// Group-key hash for a single int64 key column: out[i] is exactly
/// HashCombine(seed, HashU64(uint64(keys[i]), /*seed=*/1)) — the same
/// value the generic per-Value loop produces (util/hash.h + Value::Hash).
void GroupHashI64(const std::int64_t* keys, std::size_t n,
                  std::uint64_t seed, std::uint64_t* out);

/// Batch-partition kernel for shard routing (DESIGN.md §14.1): out[i] is
/// exactly (uint64(uint32(HashU64(hashes[i], seed) >> 32)) * num_shards)
/// >> 32 — the group hash remixed under an independent seed, its high
/// half reduced to a shard index by multiply-shift (Lemire), which the
/// AVX2 arm vectorizes for every shard count. num_shards must be > 0.
void ShardIndexU64(const std::uint64_t* hashes, std::size_t n,
                   std::uint64_t seed, std::uint32_t num_shards,
                   std::uint32_t* out);

// Elementwise arithmetic, one IEEE operation per element.
void AddF64(const double* a, const double* b, std::size_t n, double* out);
void SubF64(const double* a, const double* b, std::size_t n, double* out);
void MulF64(const double* a, const double* b, std::size_t n, double* out);
void DivF64(const double* a, const double* b, std::size_t n, double* out);
void AddI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out);
void SubI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out);

/// Elementwise compare producing an int64 0/1 column (the engine's
/// boolean representation).
void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01);
void CmpI64(CmpOp op, const std::int64_t* a, const std::int64_t* b,
            std::size_t n, std::int64_t* out01);

/// In-place selection compaction: keeps sel[i] where vals[i] is truthy
/// (non-zero; NaN is truthy), returns the new count. Predicate batch
/// evaluation's final narrowing step.
std::size_t CompactNonZeroI64(const std::int64_t* vals, std::uint32_t* sel,
                              std::size_t n);
std::size_t CompactNonZeroF64(const double* vals, std::uint32_t* sel,
                              std::size_t n);

// --- Scalar oracle ---------------------------------------------------------
// The always-compiled scalar arms, callable directly so the differential
// tests can compare a dispatched result against the oracle on the same
// inputs regardless of what ActiveArch() resolved to.

namespace scalar {

std::size_t FilterByteEq(const std::uint8_t* bytes, std::uint8_t target,
                         std::size_t n, std::uint32_t* out_sel);
void GroupHashI64(const std::int64_t* keys, std::size_t n,
                  std::uint64_t seed, std::uint64_t* out);
void ShardIndexU64(const std::uint64_t* hashes, std::size_t n,
                   std::uint64_t seed, std::uint32_t num_shards,
                   std::uint32_t* out);
void AddF64(const double* a, const double* b, std::size_t n, double* out);
void SubF64(const double* a, const double* b, std::size_t n, double* out);
void MulF64(const double* a, const double* b, std::size_t n, double* out);
void DivF64(const double* a, const double* b, std::size_t n, double* out);
void AddI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out);
void SubI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out);
void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01);
void CmpI64(CmpOp op, const std::int64_t* a, const std::int64_t* b,
            std::size_t n, std::int64_t* out01);
std::size_t CompactNonZeroI64(const std::int64_t* vals, std::uint32_t* sel,
                              std::size_t n);
std::size_t CompactNonZeroF64(const double* vals, std::uint32_t* sel,
                              std::size_t n);

}  // namespace scalar

}  // namespace fwdecay::simd

#endif  // FWDECAY_UTIL_SIMD_H_
