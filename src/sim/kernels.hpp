// Hot-path integer kernels of the functional simulator.
//
// The loops that dominate full-layer runs are the stage-1 dot products
// (int8 x int8 -> int32) and the stage-5 weighted accumulation (Q.15
// probability x int8 value -> int32). Both are pure integer, so any
// vectorization or reassociation is bit-exact: integer addition is
// associative, and every intermediate fits its lane width (see the proofs
// at the declarations).
//
// Besides plain element kernels, row-batched forms amortize per-call cost
// across a PE row's keys: dot_i8_rows holds the query row widened in
// registers while streaming the row's K vectors; wacc_sp_i8 holds the
// output accumulator in registers while streaming the row's V vectors.
//
// The one float kernel is the Q3.4 input quantizer at the accelerator
// boundary: it reproduces InputFx::from_float bit for bit (same rounding,
// same saturation, NaN -> 0), so every caller may use it in place of the
// per-element scalar conversion.
//
// Kernels are dispatched at load time to the widest ISA the host CPU
// supports (AVX-512BW > AVX2 > unrolled scalar) via GCC/Clang target
// attributes — no special compile flags needed, and the binary stays
// runnable on any x86-64. Non-x86 builds get the unrolled scalar kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "numeric/datapath.hpp"

namespace salo {
namespace kernels {

/// sum_t q[t]*k[t] over d int8 elements, accumulated in int32.
/// Exact: |product| <= 2^14, d <= 2^16 in practice => |sum| < 2^31.
using DotI8Fn = std::int32_t (*)(const std::int8_t* q, const std::int8_t* k, int d);

/// scores[i] = sum_t q[t] * kbase[keys[i]*d + t] for i in [0, count):
/// one query row against a gathered set of key rows.
using RowDotFn = void (*)(const std::int8_t* q, const std::int8_t* kbase,
                          const int* keys, int count, int d, std::int32_t* scores);

/// acc[t] += sum_i sps[i] * vbase[keys[i]*d + t]: a whole row's stage-5
/// weighted sum in one call (sps entries may be zero; they contribute 0).
using WaccFn = void (*)(std::int32_t* acc, const std::uint32_t* sps, const int* keys,
                        int count, const std::int8_t* vbase, int d);

/// LUT pointers and bit-layout of one PwlExp instance, passed to the
/// batched stage-2 kernel (kernels must not depend on the numeric classes).
struct PwlExpParams {
    const std::int32_t* slope;  ///< 2^seg_bits chord slopes, Q.lut_frac
    const std::int32_t* icept;  ///< 2^seg_bits chord intercepts, Q.lut_frac
    int lut_frac = 0;
    int y_min = 0;
    int y_max = 0;
};

/// Batched PWL exponential: out[i] = exp_raw(x[i]) for a *fixed 8-segment
/// LUT* (seg_bits == 3, the paper's configuration). Returns the number of
/// leading elements processed (a multiple of the lane width; the caller
/// finishes the tail with the scalar evaluation). Bit-identical to
/// PwlExp::exp_raw by construction — every step is the same integer op, and
/// the scalar saturation branches are unreachable under the parameter
/// bounds the caller checks (see exp_batch in src/sim/part_builder.cpp).
using PwlExpBatchFn = int (*)(const PwlExpParams& p, const ScoreRaw* x, ExpRaw* out,
                              int count);

/// sps[i] = normalize_prob(exps[i], inv) for i in [0, count).
using NormProbsFn = void (*)(const ExpRaw* exps, int count, InvRaw inv,
                             std::uint32_t* sps);

/// In-place round-to-nearest (ties away from zero) right shift:
/// v[i] = round_shift(v[i], shift) with shift in (0, 31).
/// Contract: |v[i]| + 2^(shift-1) must fit int32 (callers pass stage-5
/// accumulators bounded by 2^23); values near INT32_MAX would overflow the
/// 32-bit magnitude-plus-half step.
using RoundShiftFn = void (*)(std::int32_t* v, int count, int shift);

/// Eq. 2 mix: out[t] = round_shift(a*out[t] + b*in[t], Datapath::sprime_frac)
/// with a, b <= 2^sprime_frac — the weighted-sum module's inner loop.
using MixFn = void (*)(std::int32_t* out, const std::int32_t* in, std::uint32_t a,
                       std::uint32_t b, int d);

/// out[i] = InputFx::from_float(float(x[i] * scale)).raw() for i in [0, n):
/// the product is rounded to float first (the host-side 1/sqrt(d) prescale),
/// then scaled by 16 (exact), rounded to an integer in the current rounding
/// mode (ties to even by default, as std::nearbyint) and saturated to
/// [-128, 127]; NaN maps to 0 and +-inf saturates. scale == 1 is the plain
/// quantizer.
using QuantizeI8Fn = void (*)(const float* x, std::size_t n, float scale,
                              std::int8_t* out);

/// Dispatched entry points (resolved once, before main()).
extern const DotI8Fn dot_i8;
extern const RowDotFn dot_i8_rows;
extern const WaccFn wacc_sp_i8;
extern const PwlExpBatchFn pwl_exp_batch;  ///< nullptr when no SIMD support
extern const NormProbsFn normalize_probs;
extern const RoundShiftFn round_shift_i32;
extern const MixFn mix_i32;
extern const QuantizeI8Fn quantize_i8;

/// Portable unrolled-scalar implementations (always available; used as the
/// dispatch fallback and by tests to pin down bit-identity).
std::int32_t dot_i8_scalar(const std::int8_t* q, const std::int8_t* k, int d);
void dot_i8_rows_scalar(const std::int8_t* q, const std::int8_t* kbase, const int* keys,
                        int count, int d, std::int32_t* scores);
void wacc_sp_i8_scalar(std::int32_t* acc, const std::uint32_t* sps, const int* keys,
                       int count, const std::int8_t* vbase, int d);
void normalize_probs_scalar(const ExpRaw* exps, int count, InvRaw inv,
                            std::uint32_t* sps);
void round_shift_i32_scalar(std::int32_t* v, int count, int shift);
void mix_i32_scalar(std::int32_t* out, const std::int32_t* in, std::uint32_t a,
                    std::uint32_t b, int d);
void quantize_i8_scalar(const float* x, std::size_t n, float scale, std::int8_t* out);

/// Every quantize_i8 implementation this host can run, widest first and
/// "scalar" last, so tests can pin each ISA level — not only the one the
/// dispatcher picked — against InputFx::from_float.
std::vector<std::pair<const char*, QuantizeI8Fn>> quantize_i8_levels();

/// Name of the ISA level the dispatcher selected ("avx512bw", "avx2",
/// "scalar"); surfaced by bench_throughput's JSON output.
const char* isa_name();

}  // namespace kernels
}  // namespace salo
