// Hot-path integer kernels of the functional simulator.
//
// The loops that dominate full-layer runs are the stage-1 dot products
// (int8 x int8 -> int32) and the stage-5 weighted accumulation (Q.15
// probability x int8 value -> int32). Both are pure integer, so any
// vectorization or reassociation is bit-exact: integer addition is
// associative, and every intermediate fits its lane width (see the proofs
// at the declarations).
//
// Two datapaths use them:
//   * The tile path (the stage_k .. wacc_stream fields of a KernelSet; set
//     on the avx512vnni level only) runs a tile the way the PE array does.
//     Each diagonal key stream is staged once per head, 16 keys at a time,
//     on first use: K u8-biased in 16-key blocks of 4-byte groups, V
//     4-key-interleaved in 16-dim blocks. Stage 1 then computes a whole
//     rows x stream score band with vpdpbusd from registers, and stage 5
//     accumulates each row's weights against the staged V, again with
//     vpdpbusd. TileExecutor takes it when its set has the tile fields.
//   * The row path gathers each PE row's keys and calls the row-batched
//     kernels: dot_rows holds the query row widened in registers while
//     streaming the row's K vectors; wacc holds the output accumulator in
//     registers while streaming the row's V vectors. It is the only path
//     on the other levels, and it runs one-row tiles, the global PE row and
//     the global PE column on every level.
//
// The one float kernel is the Q3.4 input quantizer at the accelerator
// boundary: it reproduces InputFx::from_float bit for bit (same rounding,
// same saturation, NaN -> 0), so every caller may use it in place of the
// per-element scalar conversion.
//
// One KernelSet per ISA level (kernel_sets()): avx512vnni (AVX-512
// F+BW+VL+VNNI), avx512 (F+BW), avx2 and unrolled scalar, built with
// GCC/Clang target attributes — no special compile flags needed, and the
// binary stays runnable on any x86-64. Non-x86 builds have the scalar level
// only. The avx512 levels share avx2's dot_rows. Every level is
// bit-identical to scalar (tested level by level); production code runs
// dispatched(), the widest level the host runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "numeric/datapath.hpp"

namespace salo {
namespace kernels {

/// scores[i] = sum_t q[t] * kbase[keys[i]*d + t] for i in [0, count):
/// one query row against a gathered set of key rows. Exact: |product| <=
/// 2^14, d <= 2^16 in practice => |sum| < 2^31.
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
    ScoreRaw x_lo = 0;  ///< PwlExp::x_lo(): every score <= x_lo clamps to y_min
    ScoreRaw x_hi = 0;  ///< PwlExp::x_hi(): every score >= x_hi clamps to y_max
};

/// Batched PWL exponential: out[i] = exp_raw(x[i]) for every i in
/// [0, count), for a *fixed 8-segment LUT* (seg_bits == 3, the paper's
/// configuration), in 32-bit lanes. Every step is exact:
///   * clamping x to [x_lo, x_hi] first changes no result (past either
///     bound y clamps anyway) and keeps |x * log2(e)| < 2^31 for
///     y_min >= -40;
///   * with lut_frac <= 15 every chord slope is < 2^16, so slope * frac
///     (frac < 2^16) is exact as an unsigned 32-bit product;
///   * m = slope * frac + icept is at most about 2^(lut_frac+1) and y <=
///     y_max <= 16 with frac = 0 at 16, so m << shift stays below 2^31 and
///     exp_raw's u32 saturation never fires.
/// Bit-identical to PwlExp::exp_raw under the bounds the caller checks
/// (exp_batch in src/sim/part_builder.cpp): tested on every score in
/// [-2^23, 2^23] (which holds [x_lo, x_hi], so every int32 is covered) and,
/// for the default unit, on all 2^32 in a disabled test.
using PwlExpBatchFn = void (*)(const PwlExpParams& p, const ScoreRaw* x, ExpRaw* out,
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

/// out[i] = OutputFx::from_raw(round_shift(state[i], wsm_frac - out_frac))
/// .to_float(): a row of the weighted-sum module's Q.wsm_frac state rounded
/// (ties away from zero) by 8 bits, saturated to int16 and scaled by 1/256,
/// which is exact. Every int32 is a valid input.
using FinalizeFn = void (*)(const std::int32_t* state, int count, float* out);

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

/// Tile-path kernels. A tile segment's diagonal key stream has `len` slots;
/// slot s holds key key_base + s * dilation, and a slot whose key lies
/// outside [0, n) or past the stream stages as zero. Every kernel needs d
/// to be a multiple of 16. All buffers are caller-owned.
///
/// Stage the stream's K rows: ceil(len/16) blocks of d/4 64-byte vectors.
/// Vector g of block b holds bytes [4g, 4g+4) of the blocks' 16 keys, one
/// dword per key, each byte XORed with 0x80 (k + 128 as u8) so that
/// vpdpbusd can take K as its unsigned operand. Staging V (stage_v, same
/// signature) writes ceil(len/4) groups of d/16 64-byte vectors: vector B
/// of group G holds dims [16B, 16B+16) of the group's four keys,
/// interleaved: byte 4t+i is v[slot 4G+i][16B+t].
using StageFn = void (*)(const std::int8_t* kbase, int n, int d, std::int64_t key_base,
                         int dilation, int len, std::uint8_t* out);

/// Stage 1 for every row of the tile at once. Row r (query query_ids[r],
/// skipped when negative) covers stream slots [r, r + width);
/// band[r*stride + s] = q . k[slot s] for every slot s of each 16-slot block
/// the row overlaps. Exact: the staged K is k + 128, so the vpdpbusd sum is
/// q . k + 128 * qsum[query], with |sum| < d * 255 * 128 (< 2^21 at d = 64),
/// and qsum[query] * 128 is subtracted once.
using ScoreBandFn = void (*)(const std::uint8_t* kstaged, int d, int len,
                             const std::int8_t* qbase, const std::int32_t* qsum,
                             const std::int32_t* query_ids, int rows, int width,
                             std::int32_t* band, int stride);

/// Compress one row's band entries under its valid mask:
/// out[0, count) = band_row[j] for each j in [0, width) with valid[j] != 0,
/// in order. Returns count, or -1 if a valid j lies outside [in_lo, in_hi)
/// (its key is not in [0, n)). Writes up to 16 entries past out[count].
using SelectFn = int (*)(const std::int32_t* band_row, const std::uint8_t* valid,
                         int width, int in_lo, int in_hi, std::int32_t* out);

/// Stage 5 of one row against one staged V stream:
/// acc[t] += sum_j sps[i_j] * v[slot slot0 + j][t] over the valid j in
/// [0, width), where i_j counts the valid slots before j. Each sp (a uint16
/// in a uint32; it can reach 32771, past int16) is split into lo and hi
/// bytes, one vpdpbusd per 4-slot group and 16-dim block takes each, and
/// acc += (hi << 8) + lo — an exact integer identity with the same
/// |acc| < 2^23 bound as WaccFn. `bytes` is scratch of at least
/// 2 * width + 128 bytes.
using WaccStreamFn = void (*)(std::int32_t* acc, const std::uint32_t* sps,
                              const std::uint8_t* valid, int width, int slot0,
                              const std::uint8_t* vstaged, int d, std::uint8_t* bytes);

/// Every kernel of one ISA level. Each field but pwl_exp_batch and the
/// tile fields is always set.
struct KernelSet {
    const char* name = nullptr;  ///< "avx512vnni", "avx512", "avx2" or "scalar"
    RowDotFn dot_rows = nullptr;
    WaccFn wacc = nullptr;
    PwlExpBatchFn pwl_exp_batch = nullptr;  ///< nullptr on scalar
    NormProbsFn normalize_probs = nullptr;
    RoundShiftFn round_shift = nullptr;
    FinalizeFn finalize = nullptr;
    MixFn mix = nullptr;
    QuantizeI8Fn quantize = nullptr;
    // The tile path: all five set on avx512vnni, all nullptr elsewhere.
    StageFn stage_k = nullptr;
    StageFn stage_v = nullptr;
    ScoreBandFn score_band = nullptr;
    SelectFn select = nullptr;
    WaccStreamFn wacc_stream = nullptr;

    bool has_tile_path() const { return score_band != nullptr; }
};

/// Every level this host runs, widest first and "scalar" last; built once.
const std::vector<KernelSet>& kernel_sets();

/// The widest level, kernel_sets().front(): what production code runs.
const KernelSet& dispatched();

/// dispatched().name. perfbench records it as runner.notes.kernel_isa beside
/// every result.
const char* isa_name();

}  // namespace kernels
}  // namespace salo
