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
//   * The tile path (TileKernels; AVX-512 VNNI + VL + BW only) runs a tile
//     the way the PE array does. Each segment's diagonal key stream is
//     staged once per tile: K u8-biased in 16-key blocks of 4-byte groups,
//     V 4-key-interleaved in 16-dim blocks. Stage 1 then computes a whole
//     rows x stream score band with vpdpbusd from registers, and stage 5
//     accumulates each row's weights against the staged V, again with
//     vpdpbusd. TileExecutor takes it when every field is non-null.
//   * The row path gathers each PE row's keys and calls the row-batched
//     kernels: dot_i8_rows holds the query row widened in registers while
//     streaming the row's K vectors; wacc_sp_i8 holds the output
//     accumulator in registers while streaming the row's V vectors. It is
//     the only path on hosts without VNNI, and it runs one-row tiles, the
//     global PE row and the global PE column everywhere.
//
// The one float kernel is the Q3.4 input quantizer at the accelerator
// boundary: it reproduces InputFx::from_float bit for bit (same rounding,
// same saturation, NaN -> 0), so every caller may use it in place of the
// per-element scalar conversion.
//
// Kernels are dispatched at load time to the widest ISA the host CPU
// supports (AVX-512 VNNI > AVX-512BW > AVX2 > unrolled scalar) via
// GCC/Clang target attributes — no special compile flags needed, and the
// binary stays runnable on any x86-64. Non-x86 builds get the unrolled
// scalar kernels and no tile path.
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

/// Tile-path kernels. A tile segment's diagonal key stream has `len` slots;
/// slot s holds key key_base + s * dilation, and a slot whose key lies
/// outside [0, n) or past the stream stages as zero. Every kernel needs d
/// to be a multiple of 16. All buffers are caller-owned.
struct TileKernels {
    /// Stage the stream's K rows: ceil(len/16) blocks of d/4 64-byte
    /// vectors. Vector g of block b holds bytes [4g, 4g+4) of the blocks'
    /// 16 keys, one dword per key, each byte XORed with 0x80 (k + 128 as
    /// u8) so that vpdpbusd can take K as its unsigned operand.
    using StageKFn = void (*)(const std::int8_t* kbase, int n, int d,
                              std::int64_t key_base, int dilation, int len,
                              std::uint8_t* out);
    /// Stage the stream's V rows: ceil(len/4) groups of d/16 64-byte
    /// vectors. Vector B of group G holds dims [16B, 16B+16) of the group's
    /// four keys, interleaved: byte 4t+i is v[slot 4G+i][16B+t].
    using StageVFn = StageKFn;
    /// Stage 1 for every row of the tile at once. Row r (query
    /// query_ids[r], skipped when negative) covers stream slots
    /// [r, r + width); band[r*stride + s] = q . k[slot s] for every slot s
    /// of each 16-slot block the row overlaps. Exact: the staged K is
    /// k + 128, so the vpdpbusd sum is q . k + 128 * qsum[query], with
    /// |sum| < d * 255 * 128 (< 2^21 at d = 64), and qsum[query] * 128 is
    /// subtracted once.
    using ScoreBandFn = void (*)(const std::uint8_t* kstaged, int d, int len,
                                 const std::int8_t* qbase, const std::int32_t* qsum,
                                 const std::int32_t* query_ids, int rows, int width,
                                 std::int32_t* band, int stride);
    /// Compress one row's band entries under its valid mask:
    /// out[0, count) = band_row[j] for each j in [0, width) with valid[j]
    /// != 0, in order. Returns count, or -1 if a valid j lies outside
    /// [in_lo, in_hi) (its key is not in [0, n)). Writes up to 16 entries
    /// past out[count].
    using SelectFn = int (*)(const std::int32_t* band_row, const std::uint8_t* valid,
                             int width, int in_lo, int in_hi, std::int32_t* out);
    /// Stage 5 of one row against one staged V stream:
    /// acc[t] += sum_j sps[i_j] * v[slot slot0 + j][t] over the valid j in
    /// [0, width), where i_j counts the valid slots before j. Each sp (a
    /// uint16 in a uint32; it can reach 32771, past int16) is split into lo
    /// and hi bytes, one vpdpbusd per 4-slot group and 16-dim block takes
    /// each, and acc += (hi << 8) + lo — an exact integer identity with the
    /// same |acc| < 2^23 bound as wacc_sp_i8. `bytes` is scratch of at
    /// least 2 * width + 128 bytes.
    using WaccStreamFn = void (*)(std::int32_t* acc, const std::uint32_t* sps,
                                  const std::uint8_t* valid, int width, int slot0,
                                  const std::uint8_t* vstaged, int d,
                                  std::uint8_t* bytes);

    StageKFn stage_k = nullptr;
    StageVFn stage_v = nullptr;
    ScoreBandFn score_band = nullptr;
    SelectFn select = nullptr;
    WaccStreamFn wacc_stream = nullptr;
};

/// Dispatched entry points (resolved once, before main()).
extern const DotI8Fn dot_i8;
extern const RowDotFn dot_i8_rows;
extern const WaccFn wacc_sp_i8;
extern const PwlExpBatchFn pwl_exp_batch;  ///< nullptr when no SIMD support
extern const NormProbsFn normalize_probs;
extern const RoundShiftFn round_shift_i32;
extern const MixFn mix_i32;
extern const QuantizeI8Fn quantize_i8;
/// Every field is nullptr on hosts without AVX-512 VNNI + VL + BW.
extern const TileKernels tile_kernels;

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

/// Name of the ISA level the dispatcher selected: "avx512vnni" when the tile
/// path runs, else the row path's "avx512bw", "avx2" or "scalar". perfbench
/// records it as runner.notes.kernel_isa beside every result.
const char* isa_name();

}  // namespace kernels
}  // namespace salo
