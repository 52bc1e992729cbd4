#include "sim/kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "numeric/reciprocal.hpp"  // normalize_prob (stage-4 scalar form)

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SALO_X86_DISPATCH 1
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's AVX-512 intrinsic wrappers pass an undefined vector as the
// ignored merge operand of maskless builtins, tripping -Wuninitialized
// false positives when inlined. Nothing in this TU reads uninitialized data.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

namespace salo {
namespace kernels {

namespace {
inline const std::int8_t* row_ptr(const std::int8_t* base, int key, int d) {
    return base + static_cast<std::size_t>(key) * static_cast<std::size_t>(d);
}
}  // namespace

// ---------------------------------------------------------------------------
// Scalar fallbacks: 4-way unrolled so the accumulator chains don't serialize.
// ---------------------------------------------------------------------------

static std::int32_t dot_i8_scalar(const std::int8_t* q, const std::int8_t* k, int d) {
    std::int32_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    int t = 0;
    for (; t + 4 <= d; t += 4) {
        a0 += static_cast<std::int32_t>(q[t]) * k[t];
        a1 += static_cast<std::int32_t>(q[t + 1]) * k[t + 1];
        a2 += static_cast<std::int32_t>(q[t + 2]) * k[t + 2];
        a3 += static_cast<std::int32_t>(q[t + 3]) * k[t + 3];
    }
    for (; t < d; ++t) a0 += static_cast<std::int32_t>(q[t]) * k[t];
    return a0 + a1 + a2 + a3;
}

static void dot_i8_rows_scalar(const std::int8_t* q, const std::int8_t* kbase,
                               const int* keys, int count, int d, std::int32_t* scores) {
    for (int i = 0; i < count; ++i) scores[i] = dot_i8_scalar(q, row_ptr(kbase, keys[i], d), d);
}

static void axpy_sp_i8_scalar(std::int32_t* acc, std::uint32_t sp, const std::int8_t* v,
                              int d) {
    const std::int32_t s = static_cast<std::int32_t>(sp);
    int t = 0;
    for (; t + 4 <= d; t += 4) {
        acc[t] += s * v[t];
        acc[t + 1] += s * v[t + 1];
        acc[t + 2] += s * v[t + 2];
        acc[t + 3] += s * v[t + 3];
    }
    for (; t < d; ++t) acc[t] += s * v[t];
}

static void wacc_sp_i8_scalar(std::int32_t* acc, const std::uint32_t* sps,
                              const int* keys, int count, const std::int8_t* vbase, int d) {
    for (int i = 0; i < count; ++i) {
        if (sps[i] == 0) continue;  // zero weight contributes nothing
        axpy_sp_i8_scalar(acc, sps[i], row_ptr(vbase, keys[i], d), d);
    }
}

static void normalize_probs_scalar(const ExpRaw* exps, int count, InvRaw inv,
                                   std::uint32_t* sps) {
    for (int i = 0; i < count; ++i) sps[i] = normalize_prob(exps[i], inv);
}

static void round_shift_i32_scalar(std::int32_t* v, int count, int shift) {
    for (int i = 0; i < count; ++i)
        v[i] = static_cast<std::int32_t>(round_shift(v[i], shift));
}

static void mix_i32_scalar(std::int32_t* out, const std::int32_t* in, std::uint32_t a,
                           std::uint32_t b, int d) {
    constexpr int sf = Datapath::sprime_frac;
    for (int t = 0; t < d; ++t)
        out[t] = static_cast<std::int32_t>(
            round_shift(static_cast<std::int64_t>(a) * out[t] +
                            static_cast<std::int64_t>(b) * in[t],
                        sf));
}

static void quantize_i8_scalar(const float* x, std::size_t n, float scale,
                               std::int8_t* out) {
    // Adding and subtracting 1.5 * 2^23 rounds any |v| <= 2^22 to an integer
    // in the current rounding mode — what std::nearbyint does. Clamping to
    // the integer bounds first commutes with that monotone rounding.
    constexpr float kRound = 12582912.0f;
    for (std::size_t i = 0; i < n; ++i) {
        const float z = (x[i] * scale) * 16.0f;
        if (z != z) {  // NaN
            out[i] = 0;
            continue;
        }
        const float c = std::min(std::max(z, -128.0f), 127.0f);
        out[i] = static_cast<std::int8_t>((c + kRound) - kRound);
    }
}

#if defined(SALO_X86_DISPATCH)

// ---------------------------------------------------------------------------
// AVX2. vpmaddwd multiplies int16 lanes pairwise into int32 sums; products of
// two int8 values (|x| <= 128) can never hit the -32768*-32768 edge case, so
// widening to int16 and using madd is exact.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) static inline std::int32_t hsum_epi32_avx2(__m256i acc) {
    __m128i lo = _mm_add_epi32(_mm256_castsi256_si128(acc),
                               _mm256_extracti128_si256(acc, 1));
    lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
    lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(lo);
}

__attribute__((target("avx2"))) static std::int32_t dot_i8_avx2(const std::int8_t* q,
                                                                const std::int8_t* k,
                                                                int d) {
    __m256i acc = _mm256_setzero_si256();
    int t = 0;
    for (; t + 16 <= d; t += 16) {
        const __m256i qw = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + t)));
        const __m256i kw = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + t)));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(qw, kw));
    }
    std::int32_t sum = hsum_epi32_avx2(acc);
    for (; t < d; ++t) sum += static_cast<std::int32_t>(q[t]) * k[t];
    return sum;
}

/// Register-cached query row: widen q once, then stream each key row
/// through madd. d up to 128 keeps the q cache within 8 ymm registers.
__attribute__((target("avx2"))) static void dot_i8_rows_avx2(const std::int8_t* q,
                                                             const std::int8_t* kbase,
                                                             const int* keys, int count,
                                                             int d, std::int32_t* scores) {
    if (d % 16 != 0 || d > 128) {
        for (int i = 0; i < count; ++i)
            scores[i] = dot_i8_avx2(q, row_ptr(kbase, keys[i], d), d);
        return;
    }
    const int nb = d / 16;
    __m256i qv[8];
    for (int b = 0; b < nb; ++b)
        qv[b] = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + 16 * b)));
    for (int i = 0; i < count; ++i) {
        const std::int8_t* k = row_ptr(kbase, keys[i], d);
        __m256i acc = _mm256_setzero_si256();
        for (int b = 0; b < nb; ++b) {
            const __m256i kw = _mm256_cvtepi8_epi16(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + 16 * b)));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(qv[b], kw));
        }
        scores[i] = hsum_epi32_avx2(acc);
    }
}

__attribute__((target("avx2"))) static void axpy_sp_i8_avx2(std::int32_t* acc,
                                                            std::uint32_t sp,
                                                            const std::int8_t* v, int d) {
    const __m256i s = _mm256_set1_epi32(static_cast<std::int32_t>(sp));
    int t = 0;
    for (; t + 8 <= d; t += 8) {
        const __m256i vw = _mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(v + t)));
        const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + t));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + t),
                            _mm256_add_epi32(a, _mm256_mullo_epi32(s, vw)));
    }
    const std::int32_t ss = static_cast<std::int32_t>(sp);
    for (; t < d; ++t) acc[t] += ss * v[t];
}

/// Register-cached accumulator: the row's output vector stays in registers
/// while every weighted V row streams through. d up to 64 keeps it within
/// 8 ymm registers.
__attribute__((target("avx2"))) static void wacc_sp_i8_avx2(std::int32_t* acc,
                                                            const std::uint32_t* sps,
                                                            const int* keys, int count,
                                                            const std::int8_t* vbase,
                                                            int d) {
    if (d % 8 != 0 || d > 64) {
        for (int i = 0; i < count; ++i)
            if (sps[i] != 0) axpy_sp_i8_avx2(acc, sps[i], row_ptr(vbase, keys[i], d), d);
        return;
    }
    const int nb = d / 8;
    __m256i av[8];
    for (int b = 0; b < nb; ++b)
        av[b] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + 8 * b));
    for (int i = 0; i < count; ++i) {
        if (sps[i] == 0) continue;
        const __m256i s = _mm256_set1_epi32(static_cast<std::int32_t>(sps[i]));
        const std::int8_t* v = row_ptr(vbase, keys[i], d);
        for (int b = 0; b < nb; ++b) {
            const __m256i vw = _mm256_cvtepi8_epi32(
                _mm_loadl_epi64(reinterpret_cast<const __m128i*>(v + 8 * b)));
            av[b] = _mm256_add_epi32(av[b], _mm256_mullo_epi32(s, vw));
        }
    }
    for (int b = 0; b < nb; ++b)
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 8 * b), av[b]);
}

// ---------------------------------------------------------------------------
// AVX-512BW: wacc at 512-bit width. The avx512 levels keep the AVX2
// dot_rows: a 512-bit form won only at d 128, which no workload runs
// (docs/PERFORMANCE.md "Cost per level").
// ---------------------------------------------------------------------------

__attribute__((target("avx512bw"))) static void axpy_sp_i8_avx512(std::int32_t* acc,
                                                                  std::uint32_t sp,
                                                                  const std::int8_t* v,
                                                                  int d) {
    const __m512i s = _mm512_set1_epi32(static_cast<std::int32_t>(sp));
    int t = 0;
    for (; t + 16 <= d; t += 16) {
        const __m512i vw = _mm512_cvtepi8_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + t)));
        const __m512i a = _mm512_loadu_si512(acc + t);
        _mm512_storeu_si512(acc + t, _mm512_add_epi32(a, _mm512_mullo_epi32(s, vw)));
    }
    const std::int32_t ss = static_cast<std::int32_t>(sp);
    for (; t < d; ++t) acc[t] += ss * v[t];
}

__attribute__((target("avx512bw"))) static void wacc_sp_i8_avx512(std::int32_t* acc,
                                                                  const std::uint32_t* sps,
                                                                  const int* keys,
                                                                  int count,
                                                                  const std::int8_t* vbase,
                                                                  int d) {
    if (d % 16 != 0 || d > 128) {
        for (int i = 0; i < count; ++i)
            if (sps[i] != 0)
                axpy_sp_i8_avx512(acc, sps[i], row_ptr(vbase, keys[i], d), d);
        return;
    }
    const int nb = d / 16;
    __m512i av[8];
    for (int b = 0; b < nb; ++b) av[b] = _mm512_loadu_si512(acc + 16 * b);
    for (int i = 0; i < count; ++i) {
        if (sps[i] == 0) continue;
        const __m512i s = _mm512_set1_epi32(static_cast<std::int32_t>(sps[i]));
        const std::int8_t* v = row_ptr(vbase, keys[i], d);
        for (int b = 0; b < nb; ++b) {
            const __m512i vw = _mm512_cvtepi8_epi32(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + 16 * b)));
            av[b] = _mm512_add_epi32(av[b], _mm512_mullo_epi32(s, vw));
        }
    }
    for (int b = 0; b < nb; ++b) _mm512_storeu_si512(acc + 16 * b, av[b]);
}

// ---------------------------------------------------------------------------
// Batched stage-2/3/4 and Eq.2 kernels: 64-bit lanes (AVX-512F/DQ), every
// operation the exact integer op of the scalar code. The data-dependent
// branches of the scalar forms (clamps, rounding direction, saturation)
// become mask/min/max operations — same results, no branch misses.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f,avx512dq"))) static int pwl_exp_batch_avx512(
    const PwlExpParams& p, const ScoreRaw* x, ExpRaw* out, int count) {
    // y = x * log2(e): Q.8 * Q.16 -> Q.24 >> 8 -> Q.16.
    const __m512i log2e = _mm512_set1_epi64(94548);
    const __m512i y_lo = _mm512_set1_epi64(static_cast<std::int64_t>(p.y_min) << 16);
    const __m512i y_hi = _mm512_set1_epi64(static_cast<std::int64_t>(p.y_max) << 16);
    // The 8-segment chord LUTs, one int64 lane per segment.
    const __m512i slope_lut = _mm512_cvtepi32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p.slope)));
    const __m512i icept_lut = _mm512_cvtepi32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p.icept)));
    const __m512i shift_bias = _mm512_set1_epi64(Datapath::exp_frac - p.lut_frac);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one64 = _mm512_set1_epi64(1);
    const __m512i u32max = _mm512_set1_epi64(0xFFFFFFFFll);

    int i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m512i xv = _mm512_cvtepi32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)));
        __m512i y = _mm512_srai_epi64(_mm512_mullo_epi64(xv, log2e), 8);
        y = _mm512_max_epi64(y, y_lo);
        y = _mm512_min_epi64(y, y_hi);
        const __m512i yi = _mm512_srai_epi64(y, 16);
        const __m512i yf = _mm512_sub_epi64(y, _mm512_slli_epi64(yi, 16));
        const __m512i seg = _mm512_srli_epi64(yf, 16 - 3);  // 8 segments
        const __m512i slope = _mm512_permutexvar_epi64(seg, slope_lut);
        const __m512i icept = _mm512_permutexvar_epi64(seg, icept_lut);
        __m512i m = _mm512_add_epi64(
            _mm512_srai_epi64(_mm512_mullo_epi64(slope, yf), 16), icept);
        m = _mm512_max_epi64(m, zero);
        const __m512i shift = _mm512_add_epi64(yi, shift_bias);
        // shift >= 0: m << shift (cannot overflow int64 under the caller's
        // parameter bounds; see PwlExp::exp_raw_batch). Lanes with negative
        // shift produce garbage here and are blended away.
        const __m512i pos = _mm512_sllv_epi64(m, shift);
        // shift < 0: (m + (1 << (-shift-1))) >> -shift, m >= 0 so srl == sra.
        const __m512i ns = _mm512_sub_epi64(zero, shift);
        const __m512i half = _mm512_sllv_epi64(one64, _mm512_sub_epi64(ns, one64));
        const __m512i neg = _mm512_srlv_epi64(_mm512_add_epi64(m, half), ns);
        const __mmask8 is_neg = _mm512_cmplt_epi64_mask(shift, zero);
        __m512i res = _mm512_mask_blend_epi64(is_neg, pos, neg);
        res = _mm512_min_epu64(res, u32max);  // ExpRaw saturation
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm512_cvtepi64_epi32(res));
    }
    return i;
}

__attribute__((target("avx512f,avx512dq"))) static void normalize_probs_avx512(
    const ExpRaw* exps, int count, InvRaw inv, std::uint32_t* sps) {
    constexpr int shift = Datapath::exp_frac + Datapath::inv_frac - Datapath::sprime_frac;
    const __m512i invv = _mm512_set1_epi64(static_cast<std::int64_t>(inv));
    const __m512i half = _mm512_set1_epi64(std::int64_t{1} << (shift - 1));
    const __m512i satmax = _mm512_set1_epi64(0xFFFF);
    int i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m512i e = _mm512_cvtepu32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(exps + i)));
        // exp*inv <= 2^44: the 64-bit product is exact (same as scalar).
        __m512i q = _mm512_srli_epi64(
            _mm512_add_epi64(_mm512_mullo_epi64(e, invv), half), shift);
        q = _mm512_min_epu64(q, satmax);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(sps + i),
                            _mm512_cvtepi64_epi32(q));
    }
    for (; i < count; ++i) sps[i] = normalize_prob(exps[i], inv);
}

__attribute__((target("avx512f"))) static void round_shift_i32_avx512(std::int32_t* v,
                                                                      int count,
                                                                      int shift) {
    const __m512i half = _mm512_set1_epi32(std::int32_t{1} << (shift - 1));
    const __m512i zero = _mm512_setzero_si512();
    int i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m512i x = _mm512_loadu_si512(v + i);
        const __m512i r = _mm512_srli_epi32(
            _mm512_add_epi32(_mm512_abs_epi32(x), half), static_cast<unsigned>(shift));
        const __mmask16 neg = _mm512_cmplt_epi32_mask(x, zero);
        _mm512_storeu_si512(v + i, _mm512_mask_sub_epi32(r, neg, zero, r));
    }
    for (; i < count; ++i) {
        const std::int32_t x = v[i];
        const std::int32_t mag = (x >= 0 ? x : -x);
        const std::int32_t r = (mag + (std::int32_t{1} << (shift - 1))) >> shift;
        v[i] = x >= 0 ? r : -r;
    }
}

// a and b are at most 2^sprime_frac, so vpmuldq (the signed product of each
// 64-bit lane's low dwords) gives a * out[t] and b * in[t] exactly, at a
// third of vpmullq's uops.
__attribute__((target("avx512f"))) static void mix_i32_avx512(
    std::int32_t* out, const std::int32_t* in, std::uint32_t a, std::uint32_t b, int d) {
    constexpr int sf = Datapath::sprime_frac;
    const __m512i av = _mm512_set1_epi64(static_cast<std::int64_t>(a));
    const __m512i bv = _mm512_set1_epi64(static_cast<std::int64_t>(b));
    const __m512i half = _mm512_set1_epi64(std::int64_t{1} << (sf - 1));
    const __m512i zero = _mm512_setzero_si512();
    int t = 0;
    for (; t + 8 <= d; t += 8) {
        const __m512i o = _mm512_cvtepi32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + t)));
        const __m512i p = _mm512_cvtepi32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + t)));
        const __m512i mixed = _mm512_add_epi64(_mm512_mul_epi32(av, o),
                                               _mm512_mul_epi32(bv, p));
        const __m512i r = _mm512_srli_epi64(
            _mm512_add_epi64(_mm512_abs_epi64(mixed), half), sf);
        const __mmask8 neg = _mm512_cmplt_epi64_mask(mixed, zero);
        const __m512i res = _mm512_mask_sub_epi64(r, neg, zero, r);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t),
                            _mm512_cvtepi64_epi32(res));
    }
    if (t < d) mix_i32_scalar(out + t, in + t, a, b, d - t);
}

// ---------------------------------------------------------------------------
// Q3.4 quantizer, the scalar form's op sequence per lane: two float
// multiplies, clamp to [-128, 127] (max/min return the bound for a NaN
// lane, which the ordered-compare mask then zeroes), round in the current
// mode (_MM_FROUND_NEARBYINT = std::nearbyint), then an exact conversion
// of the integral value and a narrowing that never saturates.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) static inline __m256i quantize8_avx2(const float* x,
                                                                    __m256 scale) {
    const __m256 z = _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(x), scale),
                                   _mm256_set1_ps(16.0f));
    const __m256 ordered = _mm256_cmp_ps(z, z, _CMP_ORD_Q);
    const __m256 c = _mm256_min_ps(_mm256_max_ps(z, _mm256_set1_ps(-128.0f)),
                                   _mm256_set1_ps(127.0f));
    const __m256 r = _mm256_round_ps(c, _MM_FROUND_NEARBYINT);
    return _mm256_cvtps_epi32(_mm256_and_ps(r, ordered));
}

__attribute__((target("avx2"))) static void quantize_i8_avx2(const float* x, std::size_t n,
                                                             float scale, std::int8_t* out) {
    const __m256 s = _mm256_set1_ps(scale);
    // packs interleaves 128-bit lanes; this restores element order.
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i ab = _mm256_packs_epi32(quantize8_avx2(x + i, s),
                                              quantize8_avx2(x + i + 8, s));
        const __m256i cd = _mm256_packs_epi32(quantize8_avx2(x + i + 16, s),
                                              quantize8_avx2(x + i + 24, s));
        const __m256i bytes =
            _mm256_permutevar8x32_epi32(_mm256_packs_epi16(ab, cd), order);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), bytes);
    }
    if (i < n) quantize_i8_scalar(x + i, n - i, scale, out + i);
}

__attribute__((target("avx512f"))) static inline __m512i quantize16_avx512(__m512 v,
                                                                          __m512 scale) {
    const __m512 z = _mm512_mul_ps(_mm512_mul_ps(v, scale), _mm512_set1_ps(16.0f));
    const __mmask16 ordered = _mm512_cmp_ps_mask(z, z, _CMP_ORD_Q);
    const __m512 c = _mm512_min_ps(_mm512_max_ps(z, _mm512_set1_ps(-128.0f)),
                                   _mm512_set1_ps(127.0f));
    const __m512 r = _mm512_roundscale_ps(c, _MM_FROUND_NEARBYINT);
    return _mm512_maskz_cvtps_epi32(ordered, r);
}

__attribute__((target("avx512f"))) static void quantize_i8_avx512(const float* x,
                                                                  std::size_t n,
                                                                  float scale,
                                                                  std::int8_t* out) {
    const __m512 s = _mm512_set1_ps(scale);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                         _mm512_cvtepi32_epi8(quantize16_avx512(_mm512_loadu_ps(x + i), s)));
    if (i < n) {
        // Masked tail: lanes past n are neither read nor written.
        const auto tail = static_cast<__mmask16>((1u << (n - i)) - 1u);
        _mm512_mask_cvtepi32_storeu_epi8(
            out + i, tail, quantize16_avx512(_mm512_maskz_loadu_ps(tail, x + i), s));
    }
}

// ---------------------------------------------------------------------------
// Tile path: AVX-512 VNNI (vpdpbusd: u8 x s8, four products summed into
// each int32 lane, no saturation) plus BW/VL for the byte masks.
// ---------------------------------------------------------------------------

#define SALO_TILE_ISA __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni,popcnt")))

namespace {

inline std::int32_t load_i32(const void* p) {
    std::int32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// Low m bits set, m in [0, 16].
inline __mmask16 low_lanes(int m) { return static_cast<__mmask16>((1u << m) - 1u); }

/// Lanes j in [0, 16) with lo <= j < hi.
inline __mmask16 lanes_between(int lo, int hi) {
    lo = std::clamp(lo, 0, 16);
    hi = std::clamp(hi, lo, 16);
    return static_cast<__mmask16>(low_lanes(hi) & ~low_lanes(lo));
}

/// Bytes [0, min(64, rest)) of one 64-byte chunk.
inline __mmask64 chunk_bytes(int rest) {
    return rest >= 64 ? ~__mmask64{0} : (__mmask64{1} << rest) - 1;
}

}  // namespace

/// out_l = [a.l, b.l, c.l, d.l] over the four 128-bit lanes l.
SALO_TILE_ISA static inline void transpose_lanes4(__m512i a, __m512i b, __m512i c,
                                                  __m512i d, __m512i& o0, __m512i& o1,
                                                  __m512i& o2, __m512i& o3) {
    const __m512i ab01 = _mm512_shuffle_i32x4(a, b, 0x44);  // a0 a1 b0 b1
    const __m512i ab23 = _mm512_shuffle_i32x4(a, b, 0xEE);  // a2 a3 b2 b3
    const __m512i cd01 = _mm512_shuffle_i32x4(c, d, 0x44);
    const __m512i cd23 = _mm512_shuffle_i32x4(c, d, 0xEE);
    o0 = _mm512_shuffle_i32x4(ab01, cd01, 0x88);  // a0 b0 c0 d0
    o1 = _mm512_shuffle_i32x4(ab01, cd01, 0xDD);  // a1 b1 c1 d1
    o2 = _mm512_shuffle_i32x4(ab23, cd23, 0x88);
    o3 = _mm512_shuffle_i32x4(ab23, cd23, 0xDD);
}

/// In-place 16x16 dword transpose: afterwards r[g] holds dword g of the
/// sixteen input rows.
SALO_TILE_ISA static inline void transpose16_epi32(__m512i (&r)[16]) {
    __m512i t[16];
    for (int i = 0; i < 8; ++i) {
        t[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
    }
    // u[4i+j], lane l: dword 4l+j of rows 4i..4i+3.
    __m512i u[16];
    for (int i = 0; i < 4; ++i) {
        u[4 * i] = _mm512_unpacklo_epi64(t[4 * i], t[4 * i + 2]);
        u[4 * i + 1] = _mm512_unpackhi_epi64(t[4 * i], t[4 * i + 2]);
        u[4 * i + 2] = _mm512_unpacklo_epi64(t[4 * i + 1], t[4 * i + 3]);
        u[4 * i + 3] = _mm512_unpackhi_epi64(t[4 * i + 1], t[4 * i + 3]);
    }
    for (int j = 0; j < 4; ++j)
        transpose_lanes4(u[j], u[4 + j], u[8 + j], u[12 + j], r[j], r[4 + j], r[8 + j],
                         r[12 + j]);
}

SALO_TILE_ISA static void stage_k_vnni(const std::int8_t* kbase, int n, int d,
                                       std::int64_t key_base, int dilation, int len,
                                       std::uint8_t* out) {
    const int ng = d / 4;
    const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
    for (int s0 = 0; s0 < len; s0 += 16) {
        for (int c0 = 0; c0 < d; c0 += 64) {
            const __mmask64 bytes = chunk_bytes(d - c0);
            __m512i r[16];
            for (int i = 0; i < 16; ++i) {
                const std::int64_t key = key_base + std::int64_t{s0 + i} * dilation;
                r[i] = s0 + i < len && key >= 0 && key < n
                           ? _mm512_xor_si512(
                                 _mm512_maskz_loadu_epi8(
                                     bytes, kbase + key * d + c0),
                                 bias)
                           : _mm512_setzero_si512();
            }
            transpose16_epi32(r);
            std::uint8_t* o =
                out + (static_cast<std::size_t>(s0 / 16) * ng + c0 / 4) * 64;
            const int groups = std::min(16, (d - c0) / 4);
            for (int g = 0; g < groups; ++g) _mm512_storeu_si512(o + 64 * g, r[g]);
        }
    }
}

SALO_TILE_ISA static void stage_v_vnni(const std::int8_t* vbase, int n, int d,
                                       std::int64_t key_base, int dilation, int len,
                                       std::uint8_t* out) {
    const int nb = d / 16;
    for (int s0 = 0; s0 < len; s0 += 4) {
        for (int c0 = 0; c0 < d; c0 += 64) {
            const __mmask64 bytes = chunk_bytes(d - c0);
            __m512i r[4];
            for (int i = 0; i < 4; ++i) {
                const std::int64_t key = key_base + std::int64_t{s0 + i} * dilation;
                r[i] = s0 + i < len && key >= 0 && key < n
                           ? _mm512_maskz_loadu_epi8(bytes, vbase + key * d + c0)
                           : _mm512_setzero_si512();
            }
            // Per 128-bit lane l (dims 16l..16l+15): x_i holds dims
            // 16l+4i..16l+4i+3 of the four keys, key-minor.
            const __m512i a0 = _mm512_unpacklo_epi8(r[0], r[1]);
            const __m512i a1 = _mm512_unpackhi_epi8(r[0], r[1]);
            const __m512i b0 = _mm512_unpacklo_epi8(r[2], r[3]);
            const __m512i b1 = _mm512_unpackhi_epi8(r[2], r[3]);
            __m512i blk[4];
            transpose_lanes4(_mm512_unpacklo_epi16(a0, b0), _mm512_unpackhi_epi16(a0, b0),
                             _mm512_unpacklo_epi16(a1, b1), _mm512_unpackhi_epi16(a1, b1),
                             blk[0], blk[1], blk[2], blk[3]);
            std::uint8_t* o =
                out + (static_cast<std::size_t>(s0 / 4) * nb + c0 / 16) * 64;
            const int blocks = std::min(4, (d - c0) / 16);
            for (int b = 0; b < blocks; ++b) _mm512_storeu_si512(o + 64 * b, blk[b]);
        }
    }
}

/// One 16-slot block of the score band over CG dword groups, K held in
/// registers across the block's rows. The first group chunk starts each
/// row at -128 * qsum; later chunks (d > 64) add to the stored partial sum.
template <int CG>
SALO_TILE_ISA static inline void score_block(const std::uint8_t* kb, int g0, int d,
                                             const std::int8_t* qbase,
                                             const std::int32_t* qsum,
                                             const std::int32_t* query_ids, int r_lo,
                                             int r_hi, std::int32_t* band_col, int stride) {
    __m512i k[CG];
    for (int g = 0; g < CG; ++g) k[g] = _mm512_loadu_si512(kb + 64 * g);
    for (int r = r_lo; r < r_hi; ++r) {
        const int qi = query_ids[r];
        if (qi < 0) continue;
        const std::int8_t* q =
            qbase + static_cast<std::size_t>(qi) * static_cast<std::size_t>(d) + 4 * g0;
        std::int32_t* dst = band_col + static_cast<std::size_t>(r) * stride;
        __m512i a0 = g0 == 0 ? _mm512_set1_epi32(-128 * qsum[qi]) : _mm512_loadu_si512(dst);
        __m512i a1 = _mm512_setzero_si512();
        for (int g = 0; g < CG; g += 2) {
            a0 = _mm512_dpbusd_epi32(a0, k[g], _mm512_set1_epi32(load_i32(q + 4 * g)));
            a1 = _mm512_dpbusd_epi32(a1, k[g + 1],
                                     _mm512_set1_epi32(load_i32(q + 4 * g + 4)));
        }
        _mm512_storeu_si512(dst, _mm512_add_epi32(a0, a1));
    }
}

SALO_TILE_ISA static void score_band_vnni(const std::uint8_t* kstaged, int d, int len,
                                          const std::int8_t* qbase,
                                          const std::int32_t* qsum,
                                          const std::int32_t* query_ids, int rows,
                                          int width, std::int32_t* band, int stride) {
    const int ng = d / 4;
    for (int b = 0; 16 * b < len; ++b) {
        // Rows whose slots [r, r + width) meet the block's [16b, 16b + 16).
        const int r_lo = std::max(0, 16 * b - width + 1);
        const int r_hi = std::min(rows, 16 * b + 16);
        const std::uint8_t* kb = kstaged + static_cast<std::size_t>(b) * ng * 64;
        std::int32_t* band_col = band + 16 * b;
        for (int g0 = 0; g0 < ng; g0 += 16) {
            const std::uint8_t* kc = kb + 64 * g0;
            switch (std::min(16, ng - g0)) {
                case 4:
                    score_block<4>(kc, g0, d, qbase, qsum, query_ids, r_lo, r_hi, band_col,
                                   stride);
                    break;
                case 8:
                    score_block<8>(kc, g0, d, qbase, qsum, query_ids, r_lo, r_hi, band_col,
                                   stride);
                    break;
                case 12:
                    score_block<12>(kc, g0, d, qbase, qsum, query_ids, r_lo, r_hi,
                                    band_col, stride);
                    break;
                default:
                    score_block<16>(kc, g0, d, qbase, qsum, query_ids, r_lo, r_hi,
                                    band_col, stride);
                    break;
            }
        }
    }
}

SALO_TILE_ISA static int select_vnni(const std::int32_t* band_row,
                                     const std::uint8_t* valid, int width, int in_lo,
                                     int in_hi, std::int32_t* out) {
    int count = 0;
    for (int j0 = 0; j0 < width; j0 += 16) {
        const __mmask16 lanes = low_lanes(std::min(16, width - j0));
        const __m128i vb = _mm_maskz_loadu_epi8(lanes, valid + j0);
        const __mmask16 sel = _mm_test_epi8_mask(vb, vb);
        if ((sel & ~lanes_between(in_lo - j0, in_hi - j0)) != 0) return -1;
        const __m512i s = _mm512_maskz_loadu_epi32(lanes, band_row + j0);
        _mm512_storeu_si512(out + count, _mm512_maskz_compress_epi32(sel, s));
        count += __builtin_popcount(sel);
    }
    return count;
}

/// Stage-5 accumulation of NB (<= 4) 16-dim blocks over ngr 4-slot groups;
/// lo/hi are the byte planes of the row's weights, group-aligned.
template <int NB>
SALO_TILE_ISA static inline void wacc_blocks(std::int32_t* acc, const std::uint8_t* lo,
                                             const std::uint8_t* hi, int ngr,
                                             const std::uint8_t* vg,
                                             std::size_t group_bytes) {
    __m512i al[NB], ah[NB];
    for (int b = 0; b < NB; ++b) al[b] = ah[b] = _mm512_setzero_si512();
    for (int g = 0; g < ngr; ++g) {
        const __m512i sl = _mm512_set1_epi32(load_i32(lo + 4 * g));
        const __m512i sh = _mm512_set1_epi32(load_i32(hi + 4 * g));
        const std::uint8_t* v = vg + static_cast<std::size_t>(g) * group_bytes;
        for (int b = 0; b < NB; ++b) {
            const __m512i vv = _mm512_loadu_si512(v + 64 * b);
            al[b] = _mm512_dpbusd_epi32(al[b], sl, vv);
            ah[b] = _mm512_dpbusd_epi32(ah[b], sh, vv);
        }
    }
    for (int b = 0; b < NB; ++b) {
        const __m512i sum = _mm512_add_epi32(_mm512_slli_epi32(ah[b], 8), al[b]);
        _mm512_storeu_si512(acc + 16 * b,
                            _mm512_add_epi32(_mm512_loadu_si512(acc + 16 * b), sum));
    }
}

SALO_TILE_ISA static void wacc_stream_vnni(std::int32_t* acc, const std::uint32_t* sps,
                                           const std::uint8_t* valid, int width, int slot0,
                                           const std::uint8_t* vstaged, int d,
                                           std::uint8_t* bytes) {
    // Byte planes indexed from the first slot of slot0's group; slots
    // outside the row's valid set stay zero.
    const int off = slot0 & 3;
    const int plane = ((off + width + 15) & ~15) + 16;
    std::uint8_t* lo = bytes;
    std::uint8_t* hi = bytes + plane;
    for (int i = 0; i < 2 * plane; i += 16)
        _mm_storeu_si128(reinterpret_cast<__m128i*>(bytes + i), _mm_setzero_si128());
    int pos = 0;
    for (int j0 = 0; j0 < width; j0 += 16) {
        const __mmask16 lanes = low_lanes(std::min(16, width - j0));
        const __m128i vb = _mm_maskz_loadu_epi8(lanes, valid + j0);
        const __mmask16 sel = _mm_test_epi8_mask(vb, vb);
        const __m512i sp = _mm512_maskz_expandloadu_epi32(sel, sps + pos);
        pos += __builtin_popcount(sel);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(lo + off + j0), _mm512_cvtepi32_epi8(sp));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(hi + off + j0),
                         _mm512_cvtepi32_epi8(_mm512_srli_epi32(sp, 8)));
    }
    const int ngr = (off + width + 3) / 4;
    const int nb = d / 16;
    const std::size_t group_bytes = static_cast<std::size_t>(nb) * 64;
    const std::uint8_t* vg = vstaged + static_cast<std::size_t>(slot0 / 4) * group_bytes;
    for (int b0 = 0; b0 < nb; b0 += 4) {
        std::int32_t* a = acc + 16 * b0;
        const std::uint8_t* v = vg + 64 * b0;
        switch (std::min(4, nb - b0)) {
            case 1: wacc_blocks<1>(a, lo, hi, ngr, v, group_bytes); break;
            case 2: wacc_blocks<2>(a, lo, hi, ngr, v, group_bytes); break;
            case 3: wacc_blocks<3>(a, lo, hi, ngr, v, group_bytes); break;
            default: wacc_blocks<4>(a, lo, hi, ngr, v, group_bytes); break;
        }
    }
}

#endif  // SALO_X86_DISPATCH

const std::vector<KernelSet>& kernel_sets() {
    static const std::vector<KernelSet> sets = [] {
        std::vector<KernelSet> levels;
#if defined(SALO_X86_DISPATCH)
        // wacc needs BW; the 64-bit-lane kernels F and DQ; the tile path
        // VL and VNNI on top.
        if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
            __builtin_cpu_supports("avx512dq")) {
            const KernelSet avx512{.name = "avx512",
                                   .dot_rows = dot_i8_rows_avx2,
                                   .wacc = wacc_sp_i8_avx512,
                                   .pwl_exp_batch = pwl_exp_batch_avx512,
                                   .normalize_probs = normalize_probs_avx512,
                                   .round_shift = round_shift_i32_avx512,
                                   .mix = mix_i32_avx512,
                                   .quantize = quantize_i8_avx512};
            if (__builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vnni")) {
                KernelSet vnni = avx512;
                vnni.name = "avx512vnni";
                vnni.stage_k = stage_k_vnni;
                vnni.stage_v = stage_v_vnni;
                vnni.score_band = score_band_vnni;
                vnni.select = select_vnni;
                vnni.wacc_stream = wacc_stream_vnni;
                levels.push_back(vnni);
            }
            levels.push_back(avx512);
        }
        if (__builtin_cpu_supports("avx2"))
            levels.push_back({.name = "avx2",
                              .dot_rows = dot_i8_rows_avx2,
                              .wacc = wacc_sp_i8_avx2,
                              .normalize_probs = normalize_probs_scalar,
                              .round_shift = round_shift_i32_scalar,
                              .mix = mix_i32_scalar,
                              .quantize = quantize_i8_avx2});
#endif
        levels.push_back({.name = "scalar",
                          .dot_rows = dot_i8_rows_scalar,
                          .wacc = wacc_sp_i8_scalar,
                          .normalize_probs = normalize_probs_scalar,
                          .round_shift = round_shift_i32_scalar,
                          .mix = mix_i32_scalar,
                          .quantize = quantize_i8_scalar});
        return levels;
    }();
    return sets;
}

const KernelSet& dispatched() { return kernel_sets().front(); }

const char* isa_name() { return dispatched().name; }

}  // namespace kernels
}  // namespace salo
