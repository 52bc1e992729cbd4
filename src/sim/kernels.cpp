#include "sim/kernels.hpp"

#include <algorithm>
#include <cstddef>

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

std::int32_t dot_i8_scalar(const std::int8_t* q, const std::int8_t* k, int d) {
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

void dot_i8_rows_scalar(const std::int8_t* q, const std::int8_t* kbase, const int* keys,
                        int count, int d, std::int32_t* scores) {
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

void wacc_sp_i8_scalar(std::int32_t* acc, const std::uint32_t* sps, const int* keys,
                       int count, const std::int8_t* vbase, int d) {
    for (int i = 0; i < count; ++i) {
        if (sps[i] == 0) continue;  // zero weight contributes nothing
        axpy_sp_i8_scalar(acc, sps[i], row_ptr(vbase, keys[i], d), d);
    }
}

void normalize_probs_scalar(const ExpRaw* exps, int count, InvRaw inv,
                            std::uint32_t* sps) {
    for (int i = 0; i < count; ++i) sps[i] = normalize_prob(exps[i], inv);
}

void round_shift_i32_scalar(std::int32_t* v, int count, int shift) {
    for (int i = 0; i < count; ++i)
        v[i] = static_cast<std::int32_t>(round_shift(v[i], shift));
}

void mix_i32_scalar(std::int32_t* out, const std::int32_t* in, std::uint32_t a,
                    std::uint32_t b, int d) {
    constexpr int sf = Datapath::sprime_frac;
    for (int t = 0; t < d; ++t)
        out[t] = static_cast<std::int32_t>(
            round_shift(static_cast<std::int64_t>(a) * out[t] +
                            static_cast<std::int64_t>(b) * in[t],
                        sf));
}

void quantize_i8_scalar(const float* x, std::size_t n, float scale, std::int8_t* out) {
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
// AVX-512BW: same structure at 512-bit width (32 int8 products per madd).
// ---------------------------------------------------------------------------

__attribute__((target("avx512bw"))) static std::int32_t dot_i8_avx512(
    const std::int8_t* q, const std::int8_t* k, int d) {
    __m512i acc = _mm512_setzero_si512();
    int t = 0;
    for (; t + 32 <= d; t += 32) {
        const __m512i qw = _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + t)));
        const __m512i kw = _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k + t)));
        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(qw, kw));
    }
    std::int32_t sum = _mm512_reduce_add_epi32(acc);
    for (; t < d; ++t) sum += static_cast<std::int32_t>(q[t]) * k[t];
    return sum;
}

__attribute__((target("avx512bw"))) static void dot_i8_rows_avx512(
    const std::int8_t* q, const std::int8_t* kbase, const int* keys, int count, int d,
    std::int32_t* scores) {
    if (d % 32 != 0 || d > 256) {
        for (int i = 0; i < count; ++i)
            scores[i] = dot_i8_avx512(q, row_ptr(kbase, keys[i], d), d);
        return;
    }
    const int nb = d / 32;
    __m512i qv[8];
    for (int b = 0; b < nb; ++b)
        qv[b] = _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + 32 * b)));
    for (int i = 0; i < count; ++i) {
        const std::int8_t* k = row_ptr(kbase, keys[i], d);
        __m512i acc = _mm512_setzero_si512();
        for (int b = 0; b < nb; ++b) {
            const __m512i kw = _mm512_cvtepi8_epi16(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k + 32 * b)));
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(qv[b], kw));
        }
        scores[i] = _mm512_reduce_add_epi32(acc);
    }
}

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

__attribute__((target("avx512f,avx512dq"))) static void mix_i32_avx512(
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
        const __m512i mixed = _mm512_add_epi64(_mm512_mullo_epi64(av, o),
                                               _mm512_mullo_epi64(bv, p));
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

static DotI8Fn pick_dot() {
    if (__builtin_cpu_supports("avx512bw")) return dot_i8_avx512;
    if (__builtin_cpu_supports("avx2")) return dot_i8_avx2;
    return dot_i8_scalar;
}
static RowDotFn pick_row_dot() {
    if (__builtin_cpu_supports("avx512bw")) return dot_i8_rows_avx512;
    if (__builtin_cpu_supports("avx2")) return dot_i8_rows_avx2;
    return dot_i8_rows_scalar;
}
static WaccFn pick_wacc() {
    if (__builtin_cpu_supports("avx512bw")) return wacc_sp_i8_avx512;
    if (__builtin_cpu_supports("avx2")) return wacc_sp_i8_avx2;
    return wacc_sp_i8_scalar;
}
static bool avx512_dq_ok() {
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
}
static PwlExpBatchFn pick_pwl_batch() {
    return avx512_dq_ok() ? pwl_exp_batch_avx512 : nullptr;
}
static NormProbsFn pick_norm() {
    return avx512_dq_ok() ? normalize_probs_avx512 : normalize_probs_scalar;
}
static RoundShiftFn pick_round_shift() {
    return __builtin_cpu_supports("avx512f") ? round_shift_i32_avx512
                                             : round_shift_i32_scalar;
}
static MixFn pick_mix() { return avx512_dq_ok() ? mix_i32_avx512 : mix_i32_scalar; }
static QuantizeI8Fn pick_quantize() { return quantize_i8_levels().front().second; }
static const char* pick_name() {
    if (__builtin_cpu_supports("avx512bw")) return "avx512bw";
    if (__builtin_cpu_supports("avx2")) return "avx2";
    return "scalar";
}

const DotI8Fn dot_i8 = pick_dot();
const RowDotFn dot_i8_rows = pick_row_dot();
const WaccFn wacc_sp_i8 = pick_wacc();
const PwlExpBatchFn pwl_exp_batch = pick_pwl_batch();
const NormProbsFn normalize_probs = pick_norm();
const RoundShiftFn round_shift_i32 = pick_round_shift();
const MixFn mix_i32 = pick_mix();
const QuantizeI8Fn quantize_i8 = pick_quantize();
const char* isa_name() { return pick_name(); }

std::vector<std::pair<const char*, QuantizeI8Fn>> quantize_i8_levels() {
    std::vector<std::pair<const char*, QuantizeI8Fn>> levels;
    if (__builtin_cpu_supports("avx512f")) levels.emplace_back("avx512f", quantize_i8_avx512);
    if (__builtin_cpu_supports("avx2")) levels.emplace_back("avx2", quantize_i8_avx2);
    levels.emplace_back("scalar", quantize_i8_scalar);
    return levels;
}

#else  // !SALO_X86_DISPATCH

const DotI8Fn dot_i8 = dot_i8_scalar;
const RowDotFn dot_i8_rows = dot_i8_rows_scalar;
const WaccFn wacc_sp_i8 = wacc_sp_i8_scalar;
const PwlExpBatchFn pwl_exp_batch = nullptr;
const NormProbsFn normalize_probs = normalize_probs_scalar;
const RoundShiftFn round_shift_i32 = round_shift_i32_scalar;
const MixFn mix_i32 = mix_i32_scalar;
const QuantizeI8Fn quantize_i8 = quantize_i8_scalar;
const char* isa_name() { return "scalar"; }

std::vector<std::pair<const char*, QuantizeI8Fn>> quantize_i8_levels() {
    return {{"scalar", quantize_i8_scalar}};
}

#endif

}  // namespace kernels
}  // namespace salo
