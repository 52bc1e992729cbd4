// Piecewise-linear exponential unit (stage 2 of the PE datapath).
//
// SALO follows Softermax [Stevens et al. 2021]: instead of a hardware exp,
// the PE computes exp(x) = 2^(x*log2 e) by splitting y = x*log2 e into an
// integer part (a barrel shift) and a fractional part approximated with a
// piecewise-linear function whose slopes and intercepts live in two small
// LUTs (the "LUT / Frac / Shift" blocks of Fig. 5). The whole evaluation
// uses only the PE's MAC and shifter.
//
// This class is a bit-accurate software model of that unit: all arithmetic
// is integer, LUT contents are quantized to lut_frac bits, and the result is
// a Q.exp_frac raw value. A float reference and error-analysis helpers are
// provided for tests and for the PWL-segment-count ablation.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "numeric/datapath.hpp"

namespace salo {

class PwlExp {
public:
    struct Config {
        int seg_bits = 3;   ///< log2(number of PWL segments) for 2^f, f in [0,1)
        int lut_frac = 14;  ///< fraction bits of LUT slope/intercept entries
        /// y = x*log2(e) is clamped to [y_min, y_max] before the shift; the
        /// clamp bounds the shifter width exactly as real hardware would.
        int y_min = -30;
        int y_max = 15;
    };

    PwlExp();  // default configuration
    explicit PwlExp(const Config& config);

    /// Bit-accurate evaluation: x is a raw score (Q.acc_frac); the result is
    /// exp(x) as a raw Q.exp_frac value, saturated to 32 bits.
    /// Defined inline below: stage 2 runs once per pattern element — the
    /// most-called function of a layer simulation — and inlining lets the
    /// caller's loop hoist the clamp bounds and LUT base pointers.
    ExpRaw exp_raw(ScoreRaw x_raw) const;

    /// Convenience: evaluate on a real value through the quantized pipeline.
    double exp_value(double x) const;

    /// Max relative error of the PWL unit vs std::exp over [lo, hi],
    /// sampled at `samples` points. Used by tests and the ablation bench.
    double max_rel_error(double lo, double hi, int samples = 10000) const;

    const Config& config() const { return config_; }
    int segments() const { return 1 << config_.seg_bits; }

    /// Raw LUT access for the batched SIMD evaluation (sim/kernels.hpp);
    /// entries are Q.lut_frac, one per segment.
    const std::int32_t* slope_data() const { return slope_q_.data(); }
    const std::int32_t* icept_data() const { return icept_q_.data(); }

    /// The scores where y = x*log2(e) meets the clamp: every x <= x_lo()
    /// gives y <= y_min and every x >= x_hi() gives y >= y_max, so clamping
    /// x to [x_lo(), x_hi()] before the multiply changes no result. The
    /// batched kernel does, which keeps x * log2(e) inside 32 bits.
    ScoreRaw x_lo() const { return x_lo_; }
    ScoreRaw x_hi() const { return x_hi_; }

private:
    Config config_;
    ScoreRaw x_lo_ = 0;
    ScoreRaw x_hi_ = 0;
    // Chord approximation of 2^f on each segment: slope/intercept in Q.lut_frac.
    std::vector<std::int32_t> slope_q_;
    std::vector<std::int32_t> icept_q_;
};

namespace detail {
// log2(e) in Q.16; multiplying a Q.8 score by this yields a Q.24 value.
inline constexpr std::int64_t kLog2eQ16 = 94548;  // round(1.4426950408889634 * 2^16)
inline constexpr int kYFrac = 16;  // fraction bits of y after renormalizing
}  // namespace detail

inline ExpRaw PwlExp::exp_raw(ScoreRaw x_raw) const {
    using detail::kLog2eQ16;
    using detail::kYFrac;
    // y = x * log2(e): Q.8 * Q.16 -> Q.24, renormalized to Q.16.
    std::int64_t y_q16 = (static_cast<std::int64_t>(x_raw) * kLog2eQ16) >> (24 - kYFrac);

    // Clamp the shift range (hardware: saturating barrel shifter).
    const std::int64_t y_lo = static_cast<std::int64_t>(config_.y_min) << kYFrac;
    const std::int64_t y_hi = static_cast<std::int64_t>(config_.y_max) << kYFrac;
    if (y_q16 < y_lo) y_q16 = y_lo;
    if (y_q16 > y_hi) y_q16 = y_hi;

    // Split into integer part (shift amount) and fractional part in [0,1).
    const std::int64_t yi = y_q16 >> kYFrac;  // floor, arithmetic shift
    const std::int64_t yf_q16 = y_q16 - (yi << kYFrac);
    SALO_ASSERT(yf_q16 >= 0 && yf_q16 < (std::int64_t{1} << kYFrac));

    // PWL evaluation of 2^yf with segment LUTs: m = slope*yf + icept.
    const int seg = static_cast<int>(yf_q16 >> (kYFrac - config_.seg_bits));
    const std::int64_t slope = slope_q_[static_cast<std::size_t>(seg)];
    const std::int64_t icept = icept_q_[static_cast<std::size_t>(seg)];
    // slope (Q.lut_frac) * yf (Q.16) -> Q.(lut_frac+16) -> renorm to Q.lut_frac.
    std::int64_t m_q = ((slope * yf_q16) >> kYFrac) + icept;  // Q.lut_frac, in [1,2]
    if (m_q < 0) m_q = 0;

    // Apply the 2^yi shift and renormalize from Q.lut_frac to Q.exp_frac.
    const int shift = static_cast<int>(yi) + Datapath::exp_frac - config_.lut_frac;
    std::int64_t result;
    if (shift >= 0) {
        // Saturate on overflow: with y_max <= 15 and exp_frac = 14 the result
        // fits 30 bits, but defend against config changes.
        if (shift >= 62 || (m_q >> (62 - shift)) != 0)
            result = std::numeric_limits<std::int64_t>::max();
        else
            result = m_q << shift;
    } else {
        // Rounded down-shift: truncation would cost up to a full LSB of
        // relative error at the smallest representable exponentials.
        result = (shift <= -62) ? 0
                                : (m_q + (std::int64_t{1} << (-shift - 1))) >> -shift;
    }
    if (result > static_cast<std::int64_t>(std::numeric_limits<ExpRaw>::max()))
        result = std::numeric_limits<ExpRaw>::max();
    return static_cast<ExpRaw>(result);
}

}  // namespace salo
