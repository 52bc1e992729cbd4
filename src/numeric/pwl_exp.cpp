#include "numeric/pwl_exp.hpp"

#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace salo {

PwlExp::PwlExp() : PwlExp(Config{}) {}

namespace {
/// y = x * log2(e) at Q.16, as exp_raw computes it.
std::int64_t y_of(std::int64_t x) { return (x * detail::kLog2eQ16) >> (24 - detail::kYFrac); }

/// floor(a / b) for b > 0.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
    return a >= 0 ? a / b : -((-a + b - 1) / b);
}
}  // namespace

PwlExp::PwlExp(const Config& config) : config_(config) {
    SALO_EXPECTS(config_.seg_bits >= 0 && config_.seg_bits <= 10);
    SALO_EXPECTS(config_.lut_frac > 0 && config_.lut_frac <= 20);
    SALO_EXPECTS(config_.y_min < 0 && config_.y_max > 0 && config_.y_max < 17);
    // y(x) = floor(x * K / 2^8) with K = log2(e) at Q.16, so y(x) <= Y iff
    // x * K <= (Y + 1) * 2^8 - 1, and y(x) >= Y iff x * K >= Y * 2^8.
    constexpr int kMulShift = 24 - detail::kYFrac;
    const std::int64_t y_lo = static_cast<std::int64_t>(config_.y_min) << detail::kYFrac;
    const std::int64_t y_hi = static_cast<std::int64_t>(config_.y_max) << detail::kYFrac;
    x_lo_ = static_cast<ScoreRaw>(
        floor_div(((y_lo + 1) << kMulShift) - 1, detail::kLog2eQ16));
    x_hi_ = static_cast<ScoreRaw>(
        -floor_div(-(y_hi << kMulShift), detail::kLog2eQ16));
    SALO_ENSURES(y_of(x_lo_) <= y_lo && y_of(x_lo_ + std::int64_t{1}) > y_lo);
    SALO_ENSURES(y_of(x_hi_) >= y_hi && y_of(x_hi_ - std::int64_t{1}) < y_hi);
    const int n = 1 << config_.seg_bits;
    slope_q_.resize(static_cast<std::size_t>(n));
    icept_q_.resize(static_cast<std::size_t>(n));
    const double lut_scale = static_cast<double>(std::int64_t{1} << config_.lut_frac);
    for (int s = 0; s < n; ++s) {
        // Chord of 2^f over segment [s/n, (s+1)/n): exact at both endpoints,
        // which keeps the full PWL curve continuous across segments.
        const double f0 = static_cast<double>(s) / n;
        const double f1 = static_cast<double>(s + 1) / n;
        const double v0 = std::exp2(f0);
        const double v1 = std::exp2(f1);
        const double slope = (v1 - v0) / (f1 - f0);
        const double icept = v0 - slope * f0;
        slope_q_[static_cast<std::size_t>(s)] =
            static_cast<std::int32_t>(std::lround(slope * lut_scale));
        icept_q_[static_cast<std::size_t>(s)] =
            static_cast<std::int32_t>(std::lround(icept * lut_scale));
    }
}

double PwlExp::exp_value(double x) const {
    const double scaled = x * static_cast<double>(1 << Datapath::acc_frac);
    double clamped = scaled;
    const double lim = static_cast<double>(std::numeric_limits<ScoreRaw>::max());
    if (clamped > lim) clamped = lim;
    if (clamped < -lim) clamped = -lim;
    const auto raw = static_cast<ScoreRaw>(std::lround(clamped));
    return static_cast<double>(exp_raw(raw)) / static_cast<double>(1 << Datapath::exp_frac);
}

double PwlExp::max_rel_error(double lo, double hi, int samples) const {
    SALO_EXPECTS(samples > 1 && hi > lo);
    double worst = 0.0;
    for (int i = 0; i < samples; ++i) {
        const double x = lo + (hi - lo) * i / (samples - 1);
        const double ref = std::exp(x);
        if (ref < 1e-9) continue;  // below representable resolution
        const double got = exp_value(x);
        const double rel = std::abs(got - ref) / ref;
        if (rel > worst) worst = rel;
    }
    return worst;
}

}  // namespace salo
