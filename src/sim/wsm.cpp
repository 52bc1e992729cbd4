#include "sim/wsm.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace salo {

namespace {
/// w/(W_total) as Q.sprime_frac, given inv = 1/W_total at Q.inv_frac.
/// Same renormalization shape as normalize_prob but for wide weights.
std::uint32_t normalize_weight(SumRaw w, InvRaw inv) {
    // w <= W_total and inv ~= 2^(exp+inv frac)/W_total, so the product is
    // bounded by 2^(exp_frac+inv_frac) = 2^44: no 64-bit overflow.
    const std::uint64_t prod = w * inv;
    const int shift = Datapath::exp_frac + Datapath::inv_frac - Datapath::sprime_frac;
    std::uint64_t q = (prod + (std::uint64_t{1} << (shift - 1))) >> shift;
    const std::uint64_t one = std::uint64_t{1} << Datapath::sprime_frac;
    if (q > one) q = one;  // rounding can nudge just past 1.0
    return static_cast<std::uint32_t>(q);
}
}  // namespace

WeightedSumModule::WeightedSumModule(int n, int d, const Reciprocal& recip_unit,
                                     const kernels::KernelSet& kernel_set)
    : recip_unit_(&recip_unit), mix_(kernel_set.mix), finalize_(kernel_set.finalize),
      n_(n), d_(d),
      weight_(static_cast<std::size_t>(n), 0),
      out_q_(static_cast<std::size_t>(n) * static_cast<std::size_t>(d), 0),
      initialized_(static_cast<std::size_t>(n), 0) {
    SALO_EXPECTS(n >= 1 && d >= 1);
}

void WeightedSumModule::merge(const TilePart& part) {
    SALO_EXPECTS(part.query >= 0 && part.query < n_);
    SALO_EXPECTS(static_cast<int>(part.out_q.size()) == d_);
    if (part.weight == 0) return;  // massless part: no contribution
    ++merges_;
    const auto qi = static_cast<std::size_t>(part.query);
    std::int32_t* out = &out_q_[qi * static_cast<std::size_t>(d_)];
    if (!initialized_[qi]) {
        initialized_[qi] = 1;
        weight_[qi] = part.weight;
        for (int t = 0; t < d_; ++t) out[t] = part.out_q[static_cast<std::size_t>(t)];
        return;
    }
    const SumRaw w_prev = weight_[qi];
    const SumRaw w_new = part.weight;
    const SumRaw w_total = w_prev + w_new;
    const InvRaw inv = recip_unit_->inv_raw(w_total);
    const std::uint32_t a = normalize_weight(w_prev, inv);  // Q.15
    const std::uint32_t b = normalize_weight(w_new, inv);   // Q.15
    // out[t] = round_shift(a*out[t] + b*part[t], sprime_frac), vectorized.
    mix_(out, part.out_q.data(), a, b, d_);
    weight_[qi] = w_total;
}

void WeightedSumModule::finalize_into(Matrix<float>& out) const {
    SALO_EXPECTS(out.rows() == n_ && out.cols() == d_);
    const auto d = static_cast<std::size_t>(d_);
    const std::int32_t* src = out_q_.data();
    float* dst = out.data().data();
    for (std::size_t i = 0; i < initialized_.size(); ++i, src += d, dst += d) {
        if (initialized_[i])
            finalize_(src, d_, dst);
        else  // never merged: emits 0
            std::fill_n(dst, d, 0.0f);
    }
}

Matrix<std::int16_t> WeightedSumModule::finalize_raw() const {
    Matrix<std::int16_t> out(n_, d_, 0);
    constexpr int shift = Datapath::wsm_frac - Datapath::out_frac;  // 8
    for (int i = 0; i < n_; ++i) {
        if (!initialized_[static_cast<std::size_t>(i)]) continue;
        const std::int32_t* src =
            &out_q_[static_cast<std::size_t>(i) * static_cast<std::size_t>(d_)];
        for (int t = 0; t < d_; ++t)
            out(i, t) = static_cast<std::int16_t>(
                OutputFx::from_raw(round_shift(src[t], shift)).raw());
    }
    return out;
}

Matrix<float> WeightedSumModule::finalize() const {
    Matrix<float> out(n_, d_);
    finalize_into(out);
    return out;
}

}  // namespace salo
