#include "sim/part_builder.hpp"

#include "common/assert.hpp"
#include "sim/kernels.hpp"

namespace salo {

namespace {

/// Batched stage-2 evaluation: the SIMD kernel when the exponential unit
/// matches its fixed 8-segment layout AND the bounds that make the scalar
/// code's saturation branches unreachable hold (y_max < 17 is enforced by
/// the unit, so m_q << shift < 2^(y_max + exp_frac + 2) <= 2^33 never
/// overflows; y_min >= -40 keeps the down-shift below 64). Scalar loop
/// otherwise. Bit-identical either way.
inline void exp_batch(const PwlExp& exp_unit, const ScoreRaw* scores, ExpRaw* out,
                      int count) {
    int done = 0;
    const PwlExp::Config& cfg = exp_unit.config();
    if (kernels::pwl_exp_batch && cfg.seg_bits == 3 && cfg.y_min >= -40) {
        const kernels::PwlExpParams params{exp_unit.slope_data(), exp_unit.icept_data(),
                                           cfg.lut_frac, cfg.y_min, cfg.y_max};
        done = kernels::pwl_exp_batch(params, scores, out, count);
    }
    for (; done < count; ++done) out[done] = exp_unit.exp_raw(scores[done]);
}

}  // namespace

TilePart build_part(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                    const Matrix<std::int8_t>& v, int query,
                    const std::vector<ScoreRaw>& scores, const std::vector<int>& key_ids,
                    ActivityStats& activity) {
    SALO_EXPECTS(scores.size() == key_ids.size());
    const int d = v.cols();
    TilePart part;
    part.query = query;
    part.out_q.assign(static_cast<std::size_t>(d), 0);

    // Stage 2: PWL exponential per element; stage 3: row accumulation.
    std::vector<ExpRaw> exps(scores.size());
    SumRaw weight = 0;
    for (std::size_t c = 0; c < scores.size(); ++c) {
        exps[c] = exp_unit.exp_raw(scores[c]);
        weight += exps[c];
    }
    activity.exp_ops += static_cast<std::int64_t>(scores.size());
    part.weight = weight;
    if (weight == 0) return part;  // all terms underflowed; part carries no mass

    // Stage 3: broadcast 1/W; stage 4: S' = exp * inv.
    const InvRaw inv = recip_unit.inv_raw(weight);

    // Stage 5: out = sum_c S'_c * v_c at Q.(sprime+in) = Q.19, renormalized
    // to the weighted-sum module's Q.wsm_frac.
    constexpr int acc_frac = Datapath::sprime_frac + Datapath::in_frac;  // 19
    constexpr int shift = acc_frac - Datapath::wsm_frac;                 // 3
    std::vector<std::int64_t> acc(static_cast<std::size_t>(d), 0);
    for (std::size_t c = 0; c < scores.size(); ++c) {
        const SprimeRaw sp = normalize_prob(exps[c], inv);
        if (sp == 0) continue;
        const auto vrow = v.row(key_ids[c]);
        for (int t = 0; t < d; ++t)
            acc[static_cast<std::size_t>(t)] +=
                static_cast<std::int64_t>(sp) *
                static_cast<std::int64_t>(vrow[static_cast<std::size_t>(t)]);
    }
    activity.mac_ops += static_cast<std::int64_t>(scores.size()) * d;
    for (int t = 0; t < d; ++t)
        part.out_q[static_cast<std::size_t>(t)] = static_cast<std::int32_t>(
            round_shift(acc[static_cast<std::size_t>(t)], shift));
    return part;
}

bool normalize_part(const PwlExp& exp_unit, const Reciprocal& recip_unit, int query,
                    const ScoreRaw* scores, int count, ActivityStats& activity,
                    TilePart& part, PartScratch& scratch) {
    part.query = query;  // out_q arrives zeroed and sized d from the arena

    // Stage 2: PWL exponential per element; stage 3: row accumulation.
    scratch.exps.resize(static_cast<std::size_t>(count));
    ExpRaw* exps = scratch.exps.data();
    exp_batch(exp_unit, scores, exps, count);
    SumRaw weight = 0;
    for (int c = 0; c < count; ++c) weight += exps[c];
    activity.exp_ops += count;
    part.weight = weight;
    if (weight == 0) return false;  // all terms underflowed; part carries no mass

    // Stage 3: broadcast 1/W; stage 4: S' = exp * inv.
    const InvRaw inv = recip_unit.inv_raw(weight);
    scratch.sps.resize(static_cast<std::size_t>(count));
    kernels::normalize_probs(exps, count, inv, scratch.sps.data());
    return true;
}

void finish_part(int count, ActivityStats& activity, TilePart& part) {
    // Stage 5 accumulated out = sum_c S'_c * v_c at Q.(sprime+in) = Q.19;
    // renormalize in place to Q.wsm_frac.
    constexpr int acc_frac = Datapath::sprime_frac + Datapath::in_frac;  // 19
    constexpr int shift = acc_frac - Datapath::wsm_frac;                 // 3
    activity.mac_ops += static_cast<std::int64_t>(count) *
                        static_cast<std::int64_t>(part.out_q.size());
    kernels::round_shift_i32(part.out_q.data(), static_cast<int>(part.out_q.size()), shift);
}

void build_part_into(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                     const Matrix<std::int8_t>& v, int query, const ScoreRaw* scores,
                     const int* key_ids, int count, ActivityStats& activity,
                     TilePart& part, PartScratch& scratch) {
    if (!normalize_part(exp_unit, recip_unit, query, scores, count, activity, part,
                        scratch))
        return;
    kernels::wacc_sp_i8(part.out_q.data(), scratch.sps.data(), key_ids, count,
                        v.data().data(), v.cols());
    finish_part(count, activity, part);
}

}  // namespace salo
