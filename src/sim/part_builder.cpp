#include "sim/part_builder.hpp"

namespace salo {

namespace {

/// Batched stage-2 evaluation: the SIMD kernel when the exponential unit
/// matches its fixed 8-segment layout AND the bounds that make the scalar
/// code's saturation branches unreachable hold (y_max < 17 is enforced by
/// the unit, so m_q << shift < 2^(y_max + exp_frac + 2) <= 2^33 never
/// overflows; y_min >= -40 keeps the down-shift below 64). Scalar loop
/// otherwise. Bit-identical either way.
inline void exp_batch(const kernels::KernelSet& ks, const PwlExp& exp_unit,
                      const ScoreRaw* scores, ExpRaw* out, int count) {
    int done = 0;
    const PwlExp::Config& cfg = exp_unit.config();
    if (ks.pwl_exp_batch && cfg.seg_bits == 3 && cfg.y_min >= -40) {
        const kernels::PwlExpParams params{exp_unit.slope_data(), exp_unit.icept_data(),
                                           cfg.lut_frac, cfg.y_min, cfg.y_max};
        done = ks.pwl_exp_batch(params, scores, out, count);
    }
    for (; done < count; ++done) out[done] = exp_unit.exp_raw(scores[done]);
}

}  // namespace

bool normalize_part(const kernels::KernelSet& ks, const PwlExp& exp_unit,
                    const Reciprocal& recip_unit, int query, const ScoreRaw* scores,
                    int count, ActivityStats& activity, TilePart& part,
                    PartScratch& scratch) {
    part.query = query;  // out_q arrives zeroed and sized d from the sink

    // Stage 2: PWL exponential per element; stage 3: row accumulation.
    scratch.exps.resize(static_cast<std::size_t>(count));
    ExpRaw* exps = scratch.exps.data();
    exp_batch(ks, exp_unit, scores, exps, count);
    SumRaw weight = 0;
    for (int c = 0; c < count; ++c) weight += exps[c];
    activity.exp_ops += count;
    part.weight = weight;
    if (weight == 0) return false;  // all terms underflowed; part carries no mass

    // Stage 3: broadcast 1/W; stage 4: S' = exp * inv.
    const InvRaw inv = recip_unit.inv_raw(weight);
    scratch.sps.resize(static_cast<std::size_t>(count));
    ks.normalize_probs(exps, count, inv, scratch.sps.data());
    return true;
}

void finish_part(const kernels::KernelSet& ks, int count, ActivityStats& activity,
                 TilePart& part) {
    // Stage 5 accumulated out = sum_c S'_c * v_c at Q.(sprime+in) = Q.19;
    // renormalize in place to Q.wsm_frac.
    constexpr int acc_frac = Datapath::sprime_frac + Datapath::in_frac;  // 19
    constexpr int shift = acc_frac - Datapath::wsm_frac;                 // 3
    activity.mac_ops += static_cast<std::int64_t>(count) *
                        static_cast<std::int64_t>(part.out_q.size());
    ks.round_shift(part.out_q.data(), static_cast<int>(part.out_q.size()), shift);
}

void build_part_into(const kernels::KernelSet& ks, const PwlExp& exp_unit,
                     const Reciprocal& recip_unit, const Matrix<std::int8_t>& v, int query,
                     const ScoreRaw* scores, const int* key_ids, int count,
                     ActivityStats& activity, TilePart& part, PartScratch& scratch) {
    if (!normalize_part(ks, exp_unit, recip_unit, query, scores, count, activity, part,
                        scratch))
        return;
    ks.wacc(part.out_q.data(), scratch.sps.data(), key_ids, count, v.data().data(),
            v.cols());
    finish_part(ks, count, activity, part);
}

}  // namespace salo
