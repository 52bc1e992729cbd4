#include "sim/cycle_accurate.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace salo {

namespace {

/// Stages 2-5 of one single-pass part (the global PE row or column): the
/// normalized output part for `query` from its raw scores and the key ids
/// they belong to. Updates exp/MAC activity counters; stage 5 accumulates
/// in int64 on the scalar units.
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

}  // namespace

CycleAccurateArray::CycleAccurateArray(const ArrayGeometry& geometry,
                                       const CycleConfig& cycle_config,
                                       const PwlExp& exp_unit, const Reciprocal& recip_unit,
                                       const Matrix<std::int8_t>& q,
                                       const Matrix<std::int8_t>& k,
                                       const Matrix<std::int8_t>& v)
    : geometry_(geometry), cycle_config_(cycle_config), exp_unit_(&exp_unit),
      recip_unit_(&recip_unit), q_(&q), k_(&k), v_(&v) {
    geometry_.validate();
    cycle_config_.validate();
    SALO_EXPECTS(q.cols() == k.cols() && k.rows() == v.rows() && k.cols() == v.cols());
}

CycleBreakdown CycleAccurateArray::run(const TileTask& tile, std::vector<TilePart>& parts,
                                       ActivityStats& activity) const {
    const int rows = tile.rows();
    const int cols = tile.cols();
    const int d = q_->cols();
    // Keys index K/V, whose row count differs from q's in the decode-step
    // path (one query row against the compact K/V layout).
    const int nn = k_->rows();
    const int cu = std::max(1, tile.cols_used());
    SALO_EXPECTS(rows == geometry_.rows && cols == geometry_.cols);

    auto dot = [&](int qi, int ki) {
        const auto qrow = q_->row(qi);
        const auto krow = k_->row(ki);
        std::int32_t acc = 0;
        for (std::size_t t = 0; t < qrow.size(); ++t)
            acc += static_cast<std::int32_t>(qrow[t]) * static_cast<std::int32_t>(krow[t]);
        return acc;
    };

    // Cache per-slot key ids (-1: inactive slot).
    Matrix<std::int32_t> slot_key(rows, cols, -1);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            if (tile.is_valid(r, c)) {
                const std::int64_t key = tile.key_at(r, c);
                SALO_ASSERT(key >= 0 && key < nn);
                slot_key(r, c) = static_cast<std::int32_t>(key);
            }

    CycleBreakdown measured = tile_cycles(tile, d, cycle_config_);

    // ------------------------------------------------------------------
    // Stage 1: skewed output-stationary systolic MACs. PE(r, c) fires in
    // cycle window [r+c, r+c+d); element index t = cycle - r - c.
    // ------------------------------------------------------------------
    Matrix<std::int32_t> acc(rows, cols, 0);
    const std::int64_t dur1 = measured.stage[0];
    for (std::int64_t cyc = 0; cyc < dur1; ++cyc) {
        for (int r = 0; r < rows; ++r) {
            const int qi = tile.query_ids[static_cast<std::size_t>(r)];
            if (qi < 0) continue;
            for (int c = 0; c < cu; ++c) {
                const int ki = slot_key(r, c);
                if (ki < 0) continue;
                const std::int64_t t = cyc - r - c;
                if (t < 0 || t >= d) continue;
                acc(r, c) += static_cast<std::int32_t>(q_->row(qi)[static_cast<std::size_t>(t)]) *
                             static_cast<std::int32_t>(k_->row(ki)[static_cast<std::size_t>(t)]);
                ++activity.mac_ops;
            }
        }
    }

    // ------------------------------------------------------------------
    // Stage 2: PWL exponential in every active PE (parallel, fixed latency).
    // ------------------------------------------------------------------
    Matrix<ExpRaw> expv(rows, cols, 0);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cu; ++c)
            if (slot_key(r, c) >= 0) {
                expv(r, c) = exp_unit_->exp_raw(acc(r, c));
                ++activity.exp_ops;
            }

    // ------------------------------------------------------------------
    // Stage 3: ripple accumulation left->right (one column per cycle),
    // then the reciprocal unit, then broadcast.
    // ------------------------------------------------------------------
    std::vector<SumRaw> weight(static_cast<std::size_t>(rows), 0);
    for (int c = 0; c < cu; ++c)  // each column hop is one cycle
        for (int r = 0; r < rows; ++r)
            if (slot_key(r, c) >= 0) weight[static_cast<std::size_t>(r)] += expv(r, c);
    std::vector<InvRaw> inv(static_cast<std::size_t>(rows), 0);
    for (int r = 0; r < rows; ++r)
        if (weight[static_cast<std::size_t>(r)] > 0)
            inv[static_cast<std::size_t>(r)] =
                recip_unit_->inv_raw(weight[static_cast<std::size_t>(r)]);

    // ------------------------------------------------------------------
    // Stage 4: S' = exp * (1/W) in every active PE.
    // ------------------------------------------------------------------
    Matrix<SprimeRaw> sprime(rows, cols, 0);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cu; ++c)
            if (slot_key(r, c) >= 0 && weight[static_cast<std::size_t>(r)] > 0)
                sprime(r, c) = normalize_prob(expv(r, c), inv[static_cast<std::size_t>(r)]);

    // ------------------------------------------------------------------
    // Stage 5: weight-stationary S'*V; output element t leaves the row at
    // cycle t + cu - 1. Accumulate at Q.19, renormalize to Q.wsm_frac.
    // ------------------------------------------------------------------
    constexpr int shift = Datapath::sprime_frac + Datapath::in_frac - Datapath::wsm_frac;
    Matrix<std::int64_t> psum(rows, d, 0);
    const std::int64_t dur5 = d + cu - 1;
    for (std::int64_t cyc = 0; cyc < dur5; ++cyc) {
        for (int r = 0; r < rows; ++r) {
            // A row whose exponentials all underflowed carries no mass and
            // emits no part; its stage-5 MACs are not useful work.
            if (weight[static_cast<std::size_t>(r)] == 0) continue;
            for (int c = 0; c < cu; ++c) {
                const int ki = slot_key(r, c);
                if (ki < 0) continue;  // the MAC fires even for S' == 0
                const std::int64_t t = cyc - c;
                if (t < 0 || t >= d) continue;
                psum(r, static_cast<int>(t)) +=
                    static_cast<std::int64_t>(sprime(r, c)) *
                    static_cast<std::int64_t>(
                        v_->row(ki)[static_cast<std::size_t>(t)]);
                ++activity.mac_ops;
            }
        }
    }

    // Emit parts in the same order as the functional executor: per row the
    // window part then the global-column part, then the global-row part.
    std::vector<ScoreRaw> scores;
    std::vector<int> keys;
    for (int r = 0; r < rows; ++r) {
        const int qi = tile.query_ids[static_cast<std::size_t>(r)];
        bool any = false;
        for (int c = 0; c < cu && !any; ++c) any = slot_key(r, c) >= 0;
        if (any && weight[static_cast<std::size_t>(r)] > 0) {
            TilePart part;
            part.query = qi;
            part.weight = weight[static_cast<std::size_t>(r)];
            part.out_q.resize(static_cast<std::size_t>(d));
            for (int t = 0; t < d; ++t)
                part.out_q[static_cast<std::size_t>(t)] =
                    static_cast<std::int32_t>(round_shift(psum(r, t), shift));
            parts.push_back(std::move(part));
        }
        if (tile.global_col_key >= 0 && !tile.global_col_rows.empty() &&
            tile.global_col_rows[static_cast<std::size_t>(r)] != 0) {
            SALO_ASSERT(qi >= 0);
            scores.assign(1, dot(qi, tile.global_col_key));
            keys.assign(1, tile.global_col_key);
            activity.mac_ops += d;
            TilePart part =
                build_part(*exp_unit_, *recip_unit_, *v_, qi, scores, keys, activity);
            if (part.weight > 0) parts.push_back(std::move(part));
        }
    }
    if (tile.global_row_query >= 0) {
        const int g = tile.global_row_query;
        scores.clear();
        keys.clear();
        int slot = 0;
        for (const TileSegment& seg : tile.segments) {
            const int len = seg.stream_length(rows);
            for (int s = 0; s < len; ++s, ++slot) {
                if (tile.global_fresh[static_cast<std::size_t>(slot)] == 0) continue;
                const std::int64_t key = seg.stream_key(s);
                SALO_ASSERT(key >= 0 && key < nn);
                scores.push_back(dot(g, static_cast<int>(key)));
                keys.push_back(static_cast<int>(key));
            }
        }
        if (!scores.empty()) {
            activity.mac_ops += static_cast<std::int64_t>(scores.size()) * d;
            TilePart part =
                build_part(*exp_unit_, *recip_unit_, *v_, g, scores, keys, activity);
            if (part.weight > 0) parts.push_back(std::move(part));
        }
    }

    activity.valid_slots += tile.num_valid_slots();
    activity.array_slots += static_cast<std::int64_t>(rows) * cols;
    activity.pe_cycles += static_cast<std::int64_t>(rows) * cols * measured.total();
    return measured;
}

}  // namespace salo
