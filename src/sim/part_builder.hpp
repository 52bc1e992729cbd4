// Construction of a normalized TilePart from raw scores on the functional
// fast path — the stage 2-5 datapath applied to one PE row (or to the global
// PE row/column) — and the per-lane scratch TileExecutor reuses across
// tiles. The cycle-accurate array (cycle_accurate.cpp) derives the same
// stages from the scalar numeric units; the oracle test holds this path to
// it bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "sim/kernels.hpp"
#include "sim/parts.hpp"
#include "tensor/matrix.hpp"

namespace salo {

/// One tile segment's staged state on the tile path (TileExecutor): byte
/// offsets of its staged K and V streams in PartScratch::staged, the int32
/// offset and row stride of its score band in PartScratch::band, and the
/// stream slots whose keys lie in [0, n).
struct StagedSegment {
    std::size_t k_offset = 0;
    std::size_t v_offset = 0;
    std::size_t band_offset = 0;
    int band_stride = 0;
    int slot_lo = 0;
    int slot_hi = 0;
    int count = 0;  ///< the current row's valid slots in this segment
};

/// Scratch buffers reused across tiles and parts (no per-part heap
/// traffic). One instance per worker lane.
struct PartScratch {
    std::vector<ScoreRaw> scores;
    std::vector<int> keys;
    std::vector<ExpRaw> exps;
    std::vector<std::uint32_t> sps;  ///< stage-4 probabilities (Q.15)
    // Tile path: staged K/V streams and score bands of the current tile.
    std::vector<std::uint8_t> staged;
    std::vector<std::int32_t> band;
    std::vector<StagedSegment> segments;
    std::vector<std::uint8_t> sp_bytes;  ///< one row's stage-5 lo/hi byte planes
    TilePart part;  ///< the part being built when parts merge where made
};

/// Stages 2-4 of one part: PWL exponential, row sum, reciprocal and
/// normalization. Sets part.query and part.weight and, when the weight is
/// non-zero, fills scratch.sps[0, count). Returns false when every term
/// underflowed (the part carries no mass and stage 5 is skipped).
bool normalize_part(const kernels::KernelSet& ks, const PwlExp& exp_unit,
                    const Reciprocal& recip_unit, int query, const ScoreRaw* scores,
                    int count, ActivityStats& activity, TilePart& part,
                    PartScratch& scratch);

/// Stage-5 epilogue: counts the part's `count * d` MACs and renormalizes the
/// Q.19 accumulator in part.out_q to Q.wsm_frac in place.
void finish_part(const kernels::KernelSet& ks, int count, ActivityStats& activity,
                 TilePart& part);

/// Build the normalized output part for `query` from its raw scores and the
/// key ids they belong to, into a cleared part of width d (normalize_part, then
/// stage 5 by the set's wacc, then finish_part). Stage 5 accumulates sp * v
/// directly into part.out_q in int32 — exact, because the Q.15
/// probabilities of a row sum to ~1.0 (bounded by 1 + the reciprocal unit's
/// relative error), keeping |acc| < 2^23.
void build_part_into(const kernels::KernelSet& ks, const PwlExp& exp_unit,
                     const Reciprocal& recip_unit, const Matrix<std::int8_t>& v, int query,
                     const ScoreRaw* scores, const int* key_ids, int count,
                     ActivityStats& activity, TilePart& part, PartScratch& scratch);

}  // namespace salo
