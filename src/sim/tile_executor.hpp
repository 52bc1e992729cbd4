// Functional (bit-accurate, untimed) execution of TileTasks.
//
// Runs the exact integer datapath of the PE array — stage-1 MAC
// accumulation, PWL exponential, reciprocal broadcast, stage-4 normalize,
// stage-5 weighted sum — plus the global PE row and global PE column, and
// emits renormalizable TileParts. This class is the fast path used for
// full-layer runs; its bit-level oracle is CycleAccurateArray, which
// re-derives every stage from the scalar numeric units in per-cycle loops
// and must emit the same parts and activity counters (tested).
//
// run(tile, arena, activity, scratch) is the hot path. It executes a tile's
// PE-array rows on one of two datapaths, chosen per tile from the
// executor's kernel set and the tile, never from an option:
//   * The tile path, as the hardware does it (paper §4.1/§5.2): a key
//     enters once and flows diagonally through every row. Each segment's
//     K/V stream is staged once (the set's stage_k/stage_v), stage 1
//     computes the whole rows x stream score band, and each row takes its
//     valid scores from the band and runs stage 5 against the staged V. It
//     runs when the set has the tile fields (the avx512vnni level), d is a
//     multiple of 16, and the tile has at least kTilePathMinRows active
//     rows.
//   * The row path: each row gathers its keys and calls the set's
//     row-batched dot_rows and wacc. It runs all remaining tiles.
// The global PE row and column always take the row path's kernels, and
// stages 2-4 are shared (normalize_part), so both paths emit the same
// parts, in the same order, bit for bit (tested: an executor on the avx512
// set runs every tile on the row path with the same row kernels).
// Thread-safe: concurrent calls on one executor are fine as long as each
// worker lane owns its arena and scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "scheduler/tile.hpp"
#include "sim/kernels.hpp"
#include "sim/part_builder.hpp"
#include "sim/parts.hpp"
#include "tensor/matrix.hpp"

namespace salo {

class TileExecutor {
public:
    /// q/k/v hold raw Q3.4 int8 values for one attention head (n x d).
    /// `set` is the ISA level every tile runs on; tests pass each of
    /// kernels::kernel_sets().
    TileExecutor(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                 const Matrix<std::int8_t>& q, const Matrix<std::int8_t>& k,
                 const Matrix<std::int8_t>& v,
                 const kernels::KernelSet& set = kernels::dispatched());

    /// Hot path: execute one tile, appending its output parts (per PE row:
    /// the window part, then the global-column part; then the global-row
    /// part) to `arena` and updating activity counters. `scratch` is reused
    /// across calls; use one arena + scratch per worker lane. Takes the
    /// tile path when tile_path(tile), the row path otherwise.
    void run(const TileTask& tile, PartArena& arena, ActivityStats& activity,
             PartScratch& scratch) const;

    /// Whether run() executes this tile on the tile path.
    bool tile_path(const TileTask& tile) const;

    /// Fewest active rows (query id >= 0) for which the tile path wins; see
    /// docs/PERFORMANCE.md, "Hot-path kernels", for the measured table.
    static constexpr int kTilePathMinRows = 4;

    int head_dim() const { return q_->cols(); }
    int n() const { return q_->rows(); }

private:
    void execute(const TileTask& tile, PartArena& arena, ActivityStats& activity,
                 PartScratch& scratch, bool tiled) const;
    /// Stage every segment's K/V stream over the tile's active rows and
    /// compute its score band; returns the first active row.
    int stage_tile(const TileTask& tile, PartScratch& scratch) const;

    const kernels::KernelSet* kernels_;
    const PwlExp* exp_unit_;
    const Reciprocal* recip_unit_;
    const Matrix<std::int8_t>* q_;
    const Matrix<std::int8_t>* k_;
    const Matrix<std::int8_t>* v_;
    /// Per query row: the sum of its int8 q values (the tile path's u8-bias
    /// correction); empty when the tile path cannot run.
    std::vector<std::int32_t> qsum_;
};

}  // namespace salo
