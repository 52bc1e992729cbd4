// The SALO data scheduler (paper §4).
//
// Transforms a HybridPattern into a stream of TileTasks that the spatial
// accelerator executes directly:
//
//   * sequence splitting  — query rows are chunked into blocks of
//     geometry.rows (attention rows are independent, §4.2);
//   * window splitting    — each band is chunked into segments of at most
//     geometry.cols offsets; the per-part (weight, output) pairs are merged
//     by the weighted-sum module via the Eq. 2 renormalization;
//   * data reordering     — bands with dilation d are scheduled per residue
//     class (queries i, i+d, i+2d, ... share a tile), turning the dilated
//     window into a contiguous one (§4.2);
//   * column packing      — narrow band segments may share one tile's
//     columns (each segment keeps its own diagonal stream), which is what
//     sustains the paper's >75 % PE utilization on ViL's 15-wide window
//     rows; PackingMode::PerBand disables this for the ablation study;
//   * global assignment   — every (global query, key) pair is routed to the
//     global PE row exactly once, every (query, global key) pair to the
//     global PE column exactly once, exploiting the natural reloading of
//     inputs across tiles (§5.2). If a pattern exceeds the paper's n_g
//     bound, correctness is preserved by emitting explicit catch-up tiles.
//
// The scheduler also enforces the SRAM buffer capacities of Table 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pattern/pattern.hpp"
#include "scheduler/geometry.hpp"
#include "scheduler/tile.hpp"

namespace salo {

enum class PackingMode {
    kPerBand,  ///< one band segment per tile (literal Fig. 5 dataflow)
    kPacked,   ///< multiple narrow segments share a tile's columns
};

struct ScheduleOptions {
    PackingMode packing = PackingMode::kPacked;

    friend bool operator==(const ScheduleOptions&, const ScheduleOptions&) = default;

    std::uint64_t fingerprint() const {
        Fnv1a h;
        h.mix(std::uint64_t{0x5A10'0003});  // type tag: ScheduleOptions
        h.mix(static_cast<int>(packing));
        return h.digest();
    }
};

struct ScheduleStats {
    int window_tiles = 0;        ///< tiles carrying window work
    int catchup_tiles = 0;       ///< extra tiles for leftover global work
    std::int64_t valid_slots = 0;    ///< active PE-array slots across all tiles
    std::int64_t total_slots = 0;    ///< rows*cols summed across all tiles
    std::int64_t global_row_ops = 0; ///< keys processed by the global PE row
    std::int64_t global_col_ops = 0; ///< queries processed by the global PE col

    int total_tiles() const { return window_tiles + catchup_tiles; }
    /// Fraction of PE-array slots doing useful work — the scheduler-level
    /// view of the utilization compared against Sanger in paper §6.3.
    double slot_occupancy() const {
        return total_slots == 0 ? 0.0
                                : static_cast<double>(valid_slots) /
                                      static_cast<double>(total_slots);
    }
};

struct SchedulePlan {
    ArrayGeometry geometry;
    int n = 0;         ///< sequence length
    int head_dim = 0;  ///< d; needed for buffer-capacity checks
    ScheduleOptions options;
    std::vector<TileTask> tiles;
    ScheduleStats stats;
};

/// Build the tile schedule for `pattern` on `geometry` with head dimension
/// `head_dim`. Throws ContractViolation if a tile footprint exceeds the
/// buffer capacities.
SchedulePlan schedule(const HybridPattern& pattern, const ArrayGeometry& geometry,
                      int head_dim, const ScheduleOptions& options = {});

/// The paper's explicit data-reordering permutation: query order grouping
/// residue classes mod `dilation` ([0, d, 2d, ..., 1, 1+d, ...]). Provided
/// for documentation/tests; schedule() applies the equivalent grouping
/// internally per band.
std::vector<int> reorder_permutation(int n, int dilation);

/// Exhaustive coverage check (O(n^2); tests only): verifies that the plan
/// computes every attended (i, j) pair exactly once and nothing else.
/// Returns true and leaves `error` empty on success.
bool verify_coverage(const HybridPattern& pattern, const SchedulePlan& plan,
                     std::string* error);

}  // namespace salo
