// Result and statistics types shared by the functional tile executor, the
// cycle-accurate array model and the weighted-sum module.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "numeric/datapath.hpp"

namespace salo {

/// One renormalizable output part (paper §4.2 / Eq. 2): a query's softmax
/// weight W over some subset of its keys, and the already-normalized output
/// vector for that subset, held at Q.wsm_frac precision.
struct TilePart {
    int query = -1;
    SumRaw weight = 0;                  ///< W = sum of exp terms (Q.exp_frac)
    std::vector<std::int32_t> out_q;    ///< normalized output, Q.wsm_frac
};

/// Recycling allocator for TileParts. A head executes many tiles;
/// allocating each part's out_q vector fresh dominated the original
/// profile, so the arena keeps every part (and its out_q capacity) alive
/// across reset() and hands out cleared slots in order. Parts are addressed
/// by index: alloc() may reallocate the backing vector, so a reference
/// from alloc() or at() is valid only until the next alloc().
class PartArena {
public:
    /// Forget all parts but keep their buffers for reuse.
    void reset() { used_ = 0; }

    /// Next cleared part with out_q sized to d. Valid until the next reset().
    TilePart& alloc(int d) {
        if (used_ == parts_.size()) parts_.emplace_back();
        TilePart& p = parts_[used_++];
        p.query = -1;
        p.weight = 0;
        p.out_q.assign(static_cast<std::size_t>(d), 0);
        return p;
    }

    /// Discard the most recently alloc()ed part (e.g. a massless part that
    /// carries no contribution); its buffers stay pooled for reuse.
    void drop_last() {
        SALO_ASSERT(used_ > 0);
        --used_;
    }

    std::size_t used() const { return used_; }
    const TilePart& at(std::size_t i) const { return parts_[i]; }

private:
    std::vector<TilePart> parts_;
    std::size_t used_ = 0;
};

/// Per-stage cycle counts for one tile pass (paper Fig. 6's five stages).
struct CycleBreakdown {
    std::int64_t stage[5] = {0, 0, 0, 0, 0};

    std::int64_t total() const {
        std::int64_t t = 0;
        for (std::int64_t s : stage) t += s;
        return t;
    }
};

/// Activity counters for utilization analysis.
struct ActivityStats {
    std::int64_t mac_ops = 0;        ///< useful MAC operations (stages 1 & 5)
    std::int64_t exp_ops = 0;        ///< PWL exponential evaluations
    std::int64_t valid_slots = 0;    ///< pattern elements computed
    std::int64_t array_slots = 0;    ///< rows*cols per tile, summed
    std::int64_t pe_cycles = 0;      ///< rows*cols*cycles, summed

    /// Spatial occupancy: fraction of array slots holding useful work —
    /// the utilization figure compared against Sanger in paper §6.3.
    double occupancy() const {
        return array_slots == 0 ? 0.0
                                : static_cast<double>(valid_slots) /
                                      static_cast<double>(array_slots);
    }
    /// Temporal MAC utilization: useful MAC ops over all PE-cycles (stricter;
    /// includes skew fill/drain and the softmax stages).
    double mac_utilization() const {
        return pe_cycles == 0 ? 0.0
                              : static_cast<double>(mac_ops) /
                                    static_cast<double>(pe_cycles);
    }

    void operator+=(const ActivityStats& other) {
        mac_ops += other.mac_ops;
        exp_ops += other.exp_ops;
        valid_slots += other.valid_slots;
        array_slots += other.array_slots;
        pe_cycles += other.pe_cycles;
    }
};

/// Aggregated simulation statistics for a whole attention layer run.
struct SimStats {
    std::int64_t cycles = 0;
    std::int64_t tiles = 0;
    CycleBreakdown stage_totals;
    ActivityStats activity;

    double latency_ms(double frequency_ghz) const {
        return static_cast<double>(cycles) / (frequency_ghz * 1e6);
    }

    void operator+=(const SimStats& other) {
        cycles += other.cycles;
        tiles += other.tiles;
        for (int s = 0; s < 5; ++s) stage_totals.stage[s] += other.stage_totals.stage[s];
        activity += other.activity;
    }
};

}  // namespace salo
