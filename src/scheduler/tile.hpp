// TileTask: one pass of the PE array produced by the data scheduler.
//
// A tile processes up to `rows` queries against up to `cols` keys. Its
// columns are partitioned into *segments*; each segment is a slice of one
// pattern band and carries its own diagonal key stream:
//
//   key(r, c) = key_base + (r + c - col_begin) * dilation    (c in segment)
//
// so PE(r, c) and PE(r+1, c-1) hold the same key — the diagonal-connection
// data reuse of paper §4.1/§5.2. Queries in a tile are spaced `dilation`
// apart (the §4.2 reordering: a dilated window becomes contiguous within a
// residue class). With one segment per tile this is exactly the hardware of
// Fig. 5; multiple segments model column-packed scheduling, where narrow
// bands (e.g. ViL's 15-wide window rows) share the 32-wide array instead of
// leaving half the columns dark (docs/REPRODUCTION.md, ablations).
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "scheduler/geometry.hpp"

namespace salo {

struct TileSegment {
    int band = -1;           ///< owning pattern band; -1 for catch-up streams
    int col_begin = 0;       ///< first tile column of this segment
    int col_end = 0;         ///< one past the last tile column
    std::int64_t key_base = 0;  ///< key id at (r = 0, c = col_begin)
    int dilation = 1;        ///< key stride along the diagonal stream

    int width() const { return col_end - col_begin; }
    /// Distinct keys streamed through this segment for `rows` query rows.
    int stream_length(int rows) const { return rows + width() - 1; }

    std::int64_t key_at(int r, int c) const {
        SALO_EXPECTS(c >= col_begin && c < col_end);
        return key_base + static_cast<std::int64_t>(r + c - col_begin) * dilation;
    }
    std::int64_t stream_key(int s) const {
        return key_base + static_cast<std::int64_t>(s) * dilation;
    }
};

struct TileTask {
    /// Query id per PE row; -1 marks an inactive row. Queries are spaced by
    /// the scheduling class's dilation.
    std::vector<std::int32_t> query_ids;

    /// Column segments, non-overlapping, ordered by col_begin.
    std::vector<TileSegment> segments;

    /// rows x cols window-slot mask: 1 where PE(r, c) computes a pattern
    /// element. Masked-off slots (edge clipping, band-overlap dedup, global
    /// rows/columns, packing waste) idle — they are what keeps utilization
    /// below 100 %.
    std::vector<std::uint8_t> valid;

    /// Global query served by the global PE row this pass, or -1.
    std::int32_t global_row_query = -1;
    /// Per stream slot, concatenated across segments in order (length =
    /// sum of segment stream lengths): 1 if that streamed key feeds the
    /// global PE row for global_row_query.
    std::vector<std::uint8_t> global_fresh;

    /// Global key served by the global PE column this pass, or -1.
    std::int32_t global_col_key = -1;
    /// Per PE row: 1 if that row consumes the global column's contribution
    /// this pass (queries reappear across tiles; the scheduler picks exactly
    /// one pass per (query, global key) pair).
    std::vector<std::uint8_t> global_col_rows;

    int rows() const { return static_cast<int>(query_ids.size()); }
    int cols() const {
        return rows() == 0 ? 0 : static_cast<int>(valid.size()) / rows();
    }
    /// Rightmost occupied column + 1 (<= cols()).
    int cols_used() const {
        int used = 0;
        for (const TileSegment& s : segments) used = std::max(used, s.col_end);
        return used;
    }

    bool is_valid(int r, int c) const {
        return valid[static_cast<std::size_t>(r * cols() + c)] != 0;
    }

    /// Segment containing column c, or nullptr.
    const TileSegment* segment_at(int c) const {
        for (const TileSegment& s : segments)
            if (c >= s.col_begin && c < s.col_end) return &s;
        return nullptr;
    }

    /// Key id at PE(r, c); column must belong to a segment.
    std::int64_t key_at(int r, int c) const {
        const TileSegment* s = segment_at(c);
        SALO_EXPECTS(s != nullptr);
        return s->key_at(r, c);
    }

    /// Total diagonal-stream slots across segments (= global_fresh size).
    int total_stream_length() const {
        int len = 0;
        for (const TileSegment& s : segments) len += s.stream_length(rows());
        return len;
    }

    int num_valid_slots() const {
        int count = 0;
        for (auto v : valid) count += v;
        return count;
    }

    bool has_window_work() const { return num_valid_slots() > 0; }
    bool has_global_work() const { return global_row_query >= 0 || global_col_key >= 0; }
};

}  // namespace salo
