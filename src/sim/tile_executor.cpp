#include "sim/tile_executor.hpp"

#include <algorithm>
#include <cstdint>

#include "common/assert.hpp"
#include "sim/kernels.hpp"

namespace salo {

namespace {

/// ceil(a / b) for b > 0.
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
    return a >= 0 ? (a + b - 1) / b : -((-a) / b);
}

/// A 64-byte aligned view of at least `count` elements of `buf`.
template <typename T>
T* aligned_span(std::vector<T>& buf, std::size_t count) {
    constexpr std::size_t pad = 64 / sizeof(T);
    if (buf.size() < count + pad) buf.resize(count + pad);
    const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
    return buf.data() + ((64 - addr % 64) % 64) / sizeof(T);
}

/// Active rows (query id >= 0) of a tile: the first, one past the last, and
/// how many.
struct ActiveRows {
    int first = 0;
    int end = 0;
    int count = 0;
};

ActiveRows active_rows(const TileTask& tile) {
    ActiveRows a;
    for (int r = 0; r < tile.rows(); ++r) {
        if (tile.query_ids[static_cast<std::size_t>(r)] < 0) continue;
        if (a.count++ == 0) a.first = r;
        a.end = r + 1;
    }
    return a;
}

}  // namespace

TileExecutor::TileExecutor(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                           const Matrix<std::int8_t>& q, const Matrix<std::int8_t>& k,
                           const Matrix<std::int8_t>& v, const kernels::KernelSet& set)
    : kernels_(&set), exp_unit_(&exp_unit), recip_unit_(&recip_unit), q_(&q), k_(&k),
      v_(&v) {
    SALO_EXPECTS(q.cols() == k.cols() && k.rows() == v.rows() && k.cols() == v.cols());
    // A tile's active rows hold distinct queries, so a q of fewer than
    // kTilePathMinRows rows (a decode step's one row) never selects the
    // tile path; it skips the table.
    if (!set.has_tile_path() || q.cols() % 16 != 0 || q.rows() < kTilePathMinRows) return;
    qsum_.resize(static_cast<std::size_t>(q.rows()));
    for (int i = 0; i < q.rows(); ++i) {
        std::int32_t sum = 0;
        for (const std::int8_t x : q.row(i)) sum += x;
        qsum_[static_cast<std::size_t>(i)] = sum;
    }
}

bool TileExecutor::tile_path(const TileTask& tile) const {
    if (qsum_.empty() || tile.segments.empty()) return false;
    for (const TileSegment& seg : tile.segments)
        if (seg.dilation < 1) return false;
    return active_rows(tile).count >= kTilePathMinRows;
}

void TileExecutor::run(const TileTask& tile, PartArena& arena, ActivityStats& activity,
                       PartScratch& scratch) const {
    execute(tile, arena, activity, scratch, tile_path(tile));
}

// ---------------------------------------------------------------------------
// Tile path staging: per segment, the stream of the active rows' keys.
// ---------------------------------------------------------------------------
int TileExecutor::stage_tile(const TileTask& tile, PartScratch& scratch) const {
    const kernels::KernelSet& ks = *kernels_;
    const int d = q_->cols();
    const int nn = k_->rows();
    const ActiveRows active = active_rows(tile);
    const int rows = active.end - active.first;

    // Layout: per segment, K (16-key blocks) then V (4-key groups) in
    // `staged`, and a rows x stream score band in `band`. Every offset is a
    // multiple of 64 bytes.
    std::size_t staged_bytes = 0;
    std::size_t band_words = 0;
    scratch.segments.resize(tile.segments.size());
    for (std::size_t s = 0; s < tile.segments.size(); ++s) {
        const TileSegment& seg = tile.segments[s];
        StagedSegment& st = scratch.segments[s];
        const int len = seg.stream_length(rows);
        const std::size_t padded16 = static_cast<std::size_t>((len + 15) / 16 * 16);
        const std::size_t padded4 = static_cast<std::size_t>((len + 3) / 4 * 4);
        st.k_offset = staged_bytes;
        staged_bytes += padded16 * static_cast<std::size_t>(d);
        st.v_offset = staged_bytes;
        staged_bytes += padded4 * static_cast<std::size_t>(d);
        st.band_offset = band_words;
        st.band_stride = static_cast<int>(padded16);
        band_words += static_cast<std::size_t>(rows) * padded16;
        const std::int64_t key0 = seg.key_base + std::int64_t{active.first} * seg.dilation;
        st.slot_lo = static_cast<int>(
            std::clamp<std::int64_t>(ceil_div(-key0, seg.dilation), 0, len));
        st.slot_hi = static_cast<int>(
            std::clamp<std::int64_t>(ceil_div(nn - key0, seg.dilation), st.slot_lo, len));
    }
    std::uint8_t* staged = aligned_span(scratch.staged, staged_bytes);
    std::int32_t* band = aligned_span(scratch.band, band_words);

    const std::int8_t* qbase = q_->data().data();
    const std::int8_t* kbase = k_->data().data();
    const std::int8_t* vbase = v_->data().data();
    const std::int32_t* query_ids = tile.query_ids.data() + active.first;
    for (std::size_t s = 0; s < tile.segments.size(); ++s) {
        const TileSegment& seg = tile.segments[s];
        const StagedSegment& st = scratch.segments[s];
        const int len = seg.stream_length(rows);
        const std::int64_t key0 = seg.key_base + std::int64_t{active.first} * seg.dilation;
        ks.stage_k(kbase, nn, d, key0, seg.dilation, len, staged + st.k_offset);
        ks.stage_v(vbase, nn, d, key0, seg.dilation, len, staged + st.v_offset);
        ks.score_band(staged + st.k_offset, d, len, qbase, qsum_.data(), query_ids, rows,
                      seg.width(), band + st.band_offset, st.band_stride);
    }
    return active.first;
}

// ---------------------------------------------------------------------------
// Hot path: segment-wise streaming, the set's SIMD kernels, arena parts.
// ---------------------------------------------------------------------------
void TileExecutor::execute(const TileTask& tile, PartArena& arena,
                           ActivityStats& activity, PartScratch& scratch,
                           bool tiled) const {
    const kernels::KernelSet& ks = *kernels_;
    const int rows = tile.rows();
    const int cols = tile.cols();
    const int d = q_->cols();
    // Keys index K/V, whose row count differs from q's in the decode-step
    // path (one query row against the compact K/V layout).
    const int nn = k_->rows();
    const std::int8_t* qbase = q_->data().data();
    const std::int8_t* kbase = k_->data().data();
    const std::uint8_t* valid = tile.valid.data();

    // Worst-case keys in one row: the full column budget (window) or the
    // whole key stream (global row); reserve once, then use raw pointers.
    // The tile path's compressing stores write up to 16 entries past a
    // row's count.
    const int stream_len = tile.total_stream_length();
    const std::size_t max_keys =
        static_cast<std::size_t>(std::max(cols, stream_len) + 1 + 16);
    if (scratch.scores.size() < max_keys) {
        scratch.scores.resize(max_keys);
        scratch.keys.resize(max_keys);
    }
    ScoreRaw* scores = scratch.scores.data();
    int* keys = scratch.keys.data();

    auto emit = [&](int query, int count) {
        TilePart& part = arena.alloc(d);
        build_part_into(ks, *exp_unit_, *recip_unit_, *v_, query, scores, keys, count,
                        activity, part, scratch);
        if (part.weight == 0) arena.drop_last();
    };

    int first_active = 0;
    const std::uint8_t* staged = nullptr;
    const std::int32_t* band = nullptr;
    std::uint8_t* sp_bytes = nullptr;
    if (tiled) {
        first_active = stage_tile(tile, scratch);
        staged = aligned_span(scratch.staged, 0);
        band = aligned_span(scratch.band, 0);
        const std::size_t sp_size = static_cast<std::size_t>(2 * cols + 128);
        if (scratch.sp_bytes.size() < sp_size) scratch.sp_bytes.resize(sp_size);
        sp_bytes = scratch.sp_bytes.data();
    }

    // PE-array rows: the window part of the pattern.
    for (int r = 0; r < rows; ++r) {
        const int qi = tile.query_ids[static_cast<std::size_t>(r)];
        const std::uint8_t* vrow =
            valid + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols);
        if (qi >= 0 && tiled) {
            // Tile path: the row's valid scores come out of each segment's
            // band; stage 5 runs against the staged V.
            const int rr = r - first_active;
            int count = 0;
            for (std::size_t s = 0; s < tile.segments.size(); ++s) {
                const TileSegment& seg = tile.segments[s];
                StagedSegment& st = scratch.segments[s];
                st.count = ks.select(
                    band + st.band_offset + static_cast<std::size_t>(rr) * st.band_stride + rr,
                    vrow + seg.col_begin, seg.width(), st.slot_lo - rr, st.slot_hi - rr,
                    scores + count);
                const bool keys_in_range = st.count >= 0;  // every valid key in [0, n)
                SALO_ASSERT(keys_in_range);
                count += st.count;
            }
            activity.mac_ops += static_cast<std::int64_t>(count) * d;
            if (count > 0) {
                TilePart& part = arena.alloc(d);
                if (normalize_part(ks, *exp_unit_, *recip_unit_, qi, scores, count, activity,
                                   part, scratch)) {
                    const std::uint32_t* sps = scratch.sps.data();
                    for (std::size_t s = 0; s < tile.segments.size(); ++s) {
                        const TileSegment& seg = tile.segments[s];
                        const StagedSegment& st = scratch.segments[s];
                        if (st.count == 0) continue;
                        ks.wacc_stream(
                            part.out_q.data(), sps, vrow + seg.col_begin, seg.width(), rr,
                            staged + st.v_offset, d, sp_bytes);
                        sps += st.count;
                    }
                    finish_part(ks, count, activity, part);
                } else {
                    arena.drop_last();
                }
            }
        } else if (qi >= 0) {
            // Row path: keys are gathered first, then the whole row's dots
            // run in one batched kernel call (the widened query row stays in
            // registers across the row's K vectors).
            int count = 0;
            for (const TileSegment& seg : tile.segments) {
                std::int64_t key = seg.key_base +
                                   static_cast<std::int64_t>(r) * seg.dilation;
                for (int c = seg.col_begin; c < seg.col_end;
                     ++c, key += seg.dilation) {
                    if (vrow[c] == 0) continue;
                    SALO_ASSERT(key >= 0 && key < nn);
                    keys[count++] = static_cast<int>(key);
                }
            }
            ks.dot_rows(qbase + static_cast<std::size_t>(qi) * static_cast<std::size_t>(d),
                        kbase, keys, count, d, scores);
            activity.mac_ops += static_cast<std::int64_t>(count) * d;
            if (count > 0) emit(qi, count);
        }

        // Global PE column: q_i against the global key (single-element part:
        // its normalized output is v_g itself, with weight exp(q_i . k_g)).
        if (tile.global_col_key >= 0 && !tile.global_col_rows.empty() &&
            tile.global_col_rows[static_cast<std::size_t>(r)] != 0) {
            SALO_ASSERT(qi >= 0);
            const int g = tile.global_col_key;
            keys[0] = g;
            ks.dot_rows(qbase + static_cast<std::size_t>(qi) * static_cast<std::size_t>(d),
                        kbase, keys, 1, d, scores);
            activity.mac_ops += d;
            emit(qi, 1);
        }
    }

    // Global PE row: the global query against this tile's fresh keys.
    if (tile.global_row_query >= 0) {
        const int g = tile.global_row_query;
        int count = 0;
        int slot = 0;
        for (const TileSegment& seg : tile.segments) {
            const int len = seg.stream_length(rows);
            std::int64_t key = seg.key_base;
            for (int s = 0; s < len; ++s, ++slot, key += seg.dilation) {
                if (tile.global_fresh[static_cast<std::size_t>(slot)] == 0) continue;
                SALO_ASSERT(key >= 0 && key < nn);
                keys[count++] = static_cast<int>(key);
            }
        }
        if (count > 0) {
            ks.dot_rows(qbase + static_cast<std::size_t>(g) * static_cast<std::size_t>(d),
                        kbase, keys, count, d, scores);
            activity.mac_ops += static_cast<std::int64_t>(count) * d;
            emit(g, count);
        }
    }

    activity.valid_slots += tile.num_valid_slots();
    activity.array_slots += static_cast<std::int64_t>(rows) * cols;
}

}  // namespace salo
