#include "sim/tile_executor.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/assert.hpp"
#include "sim/kernels.hpp"

namespace salo {

namespace {

/// ceil(a / b) for b > 0.
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
    return a >= 0 ? (a + b - 1) / b : -((-a) / b);
}

/// floor(a / b) for b > 0.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
    return a >= 0 ? a / b : -((-a + b - 1) / b);
}

/// Bytes of staged K, and of staged V, per 16-key block.
std::size_t block_bytes(int d) { return 16 * static_cast<std::size_t>(d); }

/// Make `stream` hold blocks [lo, hi) as well as those it holds, keeping
/// every staged block.
void hold_blocks(StagedStream& stream, std::int64_t lo, std::int64_t hi, int d) {
    const auto held = static_cast<std::int64_t>(stream.staged.size());
    if (held > 0) {
        lo = std::min(lo, stream.first_block);
        hi = std::max(hi, stream.first_block + held);
    }
    const auto blocks = static_cast<std::size_t>(hi - lo);
    const std::size_t bb = block_bytes(d);
    auto buffer = std::make_unique_for_overwrite<std::uint8_t[]>(2 * blocks * bb + 64);
    const auto addr = reinterpret_cast<std::uintptr_t>(buffer.get());
    std::uint8_t* k = buffer.get() + (64 - addr % 64) % 64;
    std::uint8_t* v = k + blocks * bb;
    std::vector<std::uint8_t> staged(blocks, 0);
    for (std::int64_t b = 0; b < held; ++b) {
        if (!stream.staged[static_cast<std::size_t>(b)]) continue;
        const auto to = static_cast<std::size_t>(stream.first_block + b - lo);
        staged[to] = 1;
        std::memcpy(k + to * bb, stream.k + static_cast<std::size_t>(b) * bb, bb);
        std::memcpy(v + to * bb, stream.v + static_cast<std::size_t>(b) * bb, bb);
    }
    stream.first_block = lo;
    stream.staged = std::move(staged);
    stream.buffer = std::move(buffer);
    stream.k = k;
    stream.v = v;
}

/// The index of the stream in `streams` for (dilation, phase), made to hold
/// blocks [lo, hi). A new stream also holds every block with a key in
/// [-margin, n + margin), so a head's later tiles rarely grow it.
std::size_t reserve_stream(std::vector<StagedStream>& streams, int dilation, int phase,
                           std::int64_t lo, std::int64_t hi, int n, std::int64_t margin,
                           int d) {
    std::size_t i = 0;
    while (i < streams.size() &&
           (streams[i].dilation != dilation || streams[i].phase != phase))
        ++i;
    if (i == streams.size()) {
        streams.emplace_back();
        streams[i].dilation = dilation;
        streams[i].phase = phase;
        const std::int64_t span = 16 * std::int64_t{dilation};
        lo = std::min(lo, floor_div(-margin - phase, span));
        hi = std::max(hi, floor_div(n + margin - 1 - phase, span) + 1);
    }
    StagedStream& stream = streams[i];
    const auto held = static_cast<std::int64_t>(stream.staged.size());
    if (lo < stream.first_block || hi > stream.first_block + held)
        hold_blocks(stream, lo, hi, d);
    return i;
}

/// Stage the blocks in [first, first + count) of `stream` that are not
/// staged yet, one stage_k/stage_v call per run of them.
void stage_blocks(const kernels::KernelSet& ks, const std::int8_t* kbase,
                  const std::int8_t* vbase, int n, int d, StagedStream& stream,
                  std::int64_t first, std::int64_t count) {
    const std::size_t bb = block_bytes(d);
    std::uint8_t* staged = stream.staged.data() + (first - stream.first_block);
    for (std::int64_t b = 0; b < count;) {
        if (staged[b]) {
            ++b;
            continue;
        }
        const std::int64_t run0 = b;
        while (b < count && !staged[b]) staged[b++] = 1;
        const std::int64_t block = first + run0;
        const std::int64_t key0 = stream.phase + block * 16 * stream.dilation;
        const auto len = static_cast<int>(16 * (b - run0));
        const auto at = static_cast<std::size_t>(block - stream.first_block) * bb;
        ks.stage_k(kbase, n, d, key0, stream.dilation, len, stream.k + at);
        ks.stage_v(vbase, n, d, key0, stream.dilation, len, stream.v + at);
    }
}

std::atomic<std::uint64_t> next_executor_id{1};

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

/// Part sinks for TileExecutor::execute.
struct ArenaSink {
    PartArena& arena;
    TilePart& take(int d) { return arena.alloc(d); }
    void put(const TilePart& part) {
        if (part.weight == 0) arena.drop_last();
    }
};

struct MergeSink {
    WeightedSumModule& wsm;
    TilePart& part;  ///< the one reused part buffer
    TilePart& take(int d) {
        part.query = -1;
        part.weight = 0;
        part.out_q.assign(static_cast<std::size_t>(d), 0);
        return part;
    }
    void put(const TilePart& p) { wsm.merge(p); }  // a massless part merges as a no-op
};

}  // namespace

TileExecutor::TileExecutor(const PwlExp& exp_unit, const Reciprocal& recip_unit,
                           const Matrix<std::int8_t>& q, const Matrix<std::int8_t>& k,
                           const Matrix<std::int8_t>& v, const kernels::KernelSet& set)
    : kernels_(&set), exp_unit_(&exp_unit), recip_unit_(&recip_unit), q_(&q), k_(&k),
      v_(&v), id_(next_executor_id.fetch_add(1, std::memory_order_relaxed)) {
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

void TileExecutor::run(const TileTask& tile, WeightedSumModule& wsm,
                       ActivityStats& activity, PartScratch& scratch) const {
    MergeSink sink{wsm, scratch.part};
    execute(tile, sink, activity, scratch, tile_path(tile));
}

void TileExecutor::run(const TileTask& tile, PartArena& arena, ActivityStats& activity,
                       PartScratch& scratch) const {
    ArenaSink sink{arena};
    execute(tile, sink, activity, scratch, tile_path(tile));
}

// ---------------------------------------------------------------------------
// Tile path staging: per segment, the stream of the active rows' keys, from
// the head's staged streams.
// ---------------------------------------------------------------------------
int TileExecutor::stage_tile(const TileTask& tile, PartScratch& scratch) const {
    const kernels::KernelSet& ks = *kernels_;
    const int d = q_->cols();
    const int nn = k_->rows();
    const ActiveRows active = active_rows(tile);
    const int rows = active.end - active.first;
    if (scratch.streams_owner != id_) {
        scratch.streams.clear();
        scratch.streams_owner = id_;
    }

    // Each segment's stream starts at a block of the stream for its
    // (dilation, first key mod 16 * dilation). Every stream grows before
    // any pointer into it is taken. The rows x stream score bands go to
    // `band`, each at a multiple of 64 bytes.
    std::size_t band_words = 0;
    scratch.segments.resize(tile.segments.size());
    for (std::size_t s = 0; s < tile.segments.size(); ++s) {
        const TileSegment& seg = tile.segments[s];
        StagedSegment& st = scratch.segments[s];
        const int len = seg.stream_length(rows);
        const std::int64_t key0 = seg.key_base + std::int64_t{active.first} * seg.dilation;
        const std::int64_t span = 16 * std::int64_t{seg.dilation};
        st.block = floor_div(key0, span);
        const int phase = static_cast<int>(key0 - st.block * span);
        st.stream = reserve_stream(scratch.streams, seg.dilation, phase, st.block,
                                   st.block + (len + 15) / 16, nn,
                                   std::int64_t{tile.rows() + tile.cols()} * seg.dilation, d);
        const std::size_t padded16 = static_cast<std::size_t>((len + 15) / 16 * 16);
        st.band_offset = band_words;
        st.band_stride = static_cast<int>(padded16);
        band_words += static_cast<std::size_t>(rows) * padded16;
        st.slot_lo = static_cast<int>(
            std::clamp<std::int64_t>(ceil_div(-key0, seg.dilation), 0, len));
        st.slot_hi = static_cast<int>(
            std::clamp<std::int64_t>(ceil_div(nn - key0, seg.dilation), st.slot_lo, len));
    }
    std::int32_t* band = aligned_span(scratch.band, band_words);

    const std::int8_t* qbase = q_->data().data();
    const std::int8_t* kbase = k_->data().data();
    const std::int8_t* vbase = v_->data().data();
    const std::int32_t* query_ids = tile.query_ids.data() + active.first;
    const std::size_t bb = block_bytes(d);
    for (std::size_t s = 0; s < tile.segments.size(); ++s) {
        const TileSegment& seg = tile.segments[s];
        StagedSegment& st = scratch.segments[s];
        StagedStream& stream = scratch.streams[st.stream];
        const int len = seg.stream_length(rows);
        stage_blocks(ks, kbase, vbase, nn, d, stream, st.block, (len + 15) / 16);
        const auto at = static_cast<std::size_t>(st.block - stream.first_block) * bb;
        st.k = stream.k + at;
        st.v = stream.v + at;
        ks.score_band(st.k, d, len, qbase, qsum_.data(), query_ids, rows, seg.width(),
                      band + st.band_offset, st.band_stride);
    }
    return active.first;
}

// ---------------------------------------------------------------------------
// Hot path: segment-wise streaming, the set's SIMD kernels, parts to a sink.
// ---------------------------------------------------------------------------
template <typename Sink>
void TileExecutor::execute(const TileTask& tile, Sink& sink, ActivityStats& activity,
                           PartScratch& scratch, bool tiled) const {
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
        TilePart& part = sink.take(d);
        build_part_into(ks, *exp_unit_, *recip_unit_, *v_, query, scores, keys, count,
                        activity, part, scratch);
        sink.put(part);
    };

    int first_active = 0;
    const std::int32_t* band = nullptr;
    std::uint8_t* sp_bytes = nullptr;
    if (tiled) {
        first_active = stage_tile(tile, scratch);
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
                TilePart& part = sink.take(d);
                if (normalize_part(ks, *exp_unit_, *recip_unit_, qi, scores, count, activity,
                                   part, scratch)) {
                    const std::uint32_t* sps = scratch.sps.data();
                    for (std::size_t s = 0; s < tile.segments.size(); ++s) {
                        const TileSegment& seg = tile.segments[s];
                        const StagedSegment& st = scratch.segments[s];
                        if (st.count == 0) continue;
                        ks.wacc_stream(part.out_q.data(), sps, vrow + seg.col_begin,
                                       seg.width(), rr, st.v, d, sp_bytes);
                        sps += st.count;
                    }
                    finish_part(ks, count, activity, part);
                }
                sink.put(part);
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
