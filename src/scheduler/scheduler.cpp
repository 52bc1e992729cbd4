#include "scheduler/scheduler.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace salo {

namespace {

/// Keys the K/V buffers can hold for one head (minus one slot reserved for
/// the global column's key vector).
int kv_capacity_keys(const ArrayGeometry& g, int head_dim) {
    const int cap = std::min(g.key_buffer_bytes, g.value_buffer_bytes) / head_dim;
    return cap - g.num_global_cols;
}

/// Check the Table 1 SRAM capacities against one tile's footprint. The K/V
/// capacity additionally constrains template packing (see build_templates).
void check_buffers(const ArrayGeometry& g, int head_dim) {
    const int bytes_in = 1;   // 8-bit quantized inputs
    const int bytes_out = 2;  // 16-bit outputs
    const int q_bytes = (g.rows + g.num_global_rows) * head_dim * bytes_in;
    const int out_bytes = (g.rows + g.num_global_rows) * head_dim * bytes_out;
    SALO_EXPECTS(q_bytes <= g.query_buffer_bytes);
    SALO_EXPECTS(out_bytes <= g.output_buffer_bytes);
    // A single full-width segment must always fit.
    SALO_EXPECTS(g.key_stream_length() <= kv_capacity_keys(g, head_dim));
}

/// A slice of one band: offsets [u0, u0+len) of band `band`.
struct Piece {
    int band = 0;
    int u0 = 0;
    int len = 0;
};

/// Diagonal-stream keys a piece loads into the K/V buffers.
int piece_stream_keys(const Piece& p, int rows) { return rows + p.len - 1; }

/// Split every band of the class into pieces of at most `cols` offsets,
/// then group pieces into tile templates. Packing respects both the column
/// budget and the K/V buffer capacity (each segment streams rows+len-1
/// keys, so many narrow segments cost more buffer than one wide one).
std::vector<std::vector<Piece>> build_templates(const std::vector<int>& band_indices,
                                                const std::vector<Band>& bands, int rows,
                                                int cols, int kv_cap_keys,
                                                PackingMode packing) {
    std::vector<Piece> pieces;
    for (int b : band_indices) {
        const int count = bands[static_cast<std::size_t>(b)].count;
        for (int u0 = 0; u0 < count; u0 += cols)
            pieces.push_back(Piece{b, u0, std::min(cols, count - u0)});
    }
    std::vector<std::vector<Piece>> templates;
    if (packing == PackingMode::kPerBand) {
        for (const Piece& p : pieces) templates.push_back({p});
        return templates;
    }
    // First-fit column packing: narrow segments share one tile.
    std::vector<int> fill;    // used columns per template
    std::vector<int> stream;  // buffered keys per template
    for (const Piece& p : pieces) {
        const int keys = piece_stream_keys(p, rows);
        bool placed = false;
        for (std::size_t t = 0; t < templates.size(); ++t) {
            if (fill[t] + p.len <= cols && stream[t] + keys <= kv_cap_keys) {
                templates[t].push_back(p);
                fill[t] += p.len;
                stream[t] += keys;
                placed = true;
                break;
            }
        }
        if (!placed) {
            templates.push_back({p});
            fill.push_back(p.len);
            stream.push_back(keys);
        }
    }
    return templates;
}

struct GlobalRowTracker {
    // For every global query: which keys have already been routed to the
    // global PE row (each (g, key) pair must be computed exactly once).
    std::vector<std::vector<std::uint8_t>> seen;
    std::vector<int> remaining;

    GlobalRowTracker(int num_globals, int n)
        : seen(static_cast<std::size_t>(num_globals),
               std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0)),
          remaining(static_cast<std::size_t>(num_globals), n) {}
};

/// Enumerate a tile's diagonal key stream (concatenated across segments)
/// and call fn(stream_slot, key_id) for every in-range key.
template <typename Fn>
void for_each_stream_key(const TileTask& tile, int n, Fn&& fn) {
    int base = 0;
    for (const TileSegment& seg : tile.segments) {
        const int len = seg.stream_length(tile.rows());
        for (int s = 0; s < len; ++s) {
            const std::int64_t key = seg.stream_key(s);
            if (key >= 0 && key < n) fn(base + s, static_cast<int>(key));
        }
        base += len;
    }
}

/// Greedily pick the global query that gains the most unseen keys from this
/// tile's key stream; mark those keys fresh.
void assign_global_row(TileTask& tile, const HybridPattern& pattern,
                       GlobalRowTracker& tracker, ScheduleStats& stats) {
    tile.global_fresh.assign(static_cast<std::size_t>(tile.total_stream_length()), 0);
    const auto& globals = pattern.global_tokens();
    int best = -1;
    int best_gain = 0;
    for (std::size_t gi = 0; gi < globals.size(); ++gi) {
        if (tracker.remaining[gi] == 0) continue;
        int gain = 0;
        std::vector<std::uint8_t> in_tile(tracker.seen[gi].size(), 0);
        for_each_stream_key(tile, pattern.n(), [&](int, int key) {
            if (!tracker.seen[gi][static_cast<std::size_t>(key)] &&
                !in_tile[static_cast<std::size_t>(key)]) {
                in_tile[static_cast<std::size_t>(key)] = 1;
                ++gain;
            }
        });
        if (gain > best_gain) {
            best_gain = gain;
            best = static_cast<int>(gi);
        }
    }
    if (best < 0) return;
    tile.global_row_query = globals[static_cast<std::size_t>(best)];
    auto& seen = tracker.seen[static_cast<std::size_t>(best)];
    for_each_stream_key(tile, pattern.n(), [&](int slot, int key) {
        if (seen[static_cast<std::size_t>(key)]) return;
        seen[static_cast<std::size_t>(key)] = 1;
        tile.global_fresh[static_cast<std::size_t>(slot)] = 1;
        --tracker.remaining[static_cast<std::size_t>(best)];
        ++stats.global_row_ops;
    });
}

/// Serve the global PE column: pick the earliest still-needed global key
/// among this tile's active normal query rows and mark the rows it serves.
void assign_global_col(TileTask& tile, const HybridPattern& pattern,
                       std::vector<int>& col_done, ScheduleStats& stats) {
    const auto& globals = pattern.global_tokens();
    const int ng = static_cast<int>(globals.size());
    if (ng == 0) return;
    int min_level = ng;  // lowest col_done among rows still needing globals
    for (int r = 0; r < tile.rows(); ++r) {
        const int q = tile.query_ids[static_cast<std::size_t>(r)];
        if (q < 0 || pattern.is_global(q)) continue;
        min_level = std::min(min_level, col_done[static_cast<std::size_t>(q)]);
    }
    if (min_level >= ng) return;
    tile.global_col_key = globals[static_cast<std::size_t>(min_level)];
    tile.global_col_rows.assign(static_cast<std::size_t>(tile.rows()), 0);
    for (int r = 0; r < tile.rows(); ++r) {
        const int q = tile.query_ids[static_cast<std::size_t>(r)];
        if (q < 0 || pattern.is_global(q)) continue;
        if (col_done[static_cast<std::size_t>(q)] != min_level) continue;
        tile.global_col_rows[static_cast<std::size_t>(r)] = 1;
        ++col_done[static_cast<std::size_t>(q)];
        ++stats.global_col_ops;
    }
}

}  // namespace

SchedulePlan schedule(const HybridPattern& pattern, const ArrayGeometry& geometry,
                      int head_dim, const ScheduleOptions& options) {
    geometry.validate();
    SALO_EXPECTS(head_dim >= 1);
    check_buffers(geometry, head_dim);

    SchedulePlan plan;
    plan.geometry = geometry;
    plan.n = pattern.n();
    plan.head_dim = head_dim;
    plan.options = options;

    const int n = pattern.n();
    const int R = geometry.rows;
    const int C = geometry.cols;
    const auto& bands = pattern.bands();
    const auto& globals = pattern.global_tokens();
    const int ng = static_cast<int>(globals.size());

    GlobalRowTracker row_tracker(ng, n);
    std::vector<int> col_done(static_cast<std::size_t>(n), 0);

    // Group bands by dilation: one scheduling class per dilation value (the
    // §4.2 reordering applies per class).
    std::map<int, std::vector<int>> classes;
    for (std::size_t b = 0; b < bands.size(); ++b)
        classes[bands[b].dilation].push_back(static_cast<int>(b));

    for (const auto& [dl, band_indices] : classes) {
        const auto templates = build_templates(band_indices, bands, R, C,
                                               kv_capacity_keys(geometry, head_dim),
                                               options.packing);
        for (int rsd = 0; rsd < dl; ++rsd) {
            const int group_size = (n - rsd + dl - 1) / dl;
            if (group_size <= 0) continue;
            // Sequence splitting: blocks of R queries from this residue group.
            for (int t0 = 0; t0 < group_size; t0 += R) {
                const std::int64_t first_query = rsd + static_cast<std::int64_t>(t0) * dl;
                for (const auto& tmpl : templates) {
                    TileTask tile;
                    tile.query_ids.assign(static_cast<std::size_t>(R), -1);
                    for (int r = 0; r < R; ++r) {
                        const int t = t0 + r;
                        if (t < group_size)
                            tile.query_ids[static_cast<std::size_t>(r)] = rsd + t * dl;
                    }
                    int col = 0;
                    for (const Piece& p : tmpl) {
                        TileSegment seg;
                        seg.band = p.band;
                        seg.col_begin = col;
                        seg.col_end = col + p.len;
                        seg.dilation = dl;
                        seg.key_base = first_query +
                                       bands[static_cast<std::size_t>(p.band)].lo +
                                       static_cast<std::int64_t>(p.u0) * dl;
                        col += p.len;
                        tile.segments.push_back(seg);
                    }
                    tile.valid.assign(
                        static_cast<std::size_t>(R) * static_cast<std::size_t>(C), 0);
                    for (int r = 0; r < R; ++r) {
                        const int q = tile.query_ids[static_cast<std::size_t>(r)];
                        if (q < 0 || pattern.is_global(q)) continue;
                        for (const TileSegment& seg : tile.segments) {
                            for (int c = seg.col_begin; c < seg.col_end; ++c) {
                                const std::int64_t key = seg.key_at(r, c);
                                if (key < 0 || key >= n) continue;
                                const int j = static_cast<int>(key);
                                if (pattern.is_global(j)) continue;  // global col's job
                                if (pattern.first_band_index(q, j) != seg.band)
                                    continue;  // overlap dedup / 2D validity
                                tile.valid[static_cast<std::size_t>(r * C + c)] = 1;
                            }
                        }
                    }
                    if (!tile.has_window_work()) continue;  // fully clipped edge tile
                    assign_global_col(tile, pattern, col_done, plan.stats);
                    assign_global_row(tile, pattern, row_tracker, plan.stats);
                    plan.stats.valid_slots += tile.num_valid_slots();
                    plan.stats.total_slots += static_cast<std::int64_t>(R) * C;
                    ++plan.stats.window_tiles;
                    plan.tiles.push_back(std::move(tile));
                }
            }
        }
    }

    // Catch-up passes for leftover global work. With the paper's bound
    // n_g <= min{ceil(n/#row), ceil(w/#col)} these loops do not fire; they
    // keep the scheduler correct for arbitrary patterns.
    for (int gi = 0; gi < ng; ++gi) {
        while (row_tracker.remaining[static_cast<std::size_t>(gi)] > 0) {
            const auto& seen = row_tracker.seen[static_cast<std::size_t>(gi)];
            int k0 = 0;
            while (k0 < n && seen[static_cast<std::size_t>(k0)]) ++k0;
            SALO_ASSERT(k0 < n);
            TileTask tile;
            tile.query_ids.assign(static_cast<std::size_t>(R), -1);
            TileSegment seg;
            seg.band = -1;
            seg.col_begin = 0;
            seg.col_end = C;
            seg.key_base = k0;
            seg.dilation = 1;
            tile.segments.push_back(seg);
            tile.valid.assign(static_cast<std::size_t>(R) * static_cast<std::size_t>(C), 0);
            assign_global_row(tile, pattern, row_tracker, plan.stats);
            SALO_ASSERT(tile.global_row_query >= 0);
            ++plan.stats.catchup_tiles;
            plan.tiles.push_back(std::move(tile));
        }
    }
    for (int level = 0; level < ng; ++level) {
        std::vector<int> pending;
        for (int q = 0; q < n; ++q)
            if (!pattern.is_global(q) && col_done[static_cast<std::size_t>(q)] <= level)
                pending.push_back(q);
        for (std::size_t at = 0; at < pending.size(); at += static_cast<std::size_t>(R)) {
            TileTask tile;
            tile.query_ids.assign(static_cast<std::size_t>(R), -1);
            for (int r = 0; r < R && at + static_cast<std::size_t>(r) < pending.size(); ++r)
                tile.query_ids[static_cast<std::size_t>(r)] =
                    pending[at + static_cast<std::size_t>(r)];
            tile.valid.assign(static_cast<std::size_t>(R) * static_cast<std::size_t>(C), 0);
            assign_global_col(tile, pattern, col_done, plan.stats);
            SALO_ASSERT(tile.global_col_key >= 0);
            ++plan.stats.catchup_tiles;
            plan.tiles.push_back(std::move(tile));
        }
    }

    return plan;
}

std::vector<int> reorder_permutation(int n, int dilation) {
    SALO_EXPECTS(n >= 1 && dilation >= 1);
    std::vector<int> perm;
    perm.reserve(static_cast<std::size_t>(n));
    for (int rsd = 0; rsd < dilation; ++rsd)
        for (int i = rsd; i < n; i += dilation) perm.push_back(i);
    return perm;
}

bool verify_coverage(const HybridPattern& pattern, const SchedulePlan& plan,
                     std::string* error) {
    const int n = pattern.n();
    SALO_EXPECTS(n <= 8192);  // O(n^2) scratch; tests only
    std::vector<std::uint16_t> count(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                                     0);
    auto bump = [&](int i, int j) {
        ++count[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(j)];
    };
    for (const TileTask& tile : plan.tiles) {
        const int rows = tile.rows();
        const int cols = tile.cols();
        for (int r = 0; r < rows; ++r) {
            const int q = tile.query_ids[static_cast<std::size_t>(r)];
            for (int c = 0; c < cols; ++c) {
                if (!tile.is_valid(r, c)) continue;
                const TileSegment* seg = tile.segment_at(c);
                const std::int64_t key = seg ? seg->key_at(r, c) : -1;
                if (q < 0 || key < 0 || key >= n) {
                    if (error) *error = "valid slot with out-of-range query/key";
                    return false;
                }
                bump(q, static_cast<int>(key));
            }
            if (tile.global_col_key >= 0 && !tile.global_col_rows.empty() &&
                tile.global_col_rows[static_cast<std::size_t>(r)] != 0) {
                if (q < 0) {
                    if (error) *error = "global col serving inactive row";
                    return false;
                }
                bump(q, tile.global_col_key);
            }
        }
        if (tile.global_row_query >= 0) {
            for_each_stream_key(tile, n, [&](int slot, int key) {
                if (tile.global_fresh[static_cast<std::size_t>(slot)] != 0)
                    bump(tile.global_row_query, key);
            });
        }
    }
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const int expected = pattern.attends(i, j) ? 1 : 0;
            const int got = count[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                                  static_cast<std::size_t>(j)];
            if (got != expected) {
                if (error) {
                    std::ostringstream os;
                    os << "coverage mismatch at (" << i << ", " << j << "): expected "
                       << expected << ", got " << got;
                    *error = os.str();
                }
                return false;
            }
        }
    }
    if (error) error->clear();
    return true;
}

}  // namespace salo
