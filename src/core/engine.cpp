#include "core/engine.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "attention/golden.hpp"
#include "numeric/quantize.hpp"
#include "sim/cycle_accurate.hpp"
#include "sim/kernels.hpp"
#include "sim/tile_executor.hpp"
#include "sim/wsm.hpp"

namespace salo {

namespace {

/// Min/max query id over a tile's emitted parts, as a [lo, hi) range for
/// the merge phase's shard-skip test ({0, 0} when the tile emitted none).
/// `for_each_part` invokes its callback once per part, in any order.
template <typename ForEachPart>
QueryShard part_query_bounds(ForEachPart&& for_each_part) {
    QueryShard bounds{0, 0};
    bool first = true;
    for_each_part([&](const TilePart& p) {
        if (first) {
            bounds = QueryShard{p.query, p.query + 1};
            first = false;
            return;
        }
        bounds.lo = std::min(bounds.lo, p.query);
        bounds.hi = std::max(bounds.hi, p.query + 1);
    });
    return bounds;
}

/// Sequential cycle accounting shared by every execution path, a thin
/// adapter over the shared TileCostAccountant (sim/tile_costs.hpp — the
/// same contract the analytic model and the co-simulation kernel replay).
/// Tiles are accounted strictly in schedule order: the double-buffered load
/// overlap and the inter-tile stage-3 pipelining both depend on the
/// previous tile.
class TileAccountant {
public:
    TileAccountant(const SaloConfig& config, int head_dim)
        : accountant_(config.tile_cost_params(head_dim)) {}

    /// Account one tile; returns its closed-form stage breakdown for the
    /// caller's activity bookkeeping.
    const CycleBreakdown& account(const TileTask& tile, SimStats& stats) {
        const TileCostAccountant::Step step = accountant_.account(tile);
        stats.cycles += step.cycles;
        ++stats.tiles;
        for (int s = 0; s < 5; ++s)
            stats.stage_totals.stage[s] += step.cost.breakdown.stage[s];
        last_breakdown_ = step.cost.breakdown;
        return last_breakdown_;
    }

private:
    TileCostAccountant accountant_;
    CycleBreakdown last_breakdown_;
};

/// Golden-fidelity decode step for one head: masked_attention's row loop
/// for row `position`, with absolute key positions mapped into the compact
/// layout. The compact rows are copies of the absolute rows and the
/// iteration stays ascending-j, so every float op matches golden() over
/// the full prefix.
Matrix<float> golden_step_row(const CompiledPlan& micro, const Matrix<float>& q_row,
                              int head, const Matrix<float>& k, const Matrix<float>& v,
                              float scale) {
    const StepGeometry& sg = micro.step();
    const int d = micro.head_dim();
    const HybridPattern& pattern = micro.pattern();
    const std::vector<int>& globals = pattern.global_tokens();
    const int t = sg.position;
    const auto compact_of = [&](int j) {
        if (j >= sg.window_lo) return sg.num_globals + (j - sg.window_lo);
        const auto pin = std::lower_bound(globals.begin(), globals.end(), j);
        SALO_ASSERT(pin != globals.end() && *pin == j);
        return static_cast<int>(pin - globals.begin());
    };
    std::vector<int> cols;
    std::vector<double> scores;
    for (int j = 0; j <= t; ++j)
        if (pattern.attends(t, j)) cols.push_back(j);
    Matrix<float> out(1, d, 0.0f);
    if (!cols.empty()) {
        double mx = -std::numeric_limits<double>::infinity();
        for (int j : cols) {
            const int cj = compact_of(j);
            double dot = 0.0;
            for (int x = 0; x < d; ++x)
                dot += static_cast<double>(q_row(head, x)) *
                       static_cast<double>(k(cj, x));
            dot *= scale;
            scores.push_back(dot);
            mx = std::max(mx, dot);
        }
        double sum = 0.0;
        for (double& sc : scores) {
            sc = std::exp(sc - mx);
            sum += sc;
        }
        SALO_ASSERT(sum > 0.0);
        for (std::size_t idx = 0; idx < cols.size(); ++idx) {
            const double w = scores[idx] / sum;
            const int cj = compact_of(cols[idx]);
            for (int x = 0; x < d; ++x)
                out(0, x) += static_cast<float>(w * static_cast<double>(v(cj, x)));
        }
    }
    return out;
}

}  // namespace

SaloEngine::SaloEngine() : SaloEngine(SaloConfig{}) {}

SaloEngine::SaloEngine(const SaloConfig& config)
    : config_(config), exp_unit_(config.exp_config), recip_unit_(config.recip_config),
      plan_cache_(static_cast<std::size_t>(std::max(1, config.plan_cache_capacity))) {
    config_.validate();
    if (config_.shared_plan_store)
        plan_cache_.attach_shared_store(config_.shared_plan_store);
}

ThreadPool& SaloEngine::pool() const {
    std::call_once(pool_once_, [this] {
        pool_ = std::make_unique<ThreadPool>(config_.effective_threads());
    });
    return *pool_;
}

CompiledPlanPtr SaloEngine::compile(const HybridPattern& pattern, int head_dim) const {
    return plan_cache_.get_or_compile(pattern, head_dim, config_);
}

PlanCacheStats SaloEngine::plan_cache_stats() const { return plan_cache_.stats(); }

SchedulePlan SaloEngine::plan(const HybridPattern& pattern, int head_dim) const {
    return schedule(pattern, config_.geometry, head_dim, config_.schedule_options);
}

SaloEngine::RunControl SaloEngine::run_control(const RunOptions& options) const {
    RunControl ctl;
    ctl.cancel = options.cancel.cancellable() ? &options.cancel : nullptr;
    ctl.has_deadline = options.deadline.has_value();
    if (options.deadline) ctl.deadline = *options.deadline;
    ctl.fault = options.fault_injector != nullptr ? options.fault_injector
                                                  : config_.fault_injector.get();
    return ctl;
}

void SaloEngine::check_compatible(const CompiledPlan& plan) const {
    SALO_EXPECTS(plan.geometry() == config_.geometry);
    SALO_EXPECTS(plan.options() == config_.schedule_options);
}

Matrix<float> SaloEngine::golden(const HybridPattern& pattern, const Matrix<float>& q,
                                 const Matrix<float>& k, const Matrix<float>& v,
                                 float scale) {
    return masked_attention(q, k, v, scale, pattern.attend_fn());
}

HeadResult SaloEngine::run_head_impl(const SchedulePlan& plan,
                                     const HybridPattern& pattern,
                                     const Matrix<float>& q, const Matrix<float>& k,
                                     const Matrix<float>& v, float scale,
                                     Fidelity fidelity, int threads,
                                     ParallelWorkspace* ws, const RunControl* ctl) const {
    const int n = q.rows();
    const int d = q.cols();
    SALO_EXPECTS(n == pattern.n());
    SALO_EXPECTS(k.rows() == n && v.rows() == n && k.cols() == d && v.cols() == d);
    SALO_EXPECTS(plan.n == n && plan.head_dim == d);

    if (fidelity == Fidelity::kGolden) {
        // No tile loop here: the head boundary (-1) is the only checkpoint.
        if (ctl != nullptr) ctl->check(-1);
        HeadResult result;
        result.output = golden(pattern, q, k, v, scale);
        return result;
    }

    // Quantize at the accelerator boundary. The 1/sqrt(d) scaling belongs to
    // Q on the host side, before the array; the quantizer applies it on the
    // fly instead of scaling a copy of Q.
    const Matrix<std::int8_t> qq = quantize_input(q, scale);
    const Matrix<std::int8_t> kq = quantize<InputFx>(k);
    const Matrix<std::int8_t> vq = quantize<InputFx>(v);

    // The reference datapath exists only in the sequential loop; honoring
    // the flag beats silently benchmarking the optimized path as "seed".
    const bool parallel_ok = !config_.reference_datapath;
    if (parallel_ok && threads > 1 && static_cast<int>(plan.tiles.size()) > 1) {
        if (ws != nullptr) return run_head_parallel(plan, fidelity, qq, kq, vq, *ws, ctl);
        ParallelWorkspace scratch_ws;
        return run_head_parallel(plan, fidelity, qq, kq, vq, scratch_ws, ctl);
    }
    return run_head_sequential(plan, fidelity, qq, kq, vq, ctl);
}

HeadResult SaloEngine::run_head_sequential(const SchedulePlan& plan, Fidelity fidelity,
                                           const Matrix<std::int8_t>& qq,
                                           const Matrix<std::int8_t>& kq,
                                           const Matrix<std::int8_t>& vq,
                                           const RunControl* ctl) const {
    const int n = qq.rows();
    const int d = qq.cols();
    const int num_tiles = static_cast<int>(plan.tiles.size());
    HeadResult result;
    WeightedSumModule wsm(n, d, recip_unit_);
    const CycleConfig ccfg = config_.cycle_config();
    TileAccountant accountant(config_, d);

    if (fidelity == Fidelity::kFunctional) {
        const TileExecutor exec(exp_unit_, recip_unit_, qq, kq, vq);
        if (config_.reference_datapath) {
            std::vector<TilePart> parts;
            for (int t = 0; t < num_tiles; ++t) {
                if (ctl != nullptr) ctl->check(t);
                const TileTask& tile = plan.tiles[static_cast<std::size_t>(t)];
                parts.clear();
                exec.run(tile, parts, result.stats.activity);
                for (const TilePart& p : parts) wsm.merge(p);
                const CycleBreakdown& b = accountant.account(tile, result.stats);
                result.stats.activity.pe_cycles +=
                    static_cast<std::int64_t>(tile.rows()) * tile.cols() * b.total();
            }
        } else {
            PartArena arena;
            PartScratch scratch;
            for (int t = 0; t < num_tiles; ++t) {
                if (ctl != nullptr) ctl->check(t);
                const TileTask& tile = plan.tiles[static_cast<std::size_t>(t)];
                arena.reset();
                exec.run(tile, arena, result.stats.activity, scratch);
                for (std::size_t i = 0; i < arena.used(); ++i) wsm.merge(arena.at(i));
                const CycleBreakdown& b = accountant.account(tile, result.stats);
                result.stats.activity.pe_cycles +=
                    static_cast<std::int64_t>(tile.rows()) * tile.cols() * b.total();
            }
        }
    } else {
        const CycleAccurateArray array(config_.geometry, ccfg, exp_unit_, recip_unit_, qq,
                                       kq, vq);
        std::vector<TilePart> parts;
        for (int t = 0; t < num_tiles; ++t) {
            if (ctl != nullptr) ctl->check(t);
            const TileTask& tile = plan.tiles[static_cast<std::size_t>(t)];
            parts.clear();
            array.run(tile, parts, result.stats.activity);
            for (const TilePart& p : parts) wsm.merge(p);
            accountant.account(tile, result.stats);
        }
    }

    result.output = wsm.finalize();
    return result;
}

// ---------------------------------------------------------------------------
// Tile-level parallel execution: tiles of ONE head run concurrently.
//
// Phase A  workers claim tiles from the pool's ticket counter and execute
//          them into per-lane part arenas, recording an (arena, range) span
//          per tile. No shared mutable state beyond the counter.
// Phase B  query rows are partitioned into balanced shards; each lane
//          replays the *full* part stream in schedule order and merges only
//          the parts of its shard. Per-query merge order is therefore
//          exactly the sequential order — bit-identical output for any
//          thread count and any tile->lane assignment.
// Phase C  cycle accounting runs on the calling thread in schedule order
//          (the load-overlap model is inherently sequential, but it is
//          O(tiles), not O(work)).
// ---------------------------------------------------------------------------
HeadResult SaloEngine::run_head_parallel(const SchedulePlan& plan, Fidelity fidelity,
                                         const Matrix<std::int8_t>& qq,
                                         const Matrix<std::int8_t>& kq,
                                         const Matrix<std::int8_t>& vq,
                                         ParallelWorkspace& ws,
                                         const RunControl* ctl) const {
    const int n = qq.rows();
    const int d = qq.cols();
    const int num_tiles = static_cast<int>(plan.tiles.size());
    HeadResult result;
    WeightedSumModule wsm(n, d, recip_unit_);
    const CycleConfig ccfg = config_.cycle_config();
    TileAccountant accountant(config_, d);
    ThreadPool& workers = pool();
    const int lanes = workers.lanes();

    ws.lane_activity.assign(static_cast<std::size_t>(lanes), ActivityStats{});
    std::vector<ActivityStats>& lane_activity = ws.lane_activity;
    ws.tile_bounds.resize(static_cast<std::size_t>(num_tiles));
    std::vector<QueryShard>& tile_bounds = ws.tile_bounds;

    // Phase B, shared by both fidelities: every shard replays the full tile
    // list in schedule order — skipping tiles whose part queries fall
    // outside its range — and merges only its own queries, so per-query
    // merge order equals the sequential order for any lane count.
    auto replay_shards = [&](auto&& for_each_part_of_tile) {
        if (ws.shards.empty()) ws.shards = partition_query_rows(plan, lanes);
        const std::vector<QueryShard>& shards = ws.shards;
        workers.parallel_for(static_cast<int>(shards.size()), [&](int s, int) {
            const QueryShard shard = shards[static_cast<std::size_t>(s)];
            for (int t = 0; t < num_tiles; ++t) {
                const QueryShard bounds = tile_bounds[static_cast<std::size_t>(t)];
                if (bounds.hi <= shard.lo || bounds.lo >= shard.hi) continue;
                for_each_part_of_tile(t, [&](const TilePart& p) {
                    wsm.merge_shard(p, shard.lo, shard.hi);
                });
            }
        });
    };

    if (fidelity == Fidelity::kFunctional) {
        const TileExecutor exec(exp_unit_, recip_unit_, qq, kq, vq);
        ws.arenas.resize(static_cast<std::size_t>(lanes));
        for (PartArena& a : ws.arenas) a.reset();
        ws.scratch.resize(static_cast<std::size_t>(lanes));
        ws.spans.resize(static_cast<std::size_t>(num_tiles));
        std::vector<PartArena>& arenas = ws.arenas;
        std::vector<PartScratch>& scratch = ws.scratch;
        std::vector<PartSpan>& spans = ws.spans;

        // Larger claim chunks cut ticket-counter contention; tiles are small.
        const int chunk = std::max(1, num_tiles / (lanes * 8));
        workers.parallel_for(
            num_tiles,
            [&](int t, int lane) {
                // Tile boundary: cancellation/deadline/fault checks. A
                // throw fails only this run — sibling tiles of the same
                // region still execute (pool fault isolation), and the
                // first error is rethrown to this run's caller after the
                // region completes.
                if (ctl != nullptr) ctl->check(t);
                PartArena& arena = arenas[static_cast<std::size_t>(lane)];
                const auto first = static_cast<std::uint32_t>(arena.used());
                exec.run(plan.tiles[static_cast<std::size_t>(t)], arena,
                         lane_activity[static_cast<std::size_t>(lane)],
                         scratch[static_cast<std::size_t>(lane)]);
                PartSpan& span = spans[static_cast<std::size_t>(t)];
                span = PartSpan{lane, first,
                                static_cast<std::uint32_t>(arena.used() - first)};
                tile_bounds[static_cast<std::size_t>(t)] =
                    part_query_bounds([&](auto&& visit) {
                        for (std::uint32_t i = 0; i < span.count; ++i)
                            visit(arena.at(first + i));
                    });
            },
            chunk);

        replay_shards([&](int t, auto&& merge) {
            const PartSpan& span = spans[static_cast<std::size_t>(t)];
            const PartArena& arena = arenas[static_cast<std::size_t>(span.lane)];
            for (std::uint32_t i = 0; i < span.count; ++i)
                merge(arena.at(span.first + i));
        });

        for (const TileTask& tile : plan.tiles) {
            const CycleBreakdown& b = accountant.account(tile, result.stats);
            result.stats.activity.pe_cycles +=
                static_cast<std::int64_t>(tile.rows()) * tile.cols() * b.total();
        }
    } else {
        const CycleAccurateArray array(config_.geometry, ccfg, exp_unit_, recip_unit_, qq,
                                       kq, vq);
        ws.tile_parts.resize(static_cast<std::size_t>(num_tiles));
        for (auto& parts : ws.tile_parts) parts.clear();
        std::vector<std::vector<TilePart>>& tile_parts = ws.tile_parts;

        workers.parallel_for(num_tiles, [&](int t, int lane) {
            if (ctl != nullptr) ctl->check(t);
            std::vector<TilePart>& parts = tile_parts[static_cast<std::size_t>(t)];
            array.run(plan.tiles[static_cast<std::size_t>(t)], parts,
                      lane_activity[static_cast<std::size_t>(lane)]);
            tile_bounds[static_cast<std::size_t>(t)] =
                part_query_bounds([&](auto&& visit) {
                    for (const TilePart& p : parts) visit(p);
                });
        });

        replay_shards([&](int t, auto&& merge) {
            for (const TilePart& p : tile_parts[static_cast<std::size_t>(t)]) merge(p);
        });

        for (int t = 0; t < num_tiles; ++t)
            accountant.account(plan.tiles[static_cast<std::size_t>(t)], result.stats);
    }

    for (const ActivityStats& a : lane_activity) result.stats.activity += a;
    result.output = wsm.finalize();
    return result;
}

// ---------------------------------------------------------------------------
// Incremental decode: one query row against the compact K/V layout.
// ---------------------------------------------------------------------------

template <typename T>
HeadResult SaloEngine::run_step_head(const CompiledPlan& micro, const Matrix<float>& q_row,
                                     int head, const Matrix<T>& k, const Matrix<T>& v,
                                     float scale, Fidelity fidelity,
                                     const RunControl* ctl) const {
    const int d = micro.head_dim();
    if constexpr (std::is_same_v<T, float>) {
        if (fidelity == Fidelity::kGolden) {
            if (ctl != nullptr) ctl->check(-1);
            HeadResult result;
            result.output = golden_step_row(micro, q_row, head, k, v, scale);
            return result;
        }
    }

    // Quantization is elementwise, so the single scaled query row and the
    // compact K/V rows quantize to exactly the bits the full-prefix run
    // produces for the same rows (int8 K/V arrive already quantized, by the
    // same kernel at append). A step is a one-row Q, so the sequential tile
    // loop runs it unchanged.
    Matrix<std::int8_t> qq(1, d);
    kernels::quantize_i8(q_row.row(head).data(), static_cast<std::size_t>(d), scale,
                         qq.data().data());
    if constexpr (std::is_same_v<T, float>)
        return run_head_sequential(micro.plan(), fidelity, qq, quantize<InputFx>(k),
                                   quantize<InputFx>(v), ctl);
    else
        return run_head_sequential(micro.plan(), fidelity, qq, k, v, ctl);
}

CompiledPlanPtr SaloEngine::compile_step(const HybridPattern& pattern,
                                         int head_dim) const {
    return plan_cache_.get_or_derive_step(pattern, head_dim, config_);
}

template <typename T>
StepResult SaloEngine::run_step(const CompiledPlan& micro, const Matrix<float>& q_row,
                                const Tensor3<T>& k, const Tensor3<T>& v, float scale,
                                const RunOptions& options) const {
    check_compatible(micro);
    SALO_EXPECTS(micro.is_step());
    const StepGeometry& sg = micro.step();
    const int heads = q_row.rows();
    const int d = micro.head_dim();
    SALO_EXPECTS(heads >= 1);
    SALO_EXPECTS(q_row.cols() == d);
    SALO_EXPECTS(k.count() == heads && v.count() == heads);
    SALO_EXPECTS(k.rows() == sg.compact_rows && v.rows() == sg.compact_rows);
    SALO_EXPECTS(k.cols() == d && v.cols() == d);

    const Fidelity fidelity = options.fidelity.value_or(config_.fidelity);
    // The golden oracle is float attention; quantized K/V cannot feed it.
    if constexpr (!std::is_same_v<T, float>) SALO_EXPECTS(fidelity != Fidelity::kGolden);
    const RunControl ctl_storage = run_control(options);
    const RunControl* ctl = ctl_storage.active() ? &ctl_storage : nullptr;

    StepResult result;
    result.position = sg.position;
    result.output = Tensor3<float>(heads, 1, d);

    const int threads =
        options.thread_budget <= 0 ? config_.effective_threads() : options.thread_budget;
    std::vector<HeadResult> head_results(static_cast<std::size_t>(heads));
    if (threads > 1 && heads > 1) {
        // Heads are independent; a step's per-head tile loop is tiny, so a
        // head is the only sensible work quantum.
        pool().parallel_for(heads, [&](int h, int) {
            head_results[static_cast<std::size_t>(h)] =
                run_step_head(micro, q_row, h, k[h], v[h], scale, fidelity, ctl);
        });
    } else {
        for (int h = 0; h < heads; ++h)
            head_results[static_cast<std::size_t>(h)] =
                run_step_head(micro, q_row, h, k[h], v[h], scale, fidelity, ctl);
    }

    for (int h = 0; h < heads; ++h) {
        result.output[h] = std::move(head_results[static_cast<std::size_t>(h)].output);
        result.stats += head_results[static_cast<std::size_t>(h)].stats;
    }
    return result;
}

template StepResult SaloEngine::run_step<float>(const CompiledPlan&, const Matrix<float>&,
                                                const Tensor3<float>&, const Tensor3<float>&,
                                                float, const RunOptions&) const;
template StepResult SaloEngine::run_step<std::int8_t>(const CompiledPlan&,
                                                      const Matrix<float>&,
                                                      const Tensor3<std::int8_t>&,
                                                      const Tensor3<std::int8_t>&, float,
                                                      const RunOptions&) const;

// ---------------------------------------------------------------------------
// Compiled-plan entry points.
// ---------------------------------------------------------------------------

HeadResult SaloEngine::run_head(const CompiledPlan& plan, const Matrix<float>& q,
                                const Matrix<float>& k, const Matrix<float>& v,
                                float scale) const {
    check_compatible(plan);
    return run_head_impl(plan.plan(), plan.pattern(), q, k, v, scale, config_.fidelity,
                         config_.effective_threads());
}

LayerResult SaloEngine::run(const CompiledPlan& plan, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v,
                            float scale) const {
    return run(plan, q, k, v, scale, config_.fidelity, 0);
}

LayerResult SaloEngine::run(const CompiledPlan& plan, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                            Fidelity fidelity, int thread_budget) const {
    RunOptions options;
    options.fidelity = fidelity;
    options.thread_budget = thread_budget;
    return run(plan, q, k, v, scale, options);
}

LayerResult SaloEngine::run(const CompiledPlan& plan, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                            const RunOptions& options) const {
    check_compatible(plan);
    SALO_EXPECTS(q.count() == k.count() && k.count() == v.count());
    SALO_EXPECTS(q.count() >= 1);
    const Fidelity fidelity = options.fidelity.value_or(config_.fidelity);
    const SchedulePlan& p = plan.plan();
    const HybridPattern& pattern = plan.pattern();
    LayerResult result;
    result.output = Tensor3<float>(q.count(), q.rows(), q.cols());
    result.schedule = p.stats;

    // Resolve the robustness hooks once; a null control keeps the tile
    // loops free of clock reads and atomic loads (the common case).
    const RunControl ctl_storage = run_control(options);
    const RunControl* ctl = ctl_storage.active() ? &ctl_storage : nullptr;

    const int heads = q.count();
    const int threads =
        options.thread_budget <= 0 ? config_.effective_threads() : options.thread_budget;
    std::vector<HeadResult> head_results(static_cast<std::size_t>(heads));

    if (threads == 1) {
        for (int h = 0; h < heads; ++h)
            head_results[static_cast<std::size_t>(h)] =
                run_head_impl(p, pattern, q[h], k[h], v[h], scale, fidelity, 1, nullptr,
                              ctl);
    } else if (!config_.reference_datapath && fidelity != Fidelity::kGolden &&
               (static_cast<int>(p.tiles.size()) >= 2 * threads || heads == 1)) {
        // (Golden fidelity has no tiles to parallelize — it goes through the
        // head-parallel branch below, like the original engine striped it.)
        // Large plans: tile-level parallelism inside each head dominates
        // (near-perfect balance even when heads % threads != 0). One
        // workspace serves every head so arenas keep their capacity.
        ParallelWorkspace ws;
        for (int h = 0; h < heads; ++h)
            head_results[static_cast<std::size_t>(h)] =
                run_head_impl(p, pattern, q[h], k[h], v[h], scale, fidelity, threads, &ws,
                              ctl);
    } else {
        // Small plans — and the reference datapath, which exists only in
        // the sequential tile loop but still parallelizes across heads,
        // like the original engine did: a head is the work quantum. Heads
        // are independent, so results are identical either way; each task
        // runs the sequential path (the two levels never nest).
        pool().parallel_for(heads, [&](int h, int) {
            head_results[static_cast<std::size_t>(h)] =
                run_head_impl(p, pattern, q[h], k[h], v[h], scale, fidelity, 1, nullptr,
                              ctl);
        });
    }

    for (int h = 0; h < heads; ++h) {
        result.output[h] = std::move(head_results[static_cast<std::size_t>(h)].output);
        result.stats += head_results[static_cast<std::size_t>(h)].stats;
    }
    return result;
}

// ---------------------------------------------------------------------------
// Legacy one-shot API: thin shims over compile + run. The engine's
// PlanCache makes repeated calls with the same pattern/geometry free of
// scheduler work.
// ---------------------------------------------------------------------------

HeadResult SaloEngine::run_head(const HybridPattern& pattern, const Matrix<float>& q,
                                const Matrix<float>& k, const Matrix<float>& v,
                                float scale) const {
    return run_head(*compile(pattern, q.cols()), q, k, v, scale);
}

LayerResult SaloEngine::run(const HybridPattern& pattern, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v,
                            float scale) const {
    SALO_EXPECTS(q.count() >= 1);
    return run(*compile(pattern, q.cols()), q, k, v, scale);
}

}  // namespace salo
