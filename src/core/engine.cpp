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

/// Sequential cycle accounting shared by both datapath fidelities, a thin
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
                                     Fidelity fidelity, const RunControl* ctl) const {
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
    return run_head_sequential(plan, fidelity, quantize_input(q, scale),
                               quantize<InputFx>(k), quantize<InputFx>(v), ctl);
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

template <typename RunHead>
SimStats SaloEngine::run_heads(int heads, int thread_budget, Tensor3<float>& out,
                               RunHead&& run_one) const {
    const int threads = thread_budget <= 0 ? config_.effective_threads() : thread_budget;
    // Heads are independent attention problems and the only parallel work
    // quantum: each lane runs whole heads through the sequential tile loop,
    // merging every tile's parts in schedule order while they are still hot.
    // That is the 1-lane merge order, so results are bit-identical for every
    // lane count, and SimStats are integer sums.
    std::vector<SimStats> stats(static_cast<std::size_t>(heads));
    const auto run_into = [&](int h) {
        HeadResult r = run_one(h);
        out[h] = std::move(r.output);
        stats[static_cast<std::size_t>(h)] = r.stats;
    };
    if (threads > 1 && heads > 1)
        pool().parallel_for(heads, [&](int h, int) { run_into(h); });
    else
        for (int h = 0; h < heads; ++h) run_into(h);
    SimStats total;
    for (const SimStats& s : stats) total += s;
    return total;
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

    result.stats = run_heads(heads, options.thread_budget, result.output, [&](int h) {
        return run_step_head(micro, q_row, h, k[h], v[h], scale, fidelity, ctl);
    });
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
    return run_head_impl(plan.plan(), plan.pattern(), q, k, v, scale, config_.fidelity);
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

    result.stats = run_heads(q.count(), options.thread_budget, result.output, [&](int h) {
        return run_head_impl(p, pattern, q[h], k[h], v[h], scale, fidelity, ctl);
    });
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
