#include "core/engine.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "attention/golden.hpp"
#include "numeric/quantize.hpp"
#include "sim/cycle_accurate.hpp"
#include "sim/tile_costs.hpp"
#include "sim/tile_executor.hpp"
#include "sim/wsm.hpp"

namespace salo {

namespace {

/// One encode head's shape contract on a full (non-step) plan.
void expect_head_shapes(const CompiledPlan& plan, const Matrix<float>& q,
                        const Matrix<float>& k, const Matrix<float>& v) {
    const int n = q.rows();
    const int d = q.cols();
    SALO_EXPECTS(!plan.is_step());
    SALO_EXPECTS(n == plan.n() && d == plan.head_dim());
    SALO_EXPECTS(k.rows() == n && v.rows() == n && k.cols() == d && v.cols() == d);
}

}  // namespace

SaloEngine::SaloEngine() : SaloEngine(SaloConfig{}) {}

SaloEngine::SaloEngine(const SaloConfig& config, std::shared_ptr<PlanCache> plan_cache)
    : config_(config), exp_unit_(config.exp_config), recip_unit_(config.recip_config),
      plan_cache_(plan_cache ? std::move(plan_cache)
                             : std::make_shared<PlanCache>(static_cast<std::size_t>(
                                   std::max(1, config.plan_cache_capacity)))) {
    config_.validate();
}

ThreadPool& SaloEngine::pool() const {
    std::call_once(pool_once_, [this] {
        pool_ = std::make_unique<ThreadPool>(config_.effective_threads());
    });
    return *pool_;
}

CompiledPlanPtr SaloEngine::compile(const HybridPattern& pattern, int head_dim) const {
    return plan_cache_->get_or_compile(pattern, head_dim, config_);
}

PlanCacheStats SaloEngine::plan_cache_stats() const { return plan_cache_->stats(); }

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

template <typename T>
HeadResult SaloEngine::run_one_head(const CompiledPlan& plan, const Matrix<float>& q,
                                    const Matrix<T>& k, const Matrix<T>& v, float scale,
                                    Fidelity fidelity, const RunControl* ctl) const {
    if constexpr (std::is_same_v<T, float>) {
        if (fidelity == Fidelity::kGolden) {
            // No tile loop here: the head boundary (-1) is the only checkpoint.
            if (ctl != nullptr) ctl->check(-1);
            HeadResult result;
            if (!plan.is_step()) {
                result.output = golden(plan.pattern(), q, k, v, scale);
                return result;
            }
            // A decode step: the one query row against the compact
            // [pinned globals][window] K/V. Row c < num_globals is the
            // pinned copy of global c, row num_globals + i is position
            // window_lo + i. A global at or above window_lo also sits in
            // the window, so its pinned copy is skipped. The surviving rows
            // ascend in absolute position, so every float op matches
            // golden() over the full prefix.
            const StepGeometry& sg = plan.step();
            const HybridPattern& pattern = plan.pattern();
            const std::vector<int>& globals = pattern.global_tokens();
            result.output = masked_attention(q, k, v, scale, [&](int, int c) {
                if (c >= sg.num_globals)
                    return pattern.attends(sg.position, sg.window_lo + (c - sg.num_globals));
                const int j = globals[static_cast<std::size_t>(c)];
                return j < sg.window_lo && pattern.attends(sg.position, j);
            });
            return result;
        }
        return run_one_head(plan, q, quantize<InputFx>(k), quantize<InputFx>(v), scale,
                            fidelity, ctl);
    } else {
        // The golden oracle is float attention; quantized K/V cannot feed it.
        SALO_EXPECTS(fidelity != Fidelity::kGolden);
        // Quantize at the accelerator boundary. The 1/sqrt(d) scaling belongs
        // to Q on the host side, before the array; the quantizer applies it
        // on the fly instead of scaling a copy of Q. Quantization is
        // elementwise, so a step's query row and compact K/V rows quantize
        // to exactly the bits the full-prefix run produces for those rows.
        const Matrix<std::int8_t> qq = quantize_input(q, scale);
        const int d = qq.cols();
        const SchedulePlan& schedule = plan.plan();
        HeadResult result;
        SimStats& stats = result.stats;
        WeightedSumModule wsm(qq.rows(), d, recip_unit_);
        // Tiles are accounted strictly in schedule order: the double-buffered
        // load overlap and the inter-tile stage-3 pipelining both depend on
        // the previous tile.
        TileCostAccountant accountant(config_.tile_cost_params(d));
        const TileExecutor exec(exp_unit_, recip_unit_, qq, k, v);
        std::optional<CycleAccurateArray> array;
        if (fidelity == Fidelity::kCycleAccurate)
            array.emplace(config_.geometry, config_.cycle_config(), exp_unit_, recip_unit_, qq,
                          k, v);
        PartScratch scratch;
        std::vector<TilePart> parts;
        const int num_tiles = static_cast<int>(schedule.tiles.size());
        for (int t = 0; t < num_tiles; ++t) {
            if (ctl != nullptr) ctl->check(t);
            const TileTask& tile = schedule.tiles[static_cast<std::size_t>(t)];
            const TileCostAccountant::Step step = accountant.account(tile);
            stats.cycles += step.cycles;
            ++stats.tiles;
            for (int s = 0; s < 5; ++s)
                stats.stage_totals.stage[s] += step.cost.breakdown.stage[s];
            if (array) {
                // The array measures its own pe_cycles.
                parts.clear();
                array->run(tile, parts, stats.activity);
                for (const TilePart& p : parts) wsm.merge(p);
            } else {
                // Each part merges the moment its stage 5 finishes.
                exec.run(tile, wsm, stats.activity, scratch);
                stats.activity.pe_cycles += static_cast<std::int64_t>(tile.rows()) *
                                            tile.cols() * step.cost.compute_cycles;
            }
        }
        // The head's output slice is allocated and written here, on its lane.
        result.output = Matrix<float>(qq.rows(), d);
        wsm.finalize_into(result.output);
        return result;
    }
}

template <typename RunHead>
SimStats SaloEngine::run_heads(int heads, int thread_budget, Tensor3<float>& out,
                               RunHead&& run_one) const {
    const int threads = thread_budget <= 0 ? config_.effective_threads() : thread_budget;
    // Heads are independent attention problems and the only parallel work
    // quantum: each lane runs whole heads through the sequential tile loop,
    // merging every part in schedule order the moment it is made. That is
    // the 1-lane merge order, so results are bit-identical for every lane
    // count, and SimStats are integer sums. Each lane builds its heads'
    // output slices; the caller only moves them into `out`, so a run that
    // throws leaves `out` untouched.
    std::vector<Matrix<float>> slices(static_cast<std::size_t>(heads));
    std::vector<SimStats> stats(static_cast<std::size_t>(heads));
    const auto run_into = [&](int h) {
        HeadResult r = run_one(h);
        slices[static_cast<std::size_t>(h)] = std::move(r.output);
        stats[static_cast<std::size_t>(h)] = r.stats;
    };
    if (threads > 1 && heads > 1)
        pool().parallel_for(heads, [&](int h, int) { run_into(h); });
    else
        for (int h = 0; h < heads; ++h) run_into(h);
    out = Tensor3<float>(std::move(slices));
    SimStats total;
    for (const SimStats& s : stats) total += s;
    return total;
}

// ---------------------------------------------------------------------------
// Incremental decode: one query row against the compact K/V layout.
// ---------------------------------------------------------------------------

CompiledPlanPtr SaloEngine::compile_step(const HybridPattern& pattern,
                                         int head_dim) const {
    return plan_cache_->get_or_derive_step(pattern, head_dim, config_);
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
    const RunControl ctl_storage = run_control(options);
    const RunControl* ctl = ctl_storage.active() ? &ctl_storage : nullptr;

    StepResult result;
    result.position = sg.position;

    result.stats = run_heads(heads, options.thread_budget, result.output, [&](int h) {
        Matrix<float> q(1, d);
        std::copy(q_row.row(h).begin(), q_row.row(h).end(), q.data().begin());
        return run_one_head(micro, q, k[h], v[h], scale, fidelity, ctl);
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
    expect_head_shapes(plan, q, k, v);
    const RunControl ctl = run_control(RunOptions{});
    return run_one_head(plan, q, k, v, scale, config_.fidelity, ctl.active() ? &ctl : nullptr);
}

LayerResult SaloEngine::run(const CompiledPlan& plan, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                            const RunOptions& options) const {
    check_compatible(plan);
    SALO_EXPECTS(q.count() == k.count() && k.count() == v.count());
    SALO_EXPECTS(q.count() >= 1);
    const Fidelity fidelity = options.fidelity.value_or(config_.fidelity);
    LayerResult result;
    result.schedule = plan.schedule_stats();

    // Resolve the robustness hooks once; a null control keeps the tile
    // loops free of clock reads and atomic loads (the common case).
    const RunControl ctl_storage = run_control(options);
    const RunControl* ctl = ctl_storage.active() ? &ctl_storage : nullptr;

    result.stats = run_heads(q.count(), options.thread_budget, result.output, [&](int h) {
        expect_head_shapes(plan, q[h], k[h], v[h]);
        return run_one_head(plan, q[h], k[h], v[h], scale, fidelity, ctl);
    });
    return result;
}

}  // namespace salo
