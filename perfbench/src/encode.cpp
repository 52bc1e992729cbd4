// encode-longformer4096: one caller running back-to-back full
// Longformer-Base-4096 layers (12 heads x d64, functional fidelity) through
// SaloEngine::run(plan, ...) in a closed loop. Nearly all host time is the
// engine and the sim kernels, so kernel and lane-scheduling changes show
// here and serving changes should not.
#include <memory>

#include "common.hpp"
#include "numeric/quantize.hpp"
#include "sim/tile_executor.hpp"
#include "sim/wsm.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

namespace {

using namespace salo;

/// Modeled cycles of one Longformer-Base-4096 layer under the default
/// SaloConfig. Cycle accounting depends only on the schedule, so the value
/// holds for every seed; a change that moves it changed the modeled
/// hardware, not the simulator's speed.
constexpr std::int64_t kLayerCycles = 6384288;

/// Host time of the engine's sequential functional path split by module:
/// the same public calls SaloEngine::run makes at thread budget 1
/// (quantize, TileExecutor::run, WeightedSumModule::merge/finalize,
/// TileCostAccountant::account), each timed from the outside.
struct LayerParts {
    double quantize_ms = 0.0;
    double tile_exec_ms = 0.0;
    double wsm_merge_ms = 0.0;
    double account_ms = 0.0;
    std::uint64_t digest = 0;
};

LayerParts decomposed_layer(const SaloConfig& config, const CompiledPlan& plan,
                            const QkvSet& qkv, float scale, Tracer& tracer) {
    LayerParts parts;
    const PwlExp exp_unit(config.exp_config);
    const Reciprocal recip_unit(config.recip_config);
    const SchedulePlan& schedule = plan.plan();
    const int heads = qkv.q.count();
    Tensor3<float> output(heads, qkv.q.rows(), qkv.q.cols());
    std::int64_t cycles = 0;
    Clock::duration exec{}, merge{}, account{};
    for (int h = 0; h < heads; ++h) {
        const Clock::time_point q0 = Clock::now();
        Matrix<float> q_scaled = qkv.q[h];
        for (float& x : q_scaled.data()) x *= scale;
        const Matrix<std::int8_t> qq = quantize<InputFx>(q_scaled);
        const Matrix<std::int8_t> kq = quantize<InputFx>(qkv.k[h]);
        const Matrix<std::int8_t> vq = quantize<InputFx>(qkv.v[h]);
        const Clock::time_point q1 = Clock::now();
        parts.quantize_ms += ms_between(q0, q1);
        tracer.record("numeric.quantize", q0, q1, h);

        const TileExecutor exec_unit(exp_unit, recip_unit, qq, kq, vq);
        WeightedSumModule wsm(qq.rows(), qq.cols(), recip_unit);
        TileCostAccountant accountant(config.tile_cost_params(qq.cols()));
        PartArena arena;
        PartScratch scratch;
        ActivityStats activity;
        for (const TileTask& tile : schedule.tiles) {
            const Clock::time_point a = Clock::now();
            arena.reset();
            exec_unit.run(tile, arena, activity, scratch);
            const Clock::time_point b = Clock::now();
            for (std::size_t i = 0; i < arena.used(); ++i) wsm.merge(arena.at(i));
            const Clock::time_point c = Clock::now();
            cycles += accountant.account(tile).cycles;
            const Clock::time_point d = Clock::now();
            exec += b - a;
            merge += c - b;
            account += d - c;
        }
        const Clock::time_point f0 = Clock::now();
        output[h] = wsm.finalize();
        const Clock::time_point f1 = Clock::now();
        merge += f1 - f0;
        // The tile loop interleaves three modules per tile; one span per head
        // covers it, and the per-module totals are the metrics.
        tracer.record("sim.tile_loop", q1, f1, h);
    }
    const auto to_ms = [](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
    };
    parts.tile_exec_ms = to_ms(exec);
    parts.wsm_merge_ms = to_ms(merge);
    parts.account_ms = to_ms(account);
    parts.digest = result_digest(output, cycles);
    return parts;
}

}  // namespace

std::uint64_t encode_inputs_digest(std::uint64_t seed) {
    const QkvSet qkv = make_qkv(longformer_base_4096(), seed);
    return result_digest(qkv.q, 0) ^ result_digest(qkv.k, 1) ^ result_digest(qkv.v, 2);
}

RunResult run_encode(const WorkloadArgs& args) {
    RunResult out;
    Tracer tracer(args.trace);
    const AttentionWorkload lf = longformer_base_4096();
    const float scale = lf.scale();
    const int lanes = bench_lanes();
    SaloConfig config;
    config.num_threads = lanes;

    // Set-up: inputs, a fresh engine (pool + plan cache), the compiled plan,
    // and one warm-up layer so pool start and arena growth stay out of the
    // timed loop.
    std::unique_ptr<SaloEngine> engine;
    CompiledPlanPtr plan;
    QkvSet qkv;
    std::vector<double> compile_ms;
    const double setup_s = median_setup_s([&] {
        engine.reset();
        qkv = make_qkv(lf, args.seed);
        engine = std::make_unique<SaloEngine>(config);
        const Clock::time_point c0 = Clock::now();
        plan = engine->compile(lf.pattern, lf.head_dim);
        compile_ms.push_back(ms_between(c0, Clock::now()));
        (void)engine->run(*plan, qkv.q, qkv.k, qkv.v, scale);
    });
    const PlanCacheStats cache_after_setup = engine->plan_cache_stats();

    // Reference: the one-shot sequential engine on the same inputs.
    SaloConfig sequential_config = config;
    sequential_config.num_threads = 1;
    const SaloEngine sequential(sequential_config);
    const LayerResult reference = sequential.run(lf.pattern, qkv.q, qkv.k, qkv.v, scale);
    const std::uint64_t reference_digest =
        result_digest(reference.output, reference.stats.cycles);
    const std::int64_t cycles = reference.stats.cycles;
    if (cycles != kLayerCycles) out.correct = false;

    // Timed closed loop. In a traced run every other layer records its span,
    // so traced and untraced layers interleave and their medians give the
    // tracing overhead.
    std::vector<double> layer_ms, traced_ms, untraced_ms;
    double busy_ms = 0.0;
    reset_peak_rss();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    for (std::int64_t i = 0; Clock::now() < deadline || i < 4; ++i) {
        const bool traced = args.trace && i % 2 == 1;
        ++out.attempted;
        const Clock::time_point t0 = Clock::now();
        try {
            const LayerResult r = engine->run(*plan, qkv.q, qkv.k, qkv.v, scale);
            const Clock::time_point t1 = Clock::now();
            if (traced) tracer.record("engine.run", t0, t1, i);
            const double ms = ms_between(t0, t1);
            busy_ms += ms;
            layer_ms.push_back(ms);
            (traced ? traced_ms : untraced_ms).push_back(ms);
            // Checked after the layer's clock stopped.
            if (result_digest(r.output, r.stats.cycles) != reference_digest) {
                ++out.failed;
                out.correct = false;
            }
        } catch (const std::exception&) {
            ++out.failed;
        }
    }

    const double p50 = percentile(layer_ms, 0.5);
    out.end_to_end["setup_s"] = {setup_s, "s"};
    out.end_to_end["latency_ms_p50"] = {p50, "ms"};
    out.end_to_end["latency_ms_tail"] = {percentile(layer_ms, 0.85), "ms"};
    out.end_to_end["throughput_per_s"] = {
        busy_ms > 0.0 ? 1000.0 * static_cast<double>(layer_ms.size()) / busy_ms : 0.0, "1/s"};
    out.end_to_end["sim_cycles"] = {static_cast<double>(cycles), "cycles"};
    out.aliases = {{"layer_ms_p50", "latency_ms_p50"},
                   {"layer_ms_p85", "latency_ms_tail"},
                   {"layers_per_s", "throughput_per_s"}};
    out.notes["latency_unit"] = "one full layer (12 heads), closed loop, 1 caller";
    out.notes["tail_percentile"] = "p85";
    out.notes["samples"] = std::to_string(layer_ms.size());
    out.notes["samples_beyond_tail"] = std::to_string(samples_beyond(layer_ms, 0.85));
    out.notes["engine_lanes"] = std::to_string(lanes);

    const PlanCacheStats cache = engine->plan_cache_stats();
    out.per_layer["engine.lanes"] = {static_cast<double>(lanes), "count"};
    out.per_layer["scheduler.compile_ms"] = {percentile(compile_ms, 0.5), "ms"};
    out.per_layer["scheduler.tiles"] = {
        static_cast<double>(plan->schedule_stats().total_tiles()), "count"};
    add_plan_cache_metrics(out, cache_after_setup, cache);

    if (args.trace) {
        out.per_layer["trace.overhead_share"] = {
            percentile(traced_ms, 0.5) / percentile(untraced_ms, 0.5) - 1.0, "share"};

        // A plan-cache hit, as every compile() of an already-seen shape is.
        std::vector<double> lookup_us;
        for (int i = 0; i < 201; ++i) {
            const Clock::time_point a = Clock::now();
            (void)engine->compile(lf.pattern, lf.head_dim);
            lookup_us.push_back(us_between(a, Clock::now()));
        }
        out.per_layer["plan_cache.lookup_us"] = {percentile(lookup_us, 0.5), "us"};

        // The whole layer on one lane, then the same work split by module.
        std::vector<double> run_1t, quantize, exec, merge, account;
        for (int rep = 0; rep < 3; ++rep) {
            const Clock::time_point a = Clock::now();
            const LayerResult r =
                engine->run(*plan, qkv.q, qkv.k, qkv.v, scale, Fidelity::kFunctional, 1);
            const Clock::time_point b = Clock::now();
            tracer.record("engine.run_1t", a, b, rep);
            run_1t.push_back(ms_between(a, b));
            if (result_digest(r.output, r.stats.cycles) != reference_digest)
                out.correct = false;

            const LayerParts parts = decomposed_layer(config, *plan, qkv, scale, tracer);
            if (parts.digest != reference_digest) out.correct = false;
            quantize.push_back(parts.quantize_ms);
            exec.push_back(parts.tile_exec_ms);
            merge.push_back(parts.wsm_merge_ms);
            account.push_back(parts.account_ms);
        }
        const double run_1t_ms = percentile(run_1t, 0.5);
        const double quantize_ms = percentile(quantize, 0.5);
        const double exec_ms = percentile(exec, 0.5);
        const double merge_ms = percentile(merge, 0.5);
        const double account_ms = percentile(account, 0.5);
        out.per_layer["engine.run_1t_ms"] = {run_1t_ms, "ms"};
        out.per_layer["numeric.quantize_ms"] = {quantize_ms, "ms"};
        out.per_layer["sim.tile_exec_ms"] = {exec_ms, "ms"};
        out.per_layer["sim.wsm_merge_ms"] = {merge_ms, "ms"};
        out.per_layer["sim.account_ms"] = {account_ms, "ms"};
        out.per_layer["engine.unattributed_ms"] = {
            run_1t_ms - quantize_ms - exec_ms - merge_ms - account_ms, "ms"};
        out.per_layer["engine.parallel_efficiency"] = {
            run_1t_ms / (static_cast<double>(lanes) * percentile(untraced_ms, 0.5)),
            "share"};
        if (!tracer.write(args.out_dir + "/trace-encode-longformer4096-seed" +
                          std::to_string(args.seed) + ".json"))
            out.notes["trace_file"] = "not written";
    }
    out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return out;
}

}  // namespace perfbench
