// decode-4096streams: 4096 DecodeSession streams (64-wide causal band + 2
// global tokens, 2 heads x d32) stepped in lockstep waves. Each step is
// tiny, so K/V append/assemble, micro-plan lookup and dispatch dominate
// and the full-layer tile path is bypassed.
#include <sys/prctl.h>

#include <cmath>
#include <memory>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

using namespace salo;

constexpr int kStreams = 4096;
/// Steps per stream: past the 64-position window, so the last 16 steps of
/// every stream also exercise ring eviction.
constexpr int kSteps = 80;
constexpr int kClasses = 64;  ///< seeded input classes, stream i uses class i % 64
constexpr int kHeads = 2;
constexpr int kHeadDim = 32;
/// Submissions between two readiness sweeps while a wave is being sent.
constexpr std::size_t kSweepEvery = 128;
/// Modeled cycles of one stream's kSteps steps, summed. Cycle accounting
/// depends only on the micro-plans, so this holds for every seed.
constexpr std::int64_t kStreamCycles = 68588;

const std::vector<Band>& bands() {
    static const std::vector<Band> b = {Band{-63, 64, 1, 0}};
    return b;
}

HybridPattern stream_pattern(int length) {
    std::vector<int> globals;
    for (int g : {0, 1})
        if (g < length) globals.push_back(g);
    return HybridPattern(length, bands(), globals);
}

float step_scale() { return 1.0f / std::sqrt(static_cast<float>(kHeadDim)); }

struct InputClass {
    Tensor3<float> q, k, v;  // [heads][kSteps][d]
};

Matrix<float> row_of(const Tensor3<float>& all, int t) {
    Matrix<float> row(kHeads, kHeadDim, 0.0f);
    for (int h = 0; h < kHeads; ++h)
        for (int x = 0; x < kHeadDim; ++x) row(h, x) = all[h](t, x);
    return row;
}

std::vector<InputClass> make_classes(std::uint64_t seed) {
    Rng rng(seed ^ 0xdec0deull);
    std::vector<InputClass> classes(kClasses);
    for (InputClass& c : classes) {
        c.q = random_tensor3(kHeads, kSteps, kHeadDim, rng);
        c.k = random_tensor3(kHeads, kSteps, kHeadDim, rng);
        c.v = random_tensor3(kHeads, kSteps, kHeadDim, rng);
    }
    return classes;
}

/// expected[t] = row t of the full encode of the length-(t+1) prefix: the
/// only valid reference for step t (a global row attends later keys, so a
/// row of a longer encode differs).
std::vector<Matrix<float>> reference_chain(const SaloEngine& engine, const InputClass& c) {
    std::vector<Matrix<float>> expected;
    for (int t = 0; t < kSteps; ++t) {
        Tensor3<float> q(kHeads, t + 1, kHeadDim), k(kHeads, t + 1, kHeadDim),
            v(kHeads, t + 1, kHeadDim);
        for (int h = 0; h < kHeads; ++h)
            for (int r = 0; r <= t; ++r)
                for (int x = 0; x < kHeadDim; ++x) {
                    q[h](r, x) = c.q[h](r, x);
                    k[h](r, x) = c.k[h](r, x);
                    v[h](r, x) = c.v[h](r, x);
                }
        const LayerResult full = engine.run(stream_pattern(t + 1), q, k, v, step_scale());
        Matrix<float> row(kHeads, kHeadDim, 0.0f);
        for (int h = 0; h < kHeads; ++h)
            for (int x = 0; x < kHeadDim; ++x) row(h, x) = full.output[h](t, x);
        expected.push_back(std::move(row));
    }
    return expected;
}

bool step_matches(const StepResult& got, const Matrix<float>& expected) {
    for (int h = 0; h < kHeads; ++h)
        for (int x = 0; x < kHeadDim; ++x)
            if (got.output[h](0, x) != expected(h, x)) return false;
    return true;
}

StepRequest make_step(const InputClass& c, int t) {
    StepRequest r;
    r.q_row = row_of(c.q, t);
    r.k_row = row_of(c.k, t);
    r.v_row = row_of(c.v, t);
    return r;
}

/// Per-step host time of one stream's step replayed outside the session,
/// split by module: DecodeState::append, plan-cache lookup of the
/// micro-plan, DecodeState::assemble, SaloEngine::run_step.
struct StepParts {
    std::vector<double> append_us, lookup_us, assemble_us, run_step_us;
    bool matches = true;
};

void replay_stream(const SaloEngine& engine, const InputClass& c,
                   const std::vector<Matrix<float>>& expected, StepParts& parts,
                   Tracer& tracer, std::int64_t stream) {
    DecodeState state(kHeads, kHeadDim, decode_window_span(bands()), {0, 1});
    for (int t = 0; t < kSteps; ++t) {
        const StepRequest r = make_step(c, t);
        const Clock::time_point a = Clock::now();
        state.append(r.k_row, r.v_row);
        const Clock::time_point b = Clock::now();
        const CompiledPlanPtr micro = engine.compile_step(stream_pattern(t + 1), kHeadDim);
        const Clock::time_point d = Clock::now();
        auto [k, v] = state.assemble();
        const Clock::time_point e = Clock::now();
        RunOptions run_options;
        run_options.thread_budget = 1;
        const StepResult got = engine.run_step(*micro, r.q_row, k, v, step_scale(), run_options);
        const Clock::time_point f = Clock::now();
        parts.append_us.push_back(us_between(a, b));
        parts.lookup_us.push_back(us_between(b, d));
        parts.assemble_us.push_back(us_between(d, e));
        parts.run_step_us.push_back(us_between(e, f));
        tracer.record("decode.replay_step", a, f, stream);
        if (!step_matches(got, expected[static_cast<std::size_t>(t)])) parts.matches = false;
    }
}

}  // namespace

std::uint64_t decode_inputs_digest(std::uint64_t seed) {
    std::uint64_t h = 0;
    for (const InputClass& c : make_classes(seed))
        h = h * 31 + (result_digest(c.q, 0) ^ result_digest(c.k, 1) ^ result_digest(c.v, 2));
    return h;
}

RunResult run_decode(const WorkloadArgs& args) {
    RunResult out;
    Tracer tracer(args.trace);
    const int lanes = bench_lanes();
    SaloConfig config;
    config.num_threads = lanes;
    config.plan_cache_capacity = 4 * kSteps;  // full + micro plan per position

    // Set-up: inputs, a fresh session, and one warm-up stream that walks
    // every position, so each micro-plan is derived before timing.
    std::vector<InputClass> classes;
    std::unique_ptr<DecodeSession> session;
    const double setup_s = median_setup_s([&] {
        session.reset();
        classes = make_classes(args.seed);
        session = std::make_unique<DecodeSession>(config, DecodeSessionOptions{});
        const StreamId warm =
            session->open_stream(stream_pattern(kSteps), kHeads, kHeadDim, step_scale());
        for (int t = 0; t < kSteps; ++t) session->step(warm, make_step(classes[0], t)).get();
        session->close_stream(warm);
    });
    session->drain();  // the books settle after the futures resolve
    const SessionStats base = session->stats();

    SaloConfig ref_config = config;
    ref_config.num_threads = 1;
    const SaloEngine ref(ref_config);
    std::vector<std::vector<Matrix<float>>> expected;
    for (const InputClass& c : classes) expected.push_back(reference_chain(ref, c));

    // Timed: passes of kStreams fresh streams x kSteps lockstep waves until
    // the time is up. A wave's requests are built before its clock starts;
    // its outputs are checked after the clock stops. Each step's latency
    // runs from its step() call to the first sweep that finds its future
    // ready: this thread sweeps every kSweepEvery submissions and then
    // every ~20 us until the wave is done. In a traced run every other
    // pair of waves records spans.
    std::vector<double> step_ms, wave_ms, traced_ms, untraced_ms;
    double busy_ms = 0.0;
    std::int64_t stream_cycles = 0;
    std::vector<std::future<StepResult>> futures(kStreams);
    std::vector<StepRequest> requests(kStreams);
    std::vector<Clock::time_point> called(kStreams);
    ReadyStamper stamper;
    const auto ready = [&](std::size_t i) { return is_ready(futures[i]); };
    const auto stamp = [&](std::size_t i, Clock::time_point t) {
        step_ms.push_back(ms_between(called[i], t));
    };
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 us sleeps, not 50 us
    reset_peak_rss();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    for (int pass = 0; pass == 0 || Clock::now() < deadline; ++pass) {
        std::vector<StreamId> ids;
        ids.reserve(kStreams);
        for (int i = 0; i < kStreams; ++i)
            ids.push_back(
                session->open_stream(stream_pattern(kSteps), kHeads, kHeadDim, step_scale()));
        for (int t = 0; t < kSteps; ++t) {
            for (int i = 0; i < kStreams; ++i)
                requests[static_cast<std::size_t>(i)] = make_step(classes[i % kClasses], t);
            const std::int64_t wave = static_cast<std::int64_t>(pass) * kSteps + t;
            // Traced in pairs: a wave and its successor differ systematically
            // (~8% in alternate-wave tests), so each half gets both.
            const bool traced = args.trace && wave / 2 % 2 == 1;
            const Clock::time_point w0 = Clock::now();
            for (std::size_t i = 0; i < kStreams; ++i) {
                called[i] = Clock::now();
                futures[i] = session->step(ids[i], std::move(requests[i]));
                stamper.watch(i);
                if (i % kSweepEvery == kSweepEvery - 1) stamper.sweep(ready, stamp);
            }
            const Clock::time_point w1 = Clock::now();
            while (!stamper.idle()) {
                std::this_thread::sleep_for(std::chrono::microseconds(20));
                stamper.sweep(ready, stamp);
            }
            const Clock::time_point w2 = Clock::now();
            if (traced) {
                const std::int64_t root = tracer.record("decode.wave", w0, w2, wave);
                tracer.record("decode_session.step", w0, w1, wave, root);
                tracer.record("decode.await", w1, w2, wave, root);
            }
            const double ms = ms_between(w0, w2);
            busy_ms += ms;
            wave_ms.push_back(ms);
            (traced ? traced_ms : untraced_ms).push_back(ms);

            for (int i = 0; i < kStreams; ++i) {
                ++out.attempted;
                try {
                    const StepResult r = futures[static_cast<std::size_t>(i)].get();
                    if (pass == 0 && i == 0) stream_cycles += r.stats.cycles;
                    if (!step_matches(r, expected[static_cast<std::size_t>(i % kClasses)]
                                                 [static_cast<std::size_t>(t)])) {
                        ++out.failed;
                        out.correct = false;
                    }
                } catch (const std::exception&) {
                    ++out.failed;
                }
            }
        }
        for (StreamId id : ids) session->close_stream(id);
    }

    session->drain();
    const SessionStats st = session->stats();
    if (stream_cycles != kStreamCycles || st.accounted() != st.submitted ||
        st.steps != st.submitted)
        out.correct = false;

    const double steps = static_cast<double>(out.attempted);
    out.end_to_end["setup_s"] = {setup_s, "s"};
    out.end_to_end["latency_ms_p50"] = {percentile(step_ms, 0.5), "ms"};
    out.end_to_end["latency_ms_tail"] = {percentile(step_ms, 0.99), "ms"};
    out.end_to_end["throughput_per_s"] = {busy_ms > 0.0 ? steps * 1000.0 / busy_ms : 0.0,
                                          "1/s"};
    out.end_to_end["sim_cycles"] = {static_cast<double>(stream_cycles), "cycles"};
    out.aliases = {{"step_ms_p50", "latency_ms_p50"},
                   {"step_ms_p99", "latency_ms_tail"},
                   {"tokens_per_s", "throughput_per_s"}};
    out.notes["latency_unit"] = "one step: step() call -> future ready, 4096 per lockstep wave";
    out.notes["throughput_is"] = "tokens (completed steps) per second of wave time";
    out.notes["tail_percentile"] = "p99";
    out.notes["samples"] = std::to_string(step_ms.size());
    out.notes["samples_beyond_tail"] = std::to_string(samples_beyond(step_ms, 0.99));
    out.notes["wave_ms_p50"] = std::to_string(percentile(wave_ms, 0.5));
    out.notes["stamp_resolution_us_p99"] = std::to_string(percentile(stamper.gaps_us(), 0.99));
    out.notes["stamp_resolution_us_max"] = std::to_string(percentile(stamper.gaps_us(), 1.0));
    out.notes["engine_lanes"] = std::to_string(lanes);

    out.per_layer["engine.lanes"] = {static_cast<double>(lanes), "count"};
    add_plan_cache_metrics(out, base.plan_cache, st.plan_cache);
    out.per_layer["decode.batches"] = {static_cast<double>(st.batches - base.batches), "count"};
    out.per_layer["decode.max_batch"] = {static_cast<double>(st.max_batch), "count"};

    if (args.trace) {
        out.per_layer["trace.overhead_share"] = {
            percentile(traced_ms, 0.5) / percentile(untraced_ms, 0.5) - 1.0, "share"};
        // Scheduler work behind the micro-plans: one full plan per prefix
        // length, each derived into its step plan.
        double compile_ms = 0.0, tiles = 0.0;
        for (int t = 0; t < kSteps; ++t) {
            const Clock::time_point c0 = Clock::now();
            const CompiledPlanPtr full = compile_shared(stream_pattern(t + 1), kHeadDim, config);
            (void)derive_micro_plan_shared(*full);
            compile_ms += ms_between(c0, Clock::now());
            tiles += full->schedule_stats().total_tiles();
        }
        out.per_layer["scheduler.compile_ms"] = {compile_ms, "ms"};
        out.per_layer["scheduler.tiles"] = {tiles, "count"};

        // One stream per input class replayed step by step on one lane; the
        // first pass warms the replay engine's plan cache.
        StepParts parts;
        for (int pass = 0; pass < 2; ++pass) {
            parts = StepParts{};
            for (int c = 0; c < kClasses; ++c)
                replay_stream(ref, classes[static_cast<std::size_t>(c)],
                              expected[static_cast<std::size_t>(c)], parts, tracer, c);
        }
        if (!parts.matches) out.correct = false;
        const auto mean = [](const std::vector<double>& v) {
            double s = 0.0;
            for (double x : v) s += x;
            return v.empty() ? 0.0 : s / static_cast<double>(v.size());
        };
        out.per_layer["decode_state.append_us"] = {percentile(parts.append_us, 0.5), "us"};
        out.per_layer["decode_state.assemble_us"] = {percentile(parts.assemble_us, 0.5), "us"};
        out.per_layer["plan_cache.lookup_us"] = {percentile(parts.lookup_us, 0.5), "us"};
        out.per_layer["engine.run_step_us"] = {percentile(parts.run_step_us, 0.5), "us"};
        // Share of the session's lane time not explained by replayed step
        // work: dispatch, batching, futures and idle lanes.
        const double work_us = mean(parts.append_us) + mean(parts.lookup_us) +
                               mean(parts.assemble_us) + mean(parts.run_step_us);
        out.per_layer["decode.dispatch_share"] = {
            1.0 - steps * work_us / (busy_ms * 1000.0 * static_cast<double>(lanes)),
            "share"};
        if (!tracer.write(args.out_dir + "/trace-decode-4096streams-seed" +
                          std::to_string(args.seed) + ".json"))
            out.notes["trace_file"] = "not written";
    }
    session->close();
    out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return out;
}

}  // namespace perfbench
