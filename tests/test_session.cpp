// SaloSession: the batched request-serving front end. Locks in the
// determinism guarantee (concurrent mixed submissions are bit-identical to
// the sequential engine run for every thread count), plan-cache behavior
// under serving traffic, per-request fidelity overrides, error propagation
// through futures, and the close/drain lifecycle.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/salo.hpp"
#include "transformer/encoder.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

SaloConfig serving_config(int threads) {
    SaloConfig c;
    c.geometry.rows = 8;
    c.geometry.cols = 8;
    c.num_threads = threads;
    return c;
}

void expect_identical_layer(const LayerResult& a, const LayerResult& b,
                            const char* what) {
    ASSERT_EQ(a.output.count(), b.output.count()) << what;
    for (int h = 0; h < a.output.count(); ++h)
        EXPECT_DOUBLE_EQ(max_abs_diff(a.output[h], b.output[h]), 0.0)
            << what << ", head " << h;
    EXPECT_EQ(a.stats.cycles, b.stats.cycles) << what;
    EXPECT_EQ(a.stats.tiles, b.stats.tiles) << what;
    EXPECT_EQ(a.stats.activity.mac_ops, b.stats.activity.mac_ops) << what;
    EXPECT_EQ(a.stats.activity.pe_cycles, b.stats.activity.pe_cycles) << what;
}

/// A mixed Longformer + ViL request stream (the paper's two workload
/// families) with per-request seeds.
struct Stream {
    std::vector<AttentionWorkload> workloads;
    std::vector<QkvSet> inputs;

    static Stream mixed(int requests) {
        Stream s;
        const AttentionWorkload longf = longformer_small(96, 16, 2, 16, 1);
        AttentionWorkload vil = vil_stage1();
        vil.pattern = vil_2d(10, 10, 5, 5, 1);
        vil.heads = 2;
        vil.head_dim = 16;
        const AttentionWorkload longf_wide = longformer_small(64, 24, 3, 16, 2);
        for (int i = 0; i < requests; ++i) {
            const AttentionWorkload& w =
                i % 3 == 0 ? longf : (i % 3 == 1 ? vil : longf_wide);
            s.workloads.push_back(w);
            s.inputs.push_back(make_qkv(w, 1000 + static_cast<std::uint64_t>(i)));
        }
        return s;
    }
};

// -------------------------------------------------------------------------
// Determinism: >= 8 concurrent mixed requests, bit-identical to the
// sequential engine for every session thread count.
// -------------------------------------------------------------------------

TEST(Session, ConcurrentMixedStreamBitIdenticalToSequentialRun) {
    const int kRequests = 12;
    const Stream stream = Stream::mixed(kRequests);

    // Sequential ground truth: one engine, one thread, one-shot calls.
    const SaloEngine sequential(serving_config(1));
    std::vector<LayerResult> expected;
    for (int i = 0; i < kRequests; ++i) {
        const AttentionWorkload& w = stream.workloads[static_cast<std::size_t>(i)];
        const QkvSet& x = stream.inputs[static_cast<std::size_t>(i)];
        expected.push_back(
            sequential.run(*sequential.compile(w.pattern, w.head_dim), x.q, x.k, x.v, w.scale()));
    }

    for (int threads : {1, 2, 8}) {
        SaloSession session(serving_config(threads));
        // Submit the full burst from several caller threads so requests are
        // genuinely in flight together.
        std::vector<std::future<LayerResult>> futures(kRequests);
        std::vector<std::thread> submitters;
        for (int t = 0; t < 4; ++t)
            submitters.emplace_back([&, t] {
                for (int i = t; i < kRequests; i += 4) {
                    const auto idx = static_cast<std::size_t>(i);
                    futures[idx] = session.submit(stream.workloads[idx].pattern,
                                                  stream.inputs[idx].q, stream.inputs[idx].k,
                                                  stream.inputs[idx].v,
                                                  stream.workloads[idx].scale());
                }
            });
        for (std::thread& t : submitters) t.join();
        for (int i = 0; i < kRequests; ++i) {
            const LayerResult got = futures[static_cast<std::size_t>(i)].get();
            expect_identical_layer(got, expected[static_cast<std::size_t>(i)],
                                   ("threads=" + std::to_string(threads) + " request " +
                                    std::to_string(i))
                                       .c_str());
        }
        // Futures resolve before the dispatcher's batch accounting lands;
        // drain() is the synchronization point for stats readers.
        session.drain();
        const SessionStats stats = session.stats();
        EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
        EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
        EXPECT_EQ(stats.failed, 0u);
    }
}

TEST(Session, RepeatedLayerWorkloadHitsPlanCache) {
    const AttentionWorkload w = longformer_small(96, 16, 2, 16, 1);
    SaloSession session(serving_config(2));
    const CompiledPlanPtr plan = session.compile(w.pattern, w.head_dim);

    const int kRequests = 32;
    std::vector<std::future<LayerResult>> futures;
    for (int i = 0; i < kRequests; ++i) {
        const QkvSet qkv = make_qkv(w, static_cast<std::uint64_t>(i));
        // Alternate between the precompiled-plan and pattern flavours; both
        // must resolve to the one cached artifact.
        if (i % 2 == 0)
            futures.push_back(session.submit(plan, qkv.q, qkv.k, qkv.v, w.scale()));
        else
            futures.push_back(session.submit(w.pattern, qkv.q, qkv.k, qkv.v, w.scale()));
    }
    for (auto& f : futures) f.get();

    const PlanCacheStats cache = session.stats().plan_cache;
    EXPECT_EQ(cache.misses, 1u);  // the explicit compile()
    EXPECT_GE(cache.hits, static_cast<std::uint64_t>(kRequests / 2));
    EXPECT_GT(cache.hit_rate(), 0.9);
}

TEST(Session, PrecompiledPlanSubmissionMatchesPatternSubmission) {
    const AttentionWorkload w = longformer_small(96, 16, 2, 16, 1);
    const QkvSet qkv = make_qkv(w, 77);
    SaloSession session(serving_config(2));
    const CompiledPlanPtr plan = session.compile(w.pattern, w.head_dim);
    const LayerResult via_plan =
        session.submit(plan, qkv.q, qkv.k, qkv.v, w.scale()).get();
    const LayerResult via_pattern =
        session.submit(w.pattern, qkv.q, qkv.k, qkv.v, w.scale()).get();
    expect_identical_layer(via_plan, via_pattern, "plan vs pattern submission");
}

// -------------------------------------------------------------------------
// Per-request fidelity
// -------------------------------------------------------------------------

TEST(Session, FidelityOverridePerRequest) {
    const AttentionWorkload w = longformer_small(64, 8, 1, 16, 1);
    const QkvSet qkv = make_qkv(w, 3);
    SaloSession session(serving_config(2));

    AttentionRequest golden_req =
        make_request(w.pattern, qkv.q, qkv.k, qkv.v, w.scale());
    golden_req.fidelity = Fidelity::kGolden;
    const LayerResult golden = session.submit(std::move(golden_req)).get();
    const LayerResult functional =
        session.submit(w.pattern, qkv.q, qkv.k, qkv.v, w.scale()).get();

    const Matrix<float> oracle =
        SaloEngine::golden(w.pattern, qkv.q[0], qkv.k[0], qkv.v[0], w.scale());
    EXPECT_DOUBLE_EQ(max_abs_diff(golden.output[0], oracle), 0.0);
    // The functional (quantized) arm differs from the oracle but is close.
    const double err = max_abs_diff(functional.output[0], oracle);
    EXPECT_GT(err, 0.0);
    EXPECT_LT(err, 0.5);
    // Golden requests do no accelerator work.
    EXPECT_EQ(golden.stats.cycles, 0);
    EXPECT_GT(functional.stats.cycles, 0);
}

// -------------------------------------------------------------------------
// Errors, lifecycle
// -------------------------------------------------------------------------

TEST(Session, ExecutionErrorsPropagateThroughTheFuture) {
    SaloSession session(serving_config(2));
    const AttentionWorkload w = longformer_small(96, 16, 2, 16, 1);
    const QkvSet qkv = make_qkv(w, 9);
    // Pattern of a different sequence length than Q/K/V: compiles fine,
    // fails the engine's shape contract at execution time.
    auto bad = session.submit(longformer(128, 16, 1), qkv.q, qkv.k, qkv.v, w.scale());
    EXPECT_THROW(bad.get(), ContractViolation);

    // The session stays healthy and serves subsequent requests.
    const LayerResult good =
        session.submit(w.pattern, qkv.q, qkv.k, qkv.v, w.scale()).get();
    EXPECT_EQ(good.output.count(), w.heads);
    session.drain();
    const SessionStats stats = session.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(Session, StructurallyInvalidSubmitThrowsSynchronously) {
    SaloSession session(serving_config(1));
    AttentionRequest empty;  // no plan, no pattern, zero heads
    EXPECT_THROW(session.submit(std::move(empty)), ContractViolation);
}

TEST(Session, SubmitAfterCloseThrowsSessionClosed) {
    const AttentionWorkload w = longformer_small(64, 8, 1, 16, 1);
    const QkvSet qkv = make_qkv(w, 4);
    SaloSession session(serving_config(1));
    auto pending = session.submit(w.pattern, qkv.q, qkv.k, qkv.v, w.scale());
    session.close();
    // Queued work was served before the dispatcher exited.
    EXPECT_EQ(pending.get().output.count(), 1);
    try {
        session.submit(w.pattern, qkv.q, qkv.k, qkv.v, w.scale());
        FAIL() << "submit() after close() must throw SessionClosed";
    } catch (const SessionClosed& e) {
        // The message must name the session state, not just "error".
        EXPECT_NE(std::string(e.what()).find("closed"), std::string::npos) << e.what();
    }
    // SessionClosed stays catchable as std::runtime_error for legacy callers.
    EXPECT_THROW(session.submit(w.pattern, qkv.q, qkv.k, qkv.v, w.scale()),
                 std::runtime_error);
}

TEST(Session, DrainWaitsForAllSubmitted) {
    const AttentionWorkload w = longformer_small(96, 16, 2, 16, 1);
    SaloSession session(serving_config(2));
    std::vector<std::future<LayerResult>> futures;
    for (int i = 0; i < 6; ++i) {
        const QkvSet qkv = make_qkv(w, static_cast<std::uint64_t>(i));
        futures.push_back(session.submit(w.pattern, qkv.q, qkv.k, qkv.v, w.scale()));
    }
    session.drain();
    for (auto& f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
        f.get();
    }
    EXPECT_EQ(session.stats().completed, 6u);
}

TEST(Session, BoundedQueueBlocksAndRecovers) {
    const AttentionWorkload w = longformer_small(96, 16, 2, 16, 1);
    SessionOptions opts;
    opts.admission.max_queue = 2;
    SaloSession session(serving_config(2), opts);
    std::vector<std::future<LayerResult>> futures;
    for (int i = 0; i < 8; ++i) {
        const QkvSet qkv = make_qkv(w, static_cast<std::uint64_t>(i));
        futures.push_back(session.submit(w.pattern, qkv.q, qkv.k, qkv.v, w.scale()));
    }
    for (auto& f : futures) f.get();
    session.drain();
    EXPECT_EQ(session.stats().completed, 8u);
}

TEST(Session, EncoderForwardThroughSessionMatchesEngine) {
    const int n = 64, hidden = 32, heads = 2, layers = 2;
    const HybridPattern pattern = longformer(n, 8, 1);
    Rng rng(21);
    const Encoder encoder(layers, hidden, heads, 4 * hidden, pattern, rng);
    const Matrix<float> input = random_matrix(n, hidden, rng, 0.0, 0.5);

    const SaloConfig config = serving_config(2);
    const SaloEngine engine(config);
    SaloSession session(config);
    SimStats engine_stats, session_stats;
    const Matrix<float> via_engine = encoder.forward(input, engine, &engine_stats);
    const Matrix<float> via_session = encoder.forward(input, session, &session_stats);
    EXPECT_DOUBLE_EQ(max_abs_diff(via_engine, via_session), 0.0);
    EXPECT_EQ(engine_stats.cycles, session_stats.cycles);
    // One pattern/head_dim across the stack: a single compile serves all
    // layers of both the engine and the session.
    EXPECT_EQ(engine.plan_cache_stats().misses, 1u);
    EXPECT_EQ(session.stats().plan_cache.misses, 1u);
}

}  // namespace
}  // namespace salo
