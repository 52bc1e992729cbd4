// Cross-module integration tests: full paper workloads at reduced size
// through every fidelity level, plus pinned regression values that guard
// the cycle model against accidental changes (any intentional change to the
// timing model must update these numbers consciously).
#include <gtest/gtest.h>

#include "attention/streaming.hpp"
#include "model/salo_model.hpp"
#include "model/synthesis.hpp"
#include "numeric/error_stats.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

SaloConfig small_config(Fidelity fidelity = Fidelity::kFunctional) {
    SaloConfig c;
    c.geometry.rows = 8;
    c.geometry.cols = 8;
    c.fidelity = fidelity;
    return c;
}

LayerResult run_layer(const SaloEngine& engine, const AttentionWorkload& w,
                      const QkvSet& qkv) {
    return engine.run(*engine.compile(w.pattern, w.head_dim), qkv.q, qkv.k, qkv.v,
                      w.scale());
}

TEST(Integration, MiniLongformerAllFidelities) {
    const AttentionWorkload w = longformer_small(96, 16, 2, 16, 2);
    const QkvSet qkv = make_qkv(w, 77);
    const SaloEngine golden(small_config(Fidelity::kGolden));
    const SaloEngine functional(small_config(Fidelity::kFunctional));
    const SaloEngine cycle(small_config(Fidelity::kCycleAccurate));

    const auto g = run_layer(golden, w, qkv);
    const auto f = run_layer(functional, w, qkv);
    const auto c = run_layer(cycle, w, qkv);

    for (int h = 0; h < w.heads; ++h) {
        // Functional == cycle-accurate bit-exactly.
        EXPECT_DOUBLE_EQ(max_abs_diff(f.output[h], c.output[h]), 0.0) << "head " << h;
        // Both close to golden (quantization-bounded).
        const ErrorStats err = compare(g.output[h], f.output[h]);
        EXPECT_LT(err.max_abs, 0.25) << "head " << h;
        EXPECT_GT(err.cosine, 0.99) << "head " << h;
        EXPECT_GT(err.snr_db, 15.0) << "head " << h;
    }
    EXPECT_EQ(f.stats.cycles, c.stats.cycles);
}

TEST(Integration, MiniVilAllFidelities) {
    AttentionWorkload w{
        .name = "mini-vil",
        .pattern = vil_2d(10, 10, 5, 5, 1),
        .heads = 2,
        .head_dim = 16,
        .window = 25,
        .paper_sparsity = 0.25,
    };
    const QkvSet qkv = make_qkv(w, 88);
    const SaloEngine functional(small_config(Fidelity::kFunctional));
    const SaloEngine cycle(small_config(Fidelity::kCycleAccurate));
    const auto f = run_layer(functional, w, qkv);
    const auto c = run_layer(cycle, w, qkv);
    for (int h = 0; h < w.heads; ++h)
        EXPECT_DOUBLE_EQ(max_abs_diff(f.output[h], c.output[h]), 0.0);
    for (int h = 0; h < w.heads; ++h) {
        const auto g = SaloEngine::golden(w.pattern, qkv.q[h], qkv.k[h], qkv.v[h],
                                          w.scale());
        EXPECT_LT(max_abs_diff(f.output[h], g), 0.25);
    }
}

TEST(Integration, RegressionPinnedCycleCounts) {
    // Pinned values for the paper-sized workloads on the 32x32 array.
    // These guard the timing model: if you change the cycle formulas, the
    // reciprocal latency, the bus model or the scheduler's tiling, these
    // numbers move and this test forces a conscious update (and a matching
    // EXPERIMENTS.md refresh).
    const SaloConfig config;
    EXPECT_EQ(estimate_layer(longformer_base_4096(), config).stats.cycles, 6384288);
    EXPECT_EQ(estimate_layer(vil_stage1(), config).stats.cycles, 567414);
    EXPECT_EQ(estimate_layer(vil_stage2(), config).stats.cycles, 273588);
}

TEST(Integration, RegressionPinnedOccupancy) {
    const SaloConfig config;
    EXPECT_NEAR(estimate_layer(longformer_base_4096(), config).schedule.slot_occupancy(),
                0.9957, 1e-3);
    EXPECT_NEAR(estimate_layer(vil_stage1(), config).schedule.slot_occupancy(), 0.8129,
                1e-3);
    EXPECT_NEAR(estimate_layer(vil_stage2(), config).schedule.slot_occupancy(), 0.7300,
                1e-3);
}

TEST(Integration, RegressionPinnedSynthesis) {
    const auto report = synthesize(ArrayGeometry{});
    EXPECT_NEAR(report.total_power_mw(), 532.67, 0.05);
    EXPECT_NEAR(report.total_area_mm2(), 4.56, 0.005);
}

TEST(Integration, SchedulePlanIsDeterministic) {
    const auto w = longformer_small(128, 16, 1, 16, 2);
    const SaloConfig config = small_config();
    const auto p1 = schedule(w.pattern, config.geometry, w.head_dim, config.schedule_options);
    const auto p2 = schedule(w.pattern, config.geometry, w.head_dim, config.schedule_options);
    ASSERT_EQ(p1.tiles.size(), p2.tiles.size());
    for (std::size_t t = 0; t < p1.tiles.size(); ++t) {
        EXPECT_EQ(p1.tiles[t].query_ids, p2.tiles[t].query_ids);
        EXPECT_EQ(p1.tiles[t].valid, p2.tiles[t].valid);
        EXPECT_EQ(p1.tiles[t].global_fresh, p2.tiles[t].global_fresh);
    }
}

TEST(Integration, EngineAgreesWithStreamingOracle) {
    // Two fully independent implementations of the same mathematics: the
    // fixed-point engine (hardware split + WSM merges) and the float
    // online-softmax oracle. Agreement within quantization tolerance ties
    // the whole renormalization story together.
    const auto w = longformer_small(80, 12, 1, 16, 1);
    const QkvSet qkv = make_qkv(w, 55);
    const SaloEngine engine(small_config());
    const auto run = engine.run_head(*engine.compile(w.pattern, w.head_dim), qkv.q[0], qkv.k[0],
                                     qkv.v[0], w.scale());
    const auto oracle = streaming_masked_attention(qkv.q[0], qkv.k[0], qkv.v[0],
                                                   w.scale(), w.pattern.attend_fn(), 7);
    EXPECT_LT(max_abs_diff(run.output, oracle), 0.25);
}

TEST(Integration, EndToEndDeterminism) {
    const auto w = longformer_small(64, 8, 2, 16, 1);
    const QkvSet qkv = make_qkv(w, 5);
    const SaloEngine engine(small_config());
    const auto a = run_layer(engine, w, qkv);
    const auto b = run_layer(engine, w, qkv);
    for (int h = 0; h < w.heads; ++h)
        EXPECT_DOUBLE_EQ(max_abs_diff(a.output[h], b.output[h]), 0.0);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
}

}  // namespace
}  // namespace salo
