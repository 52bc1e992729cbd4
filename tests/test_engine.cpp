#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
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

/// One head on a fresh engine built from `config`.
HeadResult run_head(const SaloConfig& config, const HybridPattern& pattern,
                    const Matrix<float>& q, const Matrix<float>& k, const Matrix<float>& v,
                    float scale) {
    const SaloEngine engine(config);
    return engine.run_head(*engine.compile(pattern, q.cols()), q, k, v, scale);
}

/// A multi-head layer on a fresh engine built from `config`.
LayerResult run_layer(const SaloConfig& config, const AttentionWorkload& workload,
                      const QkvSet& qkv) {
    const SaloEngine engine(config);
    return engine.run(*engine.compile(workload.pattern, workload.head_dim), qkv.q, qkv.k,
                      qkv.v, workload.scale());
}

TEST(Engine, FunctionalMatchesGoldenOnLongformer) {
    const auto pattern = longformer(64, 8, 1);
    Rng rng(1);
    const auto q = random_matrix(64, 16, rng, 0.0, 0.8);
    const auto k = random_matrix(64, 16, rng, 0.0, 0.8);
    const auto v = random_matrix(64, 16, rng, 0.0, 0.8);
    const SaloEngine engine(small_config());
    const auto result = engine.run_head(*engine.compile(pattern, q.cols()), q, k, v, 0.25f);
    const auto gold = SaloEngine::golden(pattern, q, k, v, 0.25f);
    // Tolerance includes input quantization (golden runs on float inputs).
    EXPECT_LT(max_abs_diff(result.output, gold), 0.25);
    EXPECT_GT(result.stats.cycles, 0);
    EXPECT_GT(result.stats.tiles, 0);
}

TEST(Engine, GoldenFidelityIsExactOracle) {
    const auto pattern = longformer(32, 6, 1);
    Rng rng(2);
    const auto q = random_matrix(32, 8, rng);
    const auto k = random_matrix(32, 8, rng);
    const auto v = random_matrix(32, 8, rng);
    const SaloEngine engine(small_config(Fidelity::kGolden));
    const auto result = engine.run_head(*engine.compile(pattern, q.cols()), q, k, v, 0.35f);
    EXPECT_LT(max_abs_diff(result.output, SaloEngine::golden(pattern, q, k, v, 0.35f)),
              1e-6);
    EXPECT_EQ(result.stats.cycles, 0);  // no hardware involved
}

TEST(Engine, CycleAccurateMatchesFunctionalBitExactly) {
    const auto pattern = vil_2d(6, 6, 3, 3, 1);
    Rng rng(3);
    const auto q = random_matrix(36, 8, rng, 0.0, 0.8);
    const auto k = random_matrix(36, 8, rng, 0.0, 0.8);
    const auto v = random_matrix(36, 8, rng, 0.0, 0.8);
    const SaloEngine fast(small_config(Fidelity::kFunctional));
    const SaloEngine slow(small_config(Fidelity::kCycleAccurate));
    const auto a = fast.run_head(*fast.compile(pattern, q.cols()), q, k, v, 0.35f);
    const auto b = slow.run_head(*slow.compile(pattern, q.cols()), q, k, v, 0.35f);
    EXPECT_DOUBLE_EQ(max_abs_diff(a.output, b.output), 0.0);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.stage_totals.total(), b.stats.stage_totals.total());
}

TEST(Engine, MultiHeadRunsAllHeads) {
    const auto workload = longformer_small(64, 8, 3, 8, 1);
    const auto qkv = make_qkv(workload, 42);
    const SaloEngine engine(small_config());
    const CompiledPlanPtr plan = engine.compile(workload.pattern, workload.head_dim);
    const auto result = engine.run(*plan, qkv.q, qkv.k, qkv.v, workload.scale());
    EXPECT_EQ(result.output.count(), 3);
    // Heads have different data, so outputs differ.
    EXPECT_GT(max_abs_diff(result.output[0], result.output[1]), 0.0);
    // Stats accumulate across heads: cycles = 3x the single-head run.
    const auto head0 =
        engine.run_head(*plan, qkv.q[0], qkv.k[0], qkv.v[0], workload.scale());
    EXPECT_EQ(result.stats.cycles, 3 * head0.stats.cycles);
}

TEST(Engine, PerHeadOutputMatchesHeadRun) {
    const auto workload = longformer_small(48, 8, 2, 8, 1);
    const auto qkv = make_qkv(workload, 7);
    const SaloEngine engine(small_config());
    const CompiledPlanPtr plan = engine.compile(workload.pattern, workload.head_dim);
    const auto layer = engine.run(*plan, qkv.q, qkv.k, qkv.v, workload.scale());
    for (int h = 0; h < 2; ++h) {
        const auto head =
            engine.run_head(*plan, qkv.q[h], qkv.k[h], qkv.v[h], workload.scale());
        EXPECT_DOUBLE_EQ(max_abs_diff(layer.output[h], head.output), 0.0) << "head " << h;
    }
}

TEST(Engine, DoubleBufferingHidesLoads) {
    const auto pattern = longformer(128, 16, 1);
    Rng rng(4);
    const auto q = random_matrix(128, 16, rng, 0.0, 0.8);
    const auto k = random_matrix(128, 16, rng, 0.0, 0.8);
    const auto v = random_matrix(128, 16, rng, 0.0, 0.8);
    SaloConfig with = small_config();
    SaloConfig without = small_config();
    without.double_buffer = false;
    const auto a = run_head(with, pattern, q, k, v, 0.25f);
    const auto b = run_head(without, pattern, q, k, v, 0.25f);
    EXPECT_LT(a.stats.cycles, b.stats.cycles);
    // Outputs are unaffected by the timing model.
    EXPECT_DOUBLE_EQ(max_abs_diff(a.output, b.output), 0.0);
}

TEST(Engine, NarrowBusStalls) {
    const auto pattern = longformer(64, 16, 1);
    Rng rng(5);
    const auto q = random_matrix(64, 16, rng, 0.0, 0.8);
    const auto k = random_matrix(64, 16, rng, 0.0, 0.8);
    const auto v = random_matrix(64, 16, rng, 0.0, 0.8);
    SaloConfig wide = small_config();
    wide.bus_bytes_per_cycle = 256;
    SaloConfig narrow = small_config();
    narrow.bus_bytes_per_cycle = 2;
    const auto a = run_head(wide, pattern, q, k, v, 0.25f);
    const auto b = run_head(narrow, pattern, q, k, v, 0.25f);
    EXPECT_LT(a.stats.cycles, b.stats.cycles);
}

TEST(Engine, MultiThreadedHeadsIdenticalToSequential) {
    const auto workload = longformer_small(64, 8, 5, 8, 1);
    const auto qkv = make_qkv(workload, 21);
    SaloConfig seq_cfg = small_config();
    SaloConfig par_cfg = small_config();
    par_cfg.num_threads = 4;
    const auto seq = run_layer(seq_cfg, workload, qkv);
    const auto par = run_layer(par_cfg, workload, qkv);
    for (int h = 0; h < workload.heads; ++h)
        EXPECT_DOUBLE_EQ(max_abs_diff(seq.output[h], par.output[h]), 0.0) << "head " << h;
    EXPECT_EQ(seq.stats.cycles, par.stats.cycles);
    EXPECT_EQ(seq.stats.activity.mac_ops, par.stats.activity.mac_ops);
}

TEST(Engine, LatencyMsUsesFrequency) {
    SimStats stats;
    stats.cycles = 2'000'000;
    EXPECT_DOUBLE_EQ(stats.latency_ms(1.0), 2.0);
    EXPECT_DOUBLE_EQ(stats.latency_ms(2.0), 1.0);
}

TEST(Engine, RejectsMismatchedShapes) {
    const auto pattern = longformer(32, 8, 1);
    const SaloEngine engine(small_config());
    Matrix<float> q(32, 8), k(16, 8), v(32, 8);
    const CompiledPlanPtr plan = engine.compile(pattern, 8);
    EXPECT_THROW(engine.run_head(*plan, q, k, v, 1.0f), ContractViolation);
}

TEST(Engine, OccupancyReportedInSchedule) {
    const auto workload = longformer_small(128, 16, 1, 8, 1);
    const auto qkv = make_qkv(workload, 9);
    const SaloEngine engine(small_config());
    const auto result = engine.run(*engine.compile(workload.pattern, workload.head_dim),
                                   qkv.q, qkv.k, qkv.v, workload.scale());
    EXPECT_GT(result.schedule.slot_occupancy(), 0.5);
    EXPECT_LE(result.schedule.slot_occupancy(), 1.0);
}

}  // namespace
}  // namespace salo
