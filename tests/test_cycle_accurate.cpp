// Cycle-accurate array model: the bit-level oracle of the production
// datapath, and measured cycle counts matching the closed-form formulas.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "attention/streaming.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "numeric/quantize.hpp"
#include "scheduler/scheduler.hpp"
#include "sim/cycle_accurate.hpp"
#include "sim/kernels.hpp"
#include "sim/tile_executor.hpp"
#include "sim/wsm.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

struct Fixture {
    ArrayGeometry geometry;
    SchedulePlan plan;
    Matrix<std::int8_t> q, k, v;
    PwlExp exp_unit;
    Reciprocal recip_unit;

    Fixture(const HybridPattern& pattern, int d, std::uint64_t seed, int rows = 8,
            int cols = 8) {
        geometry.rows = rows;
        geometry.cols = cols;
        plan = schedule(pattern, geometry, d, {});
        Rng rng(seed);
        q = quantize<InputFx>(random_matrix(pattern.n(), d, rng, 0.0, 0.8));
        k = quantize<InputFx>(random_matrix(pattern.n(), d, rng, 0.0, 0.8));
        v = quantize<InputFx>(random_matrix(pattern.n(), d, rng, 0.0, 0.8));
    }
};

// -------------------------------------------------------------------------
// The bit-level oracle. The production datapath (TileExecutor::run) must
// emit the parts the cycle-accurate array emits — query, weight and out_q,
// in order — with the same activity counters, on every tile of each plan,
// at every kernel level the host runs (kernels::kernel_sets(); on the
// avx512vnni level the multi-row tiles run on the tile path, elsewhere on
// the row path). pe_cycles is accounted on the production side as the
// engine does. Each level's WeightedSumModule then merges that level's
// parts in schedule order, and its finalize_raw() must equal the scalar
// level's bit for bit. The plans cover every segment layout the scheduler emits
// (single, dilated, column-packed multi-segment), many globals, square and
// non-square arrays, d = 8, 16, 64 and 128, a layer whose every
// exponential underflows, and decode micro-plans (one query row against
// the compact int8 K/V layout).
// -------------------------------------------------------------------------

::testing::AssertionResult same_parts(const std::vector<TilePart>& a, const PartArena& b) {
    if (a.size() != b.used())
        return ::testing::AssertionFailure() << a.size() << " vs " << b.used() << " parts";
    for (std::size_t i = 0; i < a.size(); ++i) {
        const TilePart& x = a[i];
        const TilePart& y = b.at(i);
        if (x.query != y.query || x.weight != y.weight || x.out_q != y.out_q)
            return ::testing::AssertionFailure()
                   << "part " << i << ": query " << x.query << "/" << y.query << ", weight "
                   << x.weight << "/" << y.weight;
    }
    return ::testing::AssertionSuccess();
}

void expect_production_matches_array(const SchedulePlan& plan, const Matrix<std::int8_t>& q,
                                     const Matrix<std::int8_t>& k,
                                     const Matrix<std::int8_t>& v, const std::string& what) {
    const PwlExp exp_unit;
    const Reciprocal recip_unit;
    const CycleConfig ccfg;
    const CycleAccurateArray array(plan.geometry, ccfg, exp_unit, recip_unit, q, k, v);
    std::vector<TileExecutor> execs;
    std::vector<WeightedSumModule> wsms;
    for (const kernels::KernelSet& ks : kernels::kernel_sets()) {
        execs.emplace_back(exp_unit, recip_unit, q, k, v, ks);
        wsms.emplace_back(q.rows(), q.cols(), recip_unit, ks);
    }
    std::vector<TilePart> parts;
    PartArena arena;
    PartScratch scratch;
    for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
        const TileTask& tile = plan.tiles[t];
        ActivityStats a;
        parts.clear();
        array.run(tile, parts, a);
        for (std::size_t l = 0; l < execs.size(); ++l) {
            ActivityStats b;
            arena.reset();
            execs[l].run(tile, arena, b, scratch);
            b.pe_cycles += static_cast<std::int64_t>(tile.rows()) * tile.cols() *
                           tile_cycles(tile, plan.head_dim, ccfg).total();
            const std::string where = std::string(kernels::kernel_sets()[l].name) + ": " +
                                      what + ", tile " + std::to_string(t);
            ASSERT_TRUE(same_parts(parts, arena)) << where;
            EXPECT_EQ(a.mac_ops, b.mac_ops) << where;
            EXPECT_EQ(a.exp_ops, b.exp_ops) << where;
            EXPECT_EQ(a.valid_slots, b.valid_slots) << where;
            EXPECT_EQ(a.array_slots, b.array_slots) << where;
            EXPECT_EQ(a.pe_cycles, b.pe_cycles) << where;
            for (std::size_t i = 0; i < arena.used(); ++i) wsms[l].merge(arena.at(i));
        }
    }
    const Matrix<std::int16_t> scalar = wsms.back().finalize_raw();  // scalar is last
    for (std::size_t l = 0; l + 1 < wsms.size(); ++l)
        EXPECT_TRUE(std::ranges::equal(wsms[l].finalize_raw().data(), scalar.data()))
            << kernels::kernel_sets()[l].name << ": " << what << ", merged output";
}

struct DatapathShape {
    const char* name;
    HybridPattern pattern;
    int head_dim;
    int rows;
    int cols;
};

TEST(CycleAccurate, ProductionDatapathBitIdenticalToArray) {
    std::string levels;
    for (const kernels::KernelSet& ks : kernels::kernel_sets())
        levels += std::string(levels.empty() ? "" : ", ") + ks.name +
                  (ks.has_tile_path() ? " (tile path)" : "");
    std::printf("levels run: %s\n", levels.c_str());
    const std::vector<DatapathShape> shapes = {
        {"sliding window d16, 8x8", sliding_window(64, 8), 16, 8, 8},
        {"longformer d8, 8x8", longformer(64, 8, 1), 8, 8, 8},
        {"dilated window d8, 8x8", dilated_window(64, -2, 2, 3), 8, 8, 8},
        {"vil_2d d8, 8x8", vil_2d(8, 8, 3, 3, 1), 8, 8, 8},
        {"many globals d8, 8x8", sparse_transformer_fixed(40, 8), 8, 8, 8},
        {"longformer d16, 8x8", longformer(128, 16, 1), 16, 8, 8},
        {"longformer d64 w64, two globals", longformer(256, 64, 2), 64, 32, 32},
        {"longformer d128", longformer(160, 64, 1), 128, 32, 32},
        {"dilated window", dilated_window(256, -12, 12, 3), 64, 32, 32},
        {"vil_2d, packed segments", vil_2d(12, 12, 5, 5, 1), 64, 32, 32},
        {"longformer on a 16x48 array", longformer(256, 96, 1), 64, 16, 48},
    };
    for (const DatapathShape& shape : shapes) {
        const AttentionWorkload workload{shape.name, shape.pattern, 2, shape.head_dim, 0, 0.0};
        const auto qkv = make_qkv(workload, 3);
        ArrayGeometry geometry;
        geometry.rows = shape.rows;
        geometry.cols = shape.cols;
        const SchedulePlan plan =
            schedule(shape.pattern, geometry, shape.head_dim, ScheduleOptions{});
        for (int h = 0; h < workload.heads; ++h)
            expect_production_matches_array(
                plan, quantize_input(qkv.q[h], workload.scale()), quantize<InputFx>(qkv.k[h]),
                quantize<InputFx>(qkv.v[h]), std::string(shape.name) + ", head " +
                                                  std::to_string(h));
    }

    // Every exponential underflows: q . k = 16 x 7.5 x -7.5 = -900. No part
    // carries mass, so neither side emits one or counts stage-5 MACs.
    {
        ArrayGeometry geometry;
        geometry.rows = 8;
        geometry.cols = 8;
        const HybridPattern pattern = sliding_window(32, 8);
        Rng rng(29);
        const Matrix<std::int8_t> q = quantize<InputFx>(Matrix<float>(32, 16, 7.5f));
        const Matrix<std::int8_t> k = quantize<InputFx>(Matrix<float>(32, 16, -7.5f));
        const Matrix<std::int8_t> v = quantize<InputFx>(random_matrix(32, 16, rng));
        expect_production_matches_array(schedule(pattern, geometry, 16, ScheduleOptions{}),
                                        q, k, v, "all exponentials underflow");
    }

    // Decode: each step's micro-plan runs one query row against the compact
    // [pinned globals][window] K/V of a stream that has evicted a global.
    const std::vector<Band> bands{Band{-7, 8, 1, 0}};
    const int heads = 2, d = 16;
    const SaloEngine engine{SaloConfig{}};
    QuantizedDecodeState state(heads, d, decode_window_span(bands), {0, 1});
    Rng rng(53);
    for (int t = 0; t < 16; ++t) {
        const Matrix<float> q_row = random_matrix(heads, d, rng);
        const Matrix<float> k_row = random_matrix(heads, d, rng);
        const Matrix<float> v_row = random_matrix(heads, d, rng);
        state.append(k_row, v_row);
        const std::vector<int> globals = t == 0 ? std::vector<int>{0} : std::vector<int>{0, 1};
        const CompiledPlanPtr micro =
            engine.compile_step(HybridPattern(t + 1, bands, globals), d);
        const auto [k, v] = state.assemble();
        for (int h = 0; h < heads; ++h) {
            Matrix<float> q(1, d);
            std::copy(q_row.row(h).begin(), q_row.row(h).end(), q.data().begin());
            expect_production_matches_array(
                micro->plan(), quantize_input(q, 0.25f), k[h], v[h],
                "decode step " + std::to_string(t) + ", head " + std::to_string(h));
        }
    }
}

TEST(CycleAccurate, MeasuredCyclesMatchFormulas) {
    Fixture f(longformer(64, 8, 1), 16, 6);
    const CycleAccurateArray array(f.geometry, CycleConfig{}, f.exp_unit, f.recip_unit,
                                   f.q, f.k, f.v);
    const CycleConfig ccfg;
    for (const TileTask& tile : f.plan.tiles) {
        std::vector<TilePart> parts;
        ActivityStats activity;
        const CycleBreakdown measured = array.run(tile, parts, activity);
        const CycleBreakdown formula = tile_cycles(tile, 16, ccfg);
        for (int s = 0; s < 5; ++s)
            EXPECT_EQ(measured.stage[s], formula.stage[s]) << "stage " << s;
    }
}

TEST(CycleAccurate, StageBreakdownShape) {
    // For d=16, rows=cols=8 fully used: stage1 = 16+8+8-2 = 30,
    // stage3 = 8 + recip_latency + 1, stage5 = 16+8-1+2 = 25.
    Fixture f(sliding_window(64, 8), 16, 7);
    const CycleAccurateArray array(f.geometry, CycleConfig{}, f.exp_unit, f.recip_unit,
                                   f.q, f.k, f.v);
    std::vector<TilePart> parts;
    ActivityStats activity;
    // Find a full-width interior tile.
    const TileTask* full = nullptr;
    for (const TileTask& tile : f.plan.tiles)
        if (tile.cols_used() == 8) full = &tile;
    ASSERT_NE(full, nullptr);
    const CycleBreakdown b = array.run(*full, parts, activity);
    EXPECT_EQ(b.stage[0], 30);
    EXPECT_EQ(b.stage[1], 3);
    EXPECT_EQ(b.stage[2], 8 + Reciprocal::Config{}.latency() + 1);
    EXPECT_EQ(b.stage[3], 1);
    EXPECT_EQ(b.stage[4], 25);
}

TEST(CycleConfigValidate, DefaultsPassAndBadFieldsAreNamed) {
    EXPECT_NO_THROW(CycleConfig{}.validate());

    CycleConfig c;
    c.exp_cycles = 0;
    try {
        c.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("exp_cycles"), std::string::npos);
    }

    c = CycleConfig{};
    c.broadcast_cycles = -1;
    try {
        c.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("broadcast_cycles"), std::string::npos);
    }

    c = CycleConfig{};
    c.wsm_cycles = -1;
    EXPECT_THROW(c.validate(), ContractViolation);

    c = CycleConfig{};
    c.recip.lut_bits = 0;
    try {
        c.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("lut_bits"), std::string::npos);
    }

    c = CycleConfig{};
    c.recip.nr_iters = 7;
    try {
        c.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("nr_iters"), std::string::npos);
    }
}

TEST(CycleConfigValidate, CycleAccurateArrayRejectsInvalidConfig) {
    Fixture f(longformer(64, 10, 1), 8, 3);
    CycleConfig bad;
    bad.stage4_cycles = 0;
    EXPECT_THROW(CycleAccurateArray(f.geometry, bad, f.exp_unit, f.recip_unit, f.q,
                                    f.k, f.v),
                 ContractViolation);
}

TEST(CycleAccurate, UtilizationBetweenZeroAndOne) {
    Fixture f(vil_2d(8, 8, 3, 3, 1), 8, 8);
    const CycleAccurateArray array(f.geometry, CycleConfig{}, f.exp_unit, f.recip_unit,
                                   f.q, f.k, f.v);
    ActivityStats activity;
    std::vector<TilePart> parts;
    for (const TileTask& tile : f.plan.tiles) array.run(tile, parts, activity);
    EXPECT_GT(activity.occupancy(), 0.0);
    EXPECT_LE(activity.occupancy(), 1.0);
    EXPECT_GT(activity.mac_utilization(), 0.0);
    EXPECT_LT(activity.mac_utilization(), 1.0);
}

}  // namespace
}  // namespace salo
