// Parallel execution: determinism across thread counts (one head per lane),
// the tile path against the row path, every kernel level against scalar,
// and the thread pool itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attention/streaming.hpp"
#include "common/assert.hpp"
#include "common/fault_injector.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "common/rng.hpp"
#include "numeric/datapath.hpp"
#include "numeric/quantize.hpp"
#include "sim/kernels.hpp"
#include "sim/tile_executor.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

SaloConfig config_with_threads(int threads, Fidelity fidelity = Fidelity::kFunctional) {
    SaloConfig c;
    c.geometry.rows = 8;
    c.geometry.cols = 8;
    c.fidelity = fidelity;
    c.num_threads = threads;
    return c;
}

LayerResult run_layer(const SaloConfig& config, const AttentionWorkload& workload,
                      const QkvSet& qkv) {
    const SaloEngine engine(config);
    return engine.run(*engine.compile(workload.pattern, workload.head_dim), qkv.q, qkv.k,
                      qkv.v, workload.scale());
}

void expect_identical(const LayerResult& a, const LayerResult& b, const char* what) {
    ASSERT_EQ(a.output.count(), b.output.count()) << what;
    for (int h = 0; h < a.output.count(); ++h)
        EXPECT_DOUBLE_EQ(max_abs_diff(a.output[h], b.output[h]), 0.0)
            << what << ", head " << h;
    EXPECT_EQ(a.stats.cycles, b.stats.cycles) << what;
    EXPECT_EQ(a.stats.tiles, b.stats.tiles) << what;
    EXPECT_EQ(a.stats.stage_totals.total(), b.stats.stage_totals.total()) << what;
    EXPECT_EQ(a.stats.activity.mac_ops, b.stats.activity.mac_ops) << what;
    EXPECT_EQ(a.stats.activity.exp_ops, b.stats.activity.exp_ops) << what;
    EXPECT_EQ(a.stats.activity.valid_slots, b.stats.activity.valid_slots) << what;
    EXPECT_EQ(a.stats.activity.pe_cycles, b.stats.activity.pe_cycles) << what;
}

// -------------------------------------------------------------------------
// Determinism: identical outputs AND identical SimStats for any thread
// count, at both fidelity levels. Each lane runs whole heads; the head
// counts leave lanes idle (3 heads on 4 or 8 lanes) or unevenly loaded
// (3 heads on 2 lanes, 5 on 4). The plans have many tiles and a global
// token.
// -------------------------------------------------------------------------

TEST(ParallelEngine, FunctionalDeterministicAcrossThreadCounts) {
    for (int heads : {3, 5}) {
        const auto workload = longformer_small(192, 16, heads, 16, 1);
        const auto qkv = make_qkv(workload, 11);
        const auto base = run_layer(config_with_threads(1), workload, qkv);
        for (int threads : {2, 3, 4, 8}) {
            const auto par = run_layer(config_with_threads(threads), workload, qkv);
            const std::string what = "functional, " + std::to_string(heads) + " heads, " +
                                     std::to_string(threads) + " threads";
            expect_identical(base, par, what.c_str());
        }
    }
}

TEST(ParallelEngine, CycleAccurateDeterministicAcrossThreadCounts) {
    for (int heads : {3, 5}) {
        const auto workload = longformer_small(64, 8, heads, 8, 1);
        const auto qkv = make_qkv(workload, 5);
        const auto base =
            run_layer(config_with_threads(1, Fidelity::kCycleAccurate), workload, qkv);
        for (int threads : {2, 3, 4, 8}) {
            const auto par =
                run_layer(config_with_threads(threads, Fidelity::kCycleAccurate), workload, qkv);
            const std::string what = "cycle-accurate, " + std::to_string(heads) +
                                     " heads, " + std::to_string(threads) + " threads";
            expect_identical(base, par, what.c_str());
        }
    }
}

TEST(ParallelEngine, SingleHeadRunAtEightLanesMatchesOneLane) {
    const auto pattern = longformer(256, 32, 1);
    Rng rng(7);
    const auto q = random_matrix(256, 16, rng, 0.0, 0.8);
    const auto k = random_matrix(256, 16, rng, 0.0, 0.8);
    const auto v = random_matrix(256, 16, rng, 0.0, 0.8);
    const SaloEngine one(config_with_threads(1));
    const SaloEngine eight(config_with_threads(8));
    const auto seq = one.run_head(*one.compile(pattern, 16), q, k, v, 0.25f);
    const auto par = eight.run_head(*eight.compile(pattern, 16), q, k, v, 0.25f);
    EXPECT_DOUBLE_EQ(max_abs_diff(seq.output, par.output), 0.0);
    EXPECT_EQ(seq.stats.cycles, par.stats.cycles);
    EXPECT_EQ(seq.stats.activity.mac_ops, par.stats.activity.mac_ops);
}

// -------------------------------------------------------------------------
// Output construction under failure: each lane builds its heads' output
// slices, so a run that throws part-way (cancelled mid-layer, or an
// injected EngineFault) leaves nothing half-built behind. The next run()
// on the same engine returns the full heads x n x d result, bit-identical
// to the one-lane run, and run_step still returns heads x 1 x d.
// -------------------------------------------------------------------------

TEST(ParallelEngine, FailedRunsLeaveTheNextRunWhole) {
    const auto workload = longformer_small(192, 16, 5, 16, 1);
    const auto qkv = make_qkv(workload, 23);
    const float scale = workload.scale();
    const SaloEngine engine(config_with_threads(4));
    const CompiledPlanPtr plan = engine.compile(workload.pattern, workload.head_dim);
    const auto base = run_layer(config_with_threads(1), workload, qkv);
    const auto expect_whole = [&](const char* what) {
        const LayerResult r = engine.run(*plan, qkv.q, qkv.k, qkv.v, scale);
        ASSERT_EQ(r.output.count(), workload.heads) << what;
        ASSERT_EQ(r.output.rows(), workload.pattern.n()) << what;
        ASSERT_EQ(r.output.cols(), workload.head_dim) << what;
        expect_identical(base, r, what);
    };

    // Cancelled mid-layer: every head stalls at tile 5 until the token fires.
    {
        FaultInjector::Config c;
        c.stall_tiles = {5};
        c.stall_for = std::chrono::microseconds(10'000'000);
        const FaultInjector stall(c);
        RunOptions options;
        options.cancel = CancellationToken::make();
        options.fault_injector = &stall;
        std::thread canceller([&] {
            const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (stall.stalls_injected() == 0 && std::chrono::steady_clock::now() < give_up)
                std::this_thread::yield();
            options.cancel.request_cancel();
        });
        EXPECT_THROW(engine.run(*plan, qkv.q, qkv.k, qkv.v, scale, options), RequestCancelled);
        canceller.join();
        EXPECT_GE(stall.tiles_seen(), 6u);  // it got past tile 0 first
    }
    expect_whole("after a cancelled run");

    // An EngineFault from the injector at tile 3 of every head.
    {
        FaultInjector::Config c;
        c.fault_tiles = {3};
        const FaultInjector fault(c);
        RunOptions options;
        options.fault_injector = &fault;
        EXPECT_THROW(engine.run(*plan, qkv.q, qkv.k, qkv.v, scale, options), EngineFault);
        EXPECT_GE(fault.faults_injected(), 1u);
    }
    expect_whole("after an EngineFault");

    // A decode step on the same engine still returns heads x 1 x d.
    const std::vector<Band> bands{Band{-7, 8, 1, 0}};
    const int heads = 3, d = 16;
    QuantizedDecodeState state(heads, d, decode_window_span(bands), {0});
    Rng rng(31);
    for (int t = 0; t < 12; ++t) state.append(random_matrix(heads, d, rng),
                                              random_matrix(heads, d, rng));
    const CompiledPlanPtr micro = engine.compile_step(HybridPattern(12, bands, {0}), d);
    const auto [k, v] = state.assemble();
    const Matrix<float> q_row = random_matrix(heads, d, rng);
    const StepResult step = engine.run_step(*micro, q_row, k, v, 0.25f);
    EXPECT_EQ(step.output.count(), heads);
    EXPECT_EQ(step.output.rows(), 1);
    EXPECT_EQ(step.output.cols(), d);
    RunOptions one_lane;
    one_lane.thread_budget = 1;
    const StepResult seq = engine.run_step(*micro, q_row, k, v, 0.25f, one_lane);
    for (int h = 0; h < heads; ++h)
        EXPECT_DOUBLE_EQ(max_abs_diff(step.output[h], seq.output[h]), 0.0) << "head " << h;
}

// -------------------------------------------------------------------------
// Part and activity comparison for the datapath tests below. The production
// datapath's oracle test (against the cycle-accurate array) lives in
// test_cycle_accurate.cpp.
// -------------------------------------------------------------------------

::testing::AssertionResult same_parts(const PartArena& a, const PartArena& b) {
    if (a.used() != b.used())
        return ::testing::AssertionFailure() << a.used() << " vs " << b.used() << " parts";
    for (std::size_t i = 0; i < a.used(); ++i) {
        const TilePart& x = a.at(i);
        const TilePart& y = b.at(i);
        if (x.query != y.query || x.weight != y.weight || x.out_q != y.out_q)
            return ::testing::AssertionFailure()
                   << "part " << i << ": query " << x.query << "/" << y.query << ", weight "
                   << x.weight << "/" << y.weight;
    }
    return ::testing::AssertionSuccess();
}

void expect_same_activity(const ActivityStats& a, const ActivityStats& b,
                          const std::string& what) {
    EXPECT_EQ(a.mac_ops, b.mac_ops) << what;
    EXPECT_EQ(a.exp_ops, b.exp_ops) << what;
    EXPECT_EQ(a.valid_slots, b.valid_slots) << what;
    EXPECT_EQ(a.array_slots, b.array_slots) << what;
    EXPECT_EQ(a.pe_cycles, b.pe_cycles) << what;
}

// -------------------------------------------------------------------------
// Every kernel level this host runs vs the scalar level, kernel_sets().back().
// -------------------------------------------------------------------------

const kernels::KernelSet& scalar_set() { return kernels::kernel_sets().back(); }

TEST(Kernels, RowDotAndWaccMatchScalarAtEveryLevel) {
    // 32 is decode's d; 64 and 128 are the register-cached limits of the
    // AVX2 and AVX-512 wacc, and 136 is past both.
    Rng rng(2);
    for (int d : {1, 3, 8, 16, 20, 31, 32, 64, 96, 100, 128, 136, 256}) {
        const int n = 50, count = 37;
        std::vector<std::int8_t> q(static_cast<std::size_t>(d));
        std::vector<std::int8_t> base(static_cast<std::size_t>(n) * d);
        for (auto& x : q) x = static_cast<std::int8_t>(rng.uniform_index(256) - 128);
        for (auto& x : base) x = static_cast<std::int8_t>(rng.uniform_index(256) - 128);
        std::vector<int> keys(count);
        std::vector<std::uint32_t> sps(count);
        for (int i = 0; i < count; ++i) {
            keys[i] = static_cast<int>(rng.uniform_index(n));
            sps[i] = i % 5 == 0 ? 0 : rng.uniform_index(1 << 15);
        }
        // Extremes: sp past int16 (a single-element part's sp is 32768, and
        // real parts reach 32771) against all -128 and all 127 V rows.
        std::fill_n(base.begin(), d, std::int8_t{-128});
        std::fill_n(base.begin() + d, d, std::int8_t{127});
        const std::uint32_t wide[] = {32767, 32768, 32771};
        for (int i = 0; i < 6; ++i) {
            keys[static_cast<std::size_t>(1 + i)] = i % 2;
            sps[static_cast<std::size_t>(1 + i)] = wide[i % 3];
        }
        std::vector<std::int32_t> want_scores(count);
        scalar_set().dot_rows(q.data(), base.data(), keys.data(), count, d,
                              want_scores.data());
        std::vector<std::int32_t> want_acc(static_cast<std::size_t>(d), 7);
        scalar_set().wacc(want_acc.data(), sps.data(), keys.data(), count, base.data(), d);
        for (const kernels::KernelSet& ks : kernels::kernel_sets()) {
            // count 1 is the global PE column's call.
            for (const int c : {count, 1}) {
                std::vector<std::int32_t> scores(count, -1);
                ks.dot_rows(q.data(), base.data(), keys.data(), c, d, scores.data());
                EXPECT_TRUE(std::equal(scores.begin(), scores.begin() + c, want_scores.begin()))
                    << ks.name << ": dot_rows d=" << d << " count=" << c;
            }
            std::vector<std::int32_t> acc(static_cast<std::size_t>(d), 7);
            ks.wacc(acc.data(), sps.data(), keys.data(), count, base.data(), d);
            EXPECT_EQ(acc, want_acc) << ks.name << ": wacc d=" << d;
        }
    }
}

// -------------------------------------------------------------------------
// Tile path vs row path on generated tiles: random segment layouts
// (1-3 segments, dilation 1-3), stream keys running off both ends of
// [0, n), clipped and single-slot valid masks, inactive rows, global PE
// row and column work, extreme V rows, rows in {1, R, 32} and d in
// {16, 32, 64, 128}. Every TilePart and the ActivityStats must match.
// -------------------------------------------------------------------------

TileTask random_tile(Rng& rng, int active, int n) {
    const int rows = rng.uniform_index(2) == 0 ? 32 : active;  // active <= 32
    const int cols = std::vector<int>{8, 16, 32, 40}[rng.uniform_index(4)];
    TileTask tile;
    tile.query_ids.assign(static_cast<std::size_t>(rows), -1);
    const int first = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(rows - active + 1)));
    for (int r = first; r < first + active; ++r)
        tile.query_ids[static_cast<std::size_t>(r)] = static_cast<int>(rng.uniform_index(n));
    const int num_segments = 1 + static_cast<int>(rng.uniform_index(3));
    int col = 0;
    for (int s = 0; s < num_segments && col < cols; ++s) {
        TileSegment seg;
        seg.col_begin = col;
        seg.col_end = s + 1 == num_segments
                          ? cols
                          : col + 1 + static_cast<int>(rng.uniform_index(cols - col));
        seg.dilation = 1 + static_cast<int>(rng.uniform_index(3));
        // Streams start up to one stream length before key 0 and may run
        // past n - 1.
        const int span = seg.stream_length(rows) * seg.dilation;
        seg.key_base = static_cast<std::int64_t>(rng.uniform_index(n + span)) - span;
        col = seg.col_end;
        tile.segments.push_back(seg);
    }
    tile.valid.assign(static_cast<std::size_t>(rows) * cols, 0);
    for (int r = 0; r < rows; ++r) {
        if (tile.query_ids[static_cast<std::size_t>(r)] < 0) continue;
        const int mode = static_cast<int>(rng.uniform_index(4));  // 0 empty, 1 one slot
        std::vector<int> in_range;
        for (const TileSegment& seg : tile.segments)
            for (int c = seg.col_begin; c < seg.col_end; ++c) {
                const std::int64_t key = seg.key_at(r, c);
                if (key >= 0 && key < n) in_range.push_back(c);
            }
        if (mode == 0 || in_range.empty()) continue;
        if (mode == 1) {
            tile.valid[static_cast<std::size_t>(r * cols +
                                                in_range[rng.uniform_index(in_range.size())])] = 1;
            continue;
        }
        for (int c : in_range)
            if (mode == 3 || rng.uniform_index(4) != 0)
                tile.valid[static_cast<std::size_t>(r * cols + c)] = 1;
    }
    if (rng.uniform_index(2) == 0) {
        tile.global_col_key = static_cast<int>(rng.uniform_index(n));
        tile.global_col_rows.assign(static_cast<std::size_t>(rows), 0);
        for (int r = 0; r < rows; ++r)
            if (tile.query_ids[static_cast<std::size_t>(r)] >= 0 && rng.uniform_index(2) == 0)
                tile.global_col_rows[static_cast<std::size_t>(r)] = 1;
    }
    tile.global_fresh.assign(static_cast<std::size_t>(tile.total_stream_length()), 0);
    if (rng.uniform_index(2) == 0) {
        tile.global_row_query = static_cast<int>(rng.uniform_index(n));
        int slot = 0;
        for (const TileSegment& seg : tile.segments)
            for (int s = 0; s < seg.stream_length(rows); ++s, ++slot) {
                const std::int64_t key = seg.stream_key(s);
                if (key >= 0 && key < n && rng.uniform_index(3) == 0)
                    tile.global_fresh[static_cast<std::size_t>(slot)] = 1;
            }
    }
    return tile;
}

TEST(TilePath, MatchesRowPathOnGeneratedTiles) {
    // The row path comes from an executor on the first level without the
    // tile fields: avx512, with the same row kernels as avx512vnni.
    const auto& sets = kernels::kernel_sets();
    const auto row_set =
        std::find_if(sets.begin(), sets.end(),
                     [](const kernels::KernelSet& ks) { return !ks.has_tile_path(); });
    ASSERT_NE(row_set, sets.end());
    if (!sets.front().has_tile_path())
        GTEST_SKIP() << "host lacks AVX-512 F+BW+DQ+VL+VNNI: the tile path cannot run";
    constexpr int n = 300;
    constexpr int R = TileExecutor::kTilePathMinRows;
    const PwlExp exp_unit;
    const Reciprocal recip_unit;
    for (const kernels::KernelSet& ks : sets) {
        if (!ks.has_tile_path()) continue;
        Rng rng(17);
        for (const int d : {16, 32, 64, 128}) {
            auto random_i8 = [&](int lo, int hi) {
                Matrix<std::int8_t> m(n, d);
                for (auto& x : m.data())
                    x = static_cast<std::int8_t>(
                        lo + static_cast<int>(rng.uniform_index(hi - lo + 1)));
                return m;
            };
            const Matrix<std::int8_t> q = random_i8(-40, 40);
            const Matrix<std::int8_t> k = random_i8(-40, 40);
            Matrix<std::int8_t> v = random_i8(-128, 127);
            for (int t = 0; t < d; ++t) {
                v(3, t) = -128;
                v(4, t) = 127;
            }
            const TileExecutor exec(exp_unit, recip_unit, q, k, v, ks);
            const TileExecutor row_exec(exp_unit, recip_unit, q, k, v, *row_set);
            PartArena tiled, rows;
            PartScratch tiled_scratch, rows_scratch;
            for (const int active : {1, R, 32}) {
                for (int trial = 0; trial < 40; ++trial) {
                    const TileTask tile = random_tile(rng, active, n);
                    const std::string what = std::string(ks.name) + " vs " + row_set->name +
                                             ": d=" + std::to_string(d) +
                                             " rows=" + std::to_string(active) + " trial " +
                                             std::to_string(trial);
                    ASSERT_EQ(exec.tile_path(tile), active >= R) << what;
                    ASSERT_FALSE(row_exec.tile_path(tile)) << what;
                    ActivityStats a, b;
                    tiled.reset();
                    rows.reset();
                    exec.run(tile, tiled, a, tiled_scratch);
                    row_exec.run(tile, rows, b, rows_scratch);
                    ASSERT_TRUE(same_parts(tiled, rows)) << what;
                    expect_same_activity(a, b, what);
                }
            }
            // A valid slot whose key lies outside [0, n) trips the same
            // contract check on both paths.
            TileTask bad = random_tile(rng, 32, n);
            bad.segments.resize(1);
            bad.segments[0].col_begin = 0;
            bad.segments[0].col_end = bad.cols();
            bad.segments[0].dilation = 1;
            bad.segments[0].key_base = n - 1;
            bad.valid[1] = 1;  // row 0, column 1: key n
            bad.global_row_query = -1;
            bad.global_col_key = -1;
            tiled.reset();
            ActivityStats ignored;
            EXPECT_THROW(exec.run(bad, tiled, ignored, tiled_scratch), ContractViolation)
                << ks.name;
            EXPECT_THROW(row_exec.run(bad, tiled, ignored, rows_scratch), ContractViolation)
                << row_set->name;
        }
    }
}

TEST(Kernels, BatchedPwlExpMatchesScalarUnit) {
    const PwlExp unit;  // default: 8 segments — batch-eligible
    ASSERT_EQ(unit.config().seg_bits, 3);
    // Extremes go FIRST so the SIMD lanes (which process a multiple-of-8
    // prefix) cover them rather than leaving them to the scalar tail.
    std::vector<ScoreRaw> xs = {std::numeric_limits<ScoreRaw>::min(),
                                std::numeric_limits<ScoreRaw>::max(), 0, -1, 1,
                                -255, 255, 4096};
    for (int i = -3000; i <= 3000; i += 7) xs.push_back(i);
    const kernels::PwlExpParams params{unit.slope_data(), unit.icept_data(),
                                       unit.config().lut_frac, unit.config().y_min,
                                       unit.config().y_max};
    int levels = 0;
    for (const kernels::KernelSet& ks : kernels::kernel_sets()) {
        if (ks.pwl_exp_batch == nullptr) continue;
        ++levels;
        std::vector<ExpRaw> batch(xs.size());
        const int done = ks.pwl_exp_batch(params, xs.data(), batch.data(),
                                          static_cast<int>(xs.size()));
        ASSERT_GT(done, 0) << ks.name;
        for (int i = 0; i < done; ++i)
            ASSERT_EQ(batch[static_cast<std::size_t>(i)], unit.exp_raw(xs[static_cast<std::size_t>(i)]))
                << ks.name << ": x=" << xs[static_cast<std::size_t>(i)];
    }
    if (levels == 0) GTEST_SKIP() << "no level on this host has a batched PWL kernel";
}

TEST(Kernels, RoundShiftAndMixMatchScalar) {
    Rng rng(3);
    for (const int count : {7, 16, 100}) {
        std::vector<std::int32_t> v(static_cast<std::size_t>(count));
        for (auto& x : v) x = static_cast<std::int32_t>(rng.uniform_index(1 << 24)) - (1 << 23);
        std::vector<std::int32_t> want = v;
        scalar_set().round_shift(want.data(), count, 3);
        for (const kernels::KernelSet& ks : kernels::kernel_sets()) {
            std::vector<std::int32_t> got = v;
            ks.round_shift(got.data(), count, 3);
            EXPECT_EQ(got, want) << ks.name << ": round_shift count=" << count;
        }
    }
    // d = 20 leaves a 4-element tail after the 8-wide lanes. The weights
    // span [0, 2^sprime_frac] and the running outputs the whole int32 range
    // (signed 32 x 32 -> 64-bit products).
    const std::uint32_t one = std::uint32_t{1} << Datapath::sprime_frac;
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> weights = {
        {20000, 12768}, {one, 0}, {0, one}, {one / 2, one / 2}, {1, one - 1}};
    for (const int d : {8, 20, 64}) {
        for (const bool full_range : {false, true}) {
            std::vector<std::int32_t> out(static_cast<std::size_t>(d)), in(out.size());
            for (auto* xs : {&out, &in})
                for (auto& x : *xs)
                    x = full_range ? static_cast<std::int32_t>(rng.next_u64())
                                   : static_cast<std::int32_t>(rng.uniform_index(1 << 20)) -
                                         (1 << 19);
            for (const auto& [a, b] : weights) {
                std::vector<std::int32_t> want = out;
                scalar_set().mix(want.data(), in.data(), a, b, d);
                for (const kernels::KernelSet& ks : kernels::kernel_sets()) {
                    std::vector<std::int32_t> got = out;
                    ks.mix(got.data(), in.data(), a, b, d);
                    EXPECT_EQ(got, want) << ks.name << ": mix d=" << d << ", a=" << a
                                         << ", b=" << b << (full_range ? ", full range" : "");
                }
            }
        }
    }
}

// -------------------------------------------------------------------------
// The Q3.4 input quantizer: every ISA level this host runs against
// InputFx::from_float of the float-rounded product — the scalar conversion
// the kernel replaces.
// -------------------------------------------------------------------------

float float_from_bits(std::uint32_t bits) {
    float f = 0.0f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

std::string hex_bits(float f) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof f);
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", bits);
    return buf;
}

::testing::AssertionResult quantizer_matches_from_float(const std::vector<float>& xs,
                                                        float scale) {
    std::vector<std::int8_t> want(xs.size()), got(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        want[i] = InputFx::from_float(xs[i] * scale).raw();
    for (const kernels::KernelSet& ks : kernels::kernel_sets()) {
        std::fill(got.begin(), got.end(), std::int8_t{0x55});
        ks.quantize(xs.data(), xs.size(), scale, got.data());
        if (got == want) continue;
        for (std::size_t i = 0; i < xs.size(); ++i)
            if (got[i] != want[i])
                return ::testing::AssertionFailure()
                       << ks.name << ": x bits " << hex_bits(xs[i]) << " (" << xs[i]
                       << ") scale " << scale << " -> "
                       << static_cast<int>(got[i]) << ", from_float "
                       << static_cast<int>(want[i]);
    }
    return ::testing::AssertionSuccess();
}

TEST(Kernels, LevelsWidestFirstScalarLast) {
    const auto& sets = kernels::kernel_sets();
    const std::vector<std::string> order = {"avx512vnni", "avx512", "avx2", "scalar"};
    ASSERT_FALSE(sets.empty());
    std::size_t rank = 0;
    for (const kernels::KernelSet& ks : sets) {
        const auto it = std::find(order.begin() + static_cast<std::ptrdiff_t>(rank),
                                  order.end(), ks.name);
        ASSERT_NE(it, order.end()) << ks.name << ": unknown, repeated or out of order";
        rank = static_cast<std::size_t>(it - order.begin()) + 1;
        // The tile fields come all together, on avx512vnni only.
        const bool tile = ks.name == std::string("avx512vnni");
        EXPECT_EQ(ks.stage_k != nullptr, tile) << ks.name;
        EXPECT_EQ(ks.stage_v != nullptr, tile) << ks.name;
        EXPECT_EQ(ks.score_band != nullptr, tile) << ks.name;
        EXPECT_EQ(ks.select != nullptr, tile) << ks.name;
        EXPECT_EQ(ks.wacc_stream != nullptr, tile) << ks.name;
        EXPECT_TRUE(ks.dot_rows && ks.wacc && ks.normalize_probs && ks.round_shift &&
                    ks.mix && ks.quantize)
            << ks.name;
    }
    EXPECT_STREQ(sets.back().name, "scalar");
    EXPECT_EQ(&kernels::dispatched(), &sets.front());
    EXPECT_STREQ(kernels::isa_name(), sets.front().name);
}

TEST(Kernels, QuantizerExhaustiveOverTheRoundingRange) {
    // Every float with |16x| in [2^-1, 2^8), both signs: biased exponents
    // 122..130. Below it everything rounds to 0, above it saturates.
    constexpr std::uint32_t lo = 122u << 23, hi = 131u << 23;
    constexpr std::uint32_t chunk = 1u << 16;
    std::vector<float> xs;
    xs.reserve(chunk);
    for (const std::uint32_t sign : {0u, 0x8000'0000u}) {
        for (std::uint32_t base = lo; base < hi; base += chunk) {
            xs.clear();
            for (std::uint32_t b = base; b < base + chunk; ++b)
                xs.push_back(float_from_bits(sign | b));
            ASSERT_TRUE(quantizer_matches_from_float(xs, 1.0f));
        }
    }
}

TEST(Kernels, QuantizerSpecialValuesInEveryLane) {
    const std::vector<std::uint32_t> bits = {
        0x0000'0000u, 0x8000'0000u,  // +-0
        0x0000'0001u, 0x8000'0001u,  // +-min denormal
        0x007f'ffffu, 0x807f'ffffu,  // +-max denormal
        0x0080'0000u, 0x8080'0000u,  // +-FLT_MIN
        0x7f7f'ffffu, 0xff7f'ffffu,  // +-FLT_MAX
        0x7f80'0000u, 0xff80'0000u,  // +-inf
        0x7fc0'0000u, 0xffc0'0000u,  // quiet NaNs
        0x7fc0'1234u, 0xffff'ffffu,  // quiet NaNs with payloads
        0x7f80'0001u, 0xff80'0001u,  // signalling NaNs
        0x7fa0'0000u, 0xffbf'ffffu,  // signalling NaNs with payloads
    };
    std::vector<float> specials;
    for (std::uint32_t b : bits) specials.push_back(float_from_bits(b));
    // The saturation edges: 127/16 and -128/16 and their neighbours.
    for (const float edge : {127.0f / 16.0f, 127.5f / 16.0f, 128.0f / 16.0f,
                             -128.0f / 16.0f, -128.5f / 16.0f, -129.0f / 16.0f})
        for (const float x : {std::nextafter(edge, -1e9f), edge, std::nextafter(edge, 1e9f)})
            specials.push_back(x);
    // Shift the block through every lane position of a 32-wide vector and
    // into the scalar/masked tails.
    for (std::size_t offset = 0; offset < 32; ++offset) {
        std::vector<float> xs(offset, 0.25f);
        xs.insert(xs.end(), specials.begin(), specials.end());
        ASSERT_TRUE(quantizer_matches_from_float(xs, 1.0f)) << "offset " << offset;
    }
}

TEST(Kernels, QuantizerRoundsEveryTieToEven) {
    std::vector<float> ties;
    for (int k = -140; k < 140; ++k) ties.push_back((static_cast<float>(k) + 0.5f) / 16.0f);
    ASSERT_TRUE(quantizer_matches_from_float(ties, 1.0f));
    std::vector<std::int8_t> q(ties.size());
    kernels::dispatched().quantize(ties.data(), ties.size(), 1.0f, q.data());
    for (std::size_t i = 0; i < ties.size(); ++i) {
        const int k = static_cast<int>(i) - 140;
        const int even = k % 2 == 0 ? k : k + 1;  // (k + 0.5) -> the even neighbour
        EXPECT_EQ(q[i], std::clamp(even, -128, 127)) << "tie (" << k << " + 0.5) / 16";
    }
}

TEST(Kernels, QuantizerScaledPathMatchesPrescaledFromFloat) {
    Rng rng(5);
    for (const int d : {16, 32, 64}) {
        const float scale = 1.0f / std::sqrt(static_cast<float>(d));
        std::vector<float> xs;
        // A strided sweep of all 2^32 bit patterns (every exponent, NaNs
        // and infinities included), activations, and the inputs whose
        // prescaled value lands on or beside a rounding tie.
        for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4099)
            xs.push_back(float_from_bits(static_cast<std::uint32_t>(b)));
        for (int i = 0; i < 100000; ++i) xs.push_back(static_cast<float>(rng.normal(0.0, 8.0)));
        for (int k = -140; k < 140; ++k) {
            const float x = (static_cast<float>(k) + 0.5f) / 16.0f / scale;
            xs.push_back(std::nextafter(x, -1e9f));
            xs.push_back(x);
            xs.push_back(std::nextafter(x, 1e9f));
        }
        ASSERT_TRUE(quantizer_matches_from_float(xs, scale)) << "d=" << d;
    }
}

TEST(Kernels, QuantizeInputFxRoutesThroughTheKernel) {
    Rng rng(6);
    const Matrix<float> m = random_matrix(37, 19, rng, 0.0, 4.0);
    const Matrix<std::int8_t> q = quantize<InputFx>(m);
    const Matrix<std::int8_t> qs = quantize_input(m, 0.25f);
    for (int r = 0; r < m.rows(); ++r)
        for (int c = 0; c < m.cols(); ++c) {
            EXPECT_EQ(q(r, c), InputFx::from_float(m(r, c)).raw());
            EXPECT_EQ(qs(r, c), InputFx::from_float(m(r, c) * 0.25f).raw());
        }
}

// -------------------------------------------------------------------------
// The pool itself.
// -------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.lanes(), 4);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(257, [&](int i, int lane) {
        ASSERT_GE(lane, 0);
        ASSERT_LT(lane, 4);
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.lanes(), 1);
    int sum = 0;
    pool.parallel_for(10, [&](int i, int lane) {
        EXPECT_EQ(lane, 0);
        sum += i;
    });
    EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
    ThreadPool pool(3);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](int i, int) {
                              if (i == 31) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool survives and is reusable after a failed run.
    std::atomic<int> count{0};
    pool.parallel_for(50, [&](int, int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ThrowingTaskDoesNotAbandonSiblings) {
    // Fault isolation: one throwing index must not stop the region — every
    // other index still runs exactly once, and the first exception is
    // rethrown to the caller after the region completes. (The old pool
    // abandoned unclaimed indices on the first throw, which would let one
    // faulted request in a served batch starve its batch siblings.)
    for (int lanes : {1, 4}) {
        ThreadPool pool(lanes);
        std::vector<std::atomic<int>> hits(97);
        for (auto& h : hits) h.store(0);
        bool threw = false;
        try {
            pool.parallel_for(97, [&](int i, int) {
                hits[static_cast<std::size_t>(i)].fetch_add(1);
                if (i == 13) throw std::runtime_error("injected");
            });
        } catch (const std::runtime_error& e) {
            threw = true;
            EXPECT_STREQ(e.what(), "injected");
        }
        EXPECT_TRUE(threw) << "lanes=" << lanes;
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "lanes=" << lanes;
    }
}

TEST(ThreadPool, EngineDefaultsToHardwareConcurrency) {
    SaloConfig c;
    EXPECT_EQ(c.num_threads, default_num_threads());
    EXPECT_GE(c.num_threads, 1);
}

}  // namespace
}  // namespace salo
