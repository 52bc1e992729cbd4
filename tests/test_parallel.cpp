// Parallel execution: determinism across thread counts (one head per lane),
// the reference-vs-optimized datapath bit-identity, the dispatched kernels,
// and the thread pool itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "common/rng.hpp"
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
        const auto base = SaloEngine(config_with_threads(1))
                              .run(workload.pattern, qkv.q, qkv.k, qkv.v, workload.scale());
        for (int threads : {2, 3, 4, 8}) {
            const auto par = SaloEngine(config_with_threads(threads))
                                 .run(workload.pattern, qkv.q, qkv.k, qkv.v,
                                      workload.scale());
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
            SaloEngine(config_with_threads(1, Fidelity::kCycleAccurate))
                .run(workload.pattern, qkv.q, qkv.k, qkv.v, workload.scale());
        for (int threads : {2, 3, 4, 8}) {
            const auto par =
                SaloEngine(config_with_threads(threads, Fidelity::kCycleAccurate))
                    .run(workload.pattern, qkv.q, qkv.k, qkv.v, workload.scale());
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
    const auto seq = SaloEngine(config_with_threads(1)).run_head(pattern, q, k, v, 0.25f);
    const auto par = SaloEngine(config_with_threads(8)).run_head(pattern, q, k, v, 0.25f);
    EXPECT_DOUBLE_EQ(max_abs_diff(seq.output, par.output), 0.0);
    EXPECT_EQ(seq.stats.cycles, par.stats.cycles);
    EXPECT_EQ(seq.stats.activity.mac_ops, par.stats.activity.mac_ops);
}

// -------------------------------------------------------------------------
// Reference (seed) datapath vs optimized kernels: bit-identical end to end.
// -------------------------------------------------------------------------

TEST(ParallelEngine, ReferenceDatapathBitIdenticalToOptimized) {
    const auto workload = longformer_small(128, 16, 2, 16, 1);
    const auto qkv = make_qkv(workload, 3);
    SaloConfig ref_cfg = config_with_threads(1);
    ref_cfg.reference_datapath = true;
    const auto ref = SaloEngine(ref_cfg).run(workload.pattern, qkv.q, qkv.k, qkv.v,
                                             workload.scale());
    for (int threads : {1, 8}) {
        const auto opt = SaloEngine(config_with_threads(threads))
                             .run(workload.pattern, qkv.q, qkv.k, qkv.v,
                                  workload.scale());
        expect_identical(ref, opt, "reference vs optimized");
    }
}

// -------------------------------------------------------------------------
// Dispatched kernels vs scalar reference.
// -------------------------------------------------------------------------

TEST(Kernels, DispatchedDotMatchesScalar) {
    Rng rng(1);
    for (int d : {1, 3, 8, 16, 31, 64, 100, 256}) {
        std::vector<std::int8_t> q(static_cast<std::size_t>(d)), k(q.size());
        for (auto& x : q) x = static_cast<std::int8_t>(rng.uniform_index(256) - 128);
        for (auto& x : k) x = static_cast<std::int8_t>(rng.uniform_index(256) - 128);
        EXPECT_EQ(kernels::dot_i8(q.data(), k.data(), d),
                  kernels::dot_i8_scalar(q.data(), k.data(), d))
            << "d=" << d;
    }
}

TEST(Kernels, DispatchedRowDotAndWaccMatchScalar) {
    Rng rng(2);
    for (int d : {8, 16, 64, 96}) {
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
        std::vector<std::int32_t> s1(count), s2(count);
        kernels::dot_i8_rows(q.data(), base.data(), keys.data(), count, d, s1.data());
        kernels::dot_i8_rows_scalar(q.data(), base.data(), keys.data(), count, d,
                                    s2.data());
        EXPECT_EQ(s1, s2) << "dot rows d=" << d;

        std::vector<std::int32_t> a1(static_cast<std::size_t>(d), 7);
        std::vector<std::int32_t> a2(a1);
        kernels::wacc_sp_i8(a1.data(), sps.data(), keys.data(), count, base.data(), d);
        kernels::wacc_sp_i8_scalar(a2.data(), sps.data(), keys.data(), count,
                                   base.data(), d);
        EXPECT_EQ(a1, a2) << "wacc d=" << d;
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
    std::vector<ExpRaw> batch(xs.size());
    if (kernels::pwl_exp_batch != nullptr) {
        const kernels::PwlExpParams params{unit.slope_data(), unit.icept_data(),
                                           unit.config().lut_frac, unit.config().y_min,
                                           unit.config().y_max};
        const int done = kernels::pwl_exp_batch(params, xs.data(), batch.data(),
                                                static_cast<int>(xs.size()));
        ASSERT_GT(done, 0);
        for (int i = 0; i < done; ++i)
            ASSERT_EQ(batch[static_cast<std::size_t>(i)], unit.exp_raw(xs[static_cast<std::size_t>(i)]))
                << "x=" << xs[static_cast<std::size_t>(i)];
    } else {
        GTEST_SKIP() << "no SIMD batch kernel on this host";
    }
}

TEST(Kernels, RoundShiftAndMixMatchScalar) {
    Rng rng(3);
    std::vector<std::int32_t> v1(100), v2;
    for (auto& x : v1) x = static_cast<std::int32_t>(rng.uniform_index(1 << 24)) - (1 << 23);
    v2 = v1;
    kernels::round_shift_i32(v1.data(), static_cast<int>(v1.size()), 3);
    kernels::round_shift_i32_scalar(v2.data(), static_cast<int>(v2.size()), 3);
    EXPECT_EQ(v1, v2);

    std::vector<std::int32_t> o1(64), in(64);
    for (auto& x : o1) x = static_cast<std::int32_t>(rng.uniform_index(1 << 20)) - (1 << 19);
    for (auto& x : in) x = static_cast<std::int32_t>(rng.uniform_index(1 << 20)) - (1 << 19);
    std::vector<std::int32_t> o2 = o1;
    kernels::mix_i32(o1.data(), in.data(), 20000, 12768, 64);
    kernels::mix_i32_scalar(o2.data(), in.data(), 20000, 12768, 64);
    EXPECT_EQ(o1, o2);
}

// -------------------------------------------------------------------------
// The Q3.4 input quantizer: every ISA level this host runs (the dispatched
// one is the widest) against InputFx::from_float of the float-rounded
// product — the scalar conversion the kernel replaces.
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
    for (const auto& [name, fn] : kernels::quantize_i8_levels()) {
        std::fill(got.begin(), got.end(), std::int8_t{0x55});
        fn(xs.data(), xs.size(), scale, got.data());
        if (got == want) continue;
        for (std::size_t i = 0; i < xs.size(); ++i)
            if (got[i] != want[i])
                return ::testing::AssertionFailure()
                       << name << ": x bits " << hex_bits(xs[i]) << " (" << xs[i]
                       << ") scale " << scale << " -> "
                       << static_cast<int>(got[i]) << ", from_float "
                       << static_cast<int>(want[i]);
    }
    return ::testing::AssertionSuccess();
}

TEST(Kernels, QuantizerDispatchesToWidestLevel) {
    const auto levels = kernels::quantize_i8_levels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front().second, kernels::quantize_i8);
    EXPECT_STREQ(levels.back().first, "scalar");
    EXPECT_EQ(levels.back().second, kernels::quantize_i8_scalar);
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
    kernels::quantize_i8(ties.data(), ties.size(), 1.0f, q.data());
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
    for (int chunk : {1, 7}) {
        std::vector<std::atomic<int>> hits(257);
        for (auto& h : hits) h.store(0);
        pool.parallel_for(
            257, [&](int i, int lane) {
                ASSERT_GE(lane, 0);
                ASSERT_LT(lane, 4);
                hits[static_cast<std::size_t>(i)].fetch_add(1);
            },
            chunk);
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
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
