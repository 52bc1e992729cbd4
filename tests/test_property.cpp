// Property-based tests: randomized patterns and shapes, with the scheduler
// coverage invariant and the simulator-vs-golden equivalence as properties.
#include <gtest/gtest.h>

#include "attention/golden.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "numeric/quantize.hpp"
#include "scheduler/scheduler.hpp"

namespace salo {
namespace {

/// Draw a random hybrid pattern: 1-3 bands with random ranges/dilations
/// plus 0-2 global tokens.
HybridPattern random_pattern(Rng& rng, int n) {
    const int num_bands = 1 + static_cast<int>(rng.uniform_index(3));
    std::vector<Band> bands;
    for (int b = 0; b < num_bands; ++b) {
        Band band;
        band.dilation = 1 + static_cast<int>(rng.uniform_index(4));
        band.count = 2 + static_cast<int>(rng.uniform_index(10));
        band.lo = static_cast<int>(rng.uniform_index(17)) - 8;
        bands.push_back(band);
    }
    std::vector<int> globals;
    const int ng = static_cast<int>(rng.uniform_index(3));
    for (int g = 0; g < ng; ++g)
        globals.push_back(static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n))));
    return HybridPattern(n, std::move(bands), std::move(globals));
}

class RandomPattern : public ::testing::TestWithParam<int> {};

TEST_P(RandomPattern, SchedulerCoversExactly) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    const int n = 24 + static_cast<int>(rng.uniform_index(60));
    const auto pattern = random_pattern(rng, n);
    ArrayGeometry geometry;
    geometry.rows = 4 + static_cast<int>(rng.uniform_index(3)) * 4;   // 4, 8, 12
    geometry.cols = 4 + static_cast<int>(rng.uniform_index(3)) * 4;
    ScheduleOptions options;
    options.packing =
        rng.uniform() < 0.5 ? PackingMode::kPacked : PackingMode::kPerBand;
    const SchedulePlan plan = schedule(pattern, geometry, 8, options);
    std::string error;
    EXPECT_TRUE(verify_coverage(pattern, plan, &error))
        << error << " (n=" << n << ", rows=" << geometry.rows
        << ", cols=" << geometry.cols << ")";
}

TEST_P(RandomPattern, EngineMatchesGoldenOnQuantizedInputs) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    const int n = 24 + static_cast<int>(rng.uniform_index(40));
    const int d = 8;
    const auto pattern = random_pattern(rng, n);

    SaloConfig config;
    config.geometry.rows = 8;
    config.geometry.cols = 8;
    const SaloEngine engine(config);

    const auto q = random_matrix(n, d, rng, 0.0, 0.8);
    const auto k = random_matrix(n, d, rng, 0.0, 0.8);
    const auto v = random_matrix(n, d, rng, 0.0, 0.8);
    const float scale = 0.35f;

    const auto sim = engine.run_head(*engine.compile(pattern, q.cols()), q, k, v, scale);

    // Golden on the same quantized inputs isolates datapath error.
    Matrix<float> q_scaled = q;
    for (auto& x : q_scaled.data()) x *= scale;
    const auto gold = masked_attention(quantize_roundtrip<InputFx>(q_scaled),
                                       quantize_roundtrip<InputFx>(k),
                                       quantize_roundtrip<InputFx>(v), 1.0f,
                                       pattern.attend_fn());
    EXPECT_LT(max_abs_diff(sim.output, gold), 0.12)
        << "n=" << n << " bands=" << pattern.bands().size()
        << " globals=" << pattern.global_tokens().size();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPattern, ::testing::Range(1, 25));

TEST(PropertyRenormalization, SplitInvariance) {
    // Splitting a row's keys into any number of parts and merging via Eq. 2
    // must reproduce the unsplit softmax (float math, tight tolerance).
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        const int m = 4 + static_cast<int>(rng.uniform_index(29));
        std::vector<double> scores, values;
        for (int j = 0; j < m; ++j) {
            scores.push_back(rng.uniform(-3.0, 3.0));
            values.push_back(rng.uniform(-2.0, 2.0));
        }
        // Unsplit reference.
        double w_all = 0.0, num_all = 0.0;
        for (int j = 0; j < m; ++j) {
            const double e = std::exp(scores[static_cast<std::size_t>(j)]);
            w_all += e;
            num_all += e * values[static_cast<std::size_t>(j)];
        }
        const double reference = num_all / w_all;

        // Random split into parts, merged pairwise by Eq. 2.
        double w_acc = 0.0, out_acc = 0.0;
        int j = 0;
        while (j < m) {
            const int take = 1 + static_cast<int>(rng.uniform_index(
                                     static_cast<std::uint64_t>(m - j)));
            double w_part = 0.0, num_part = 0.0;
            for (int t = 0; t < take; ++t, ++j) {
                const double e = std::exp(scores[static_cast<std::size_t>(j)]);
                w_part += e;
                num_part += e * values[static_cast<std::size_t>(j)];
            }
            const double out_part = num_part / w_part;
            const double w_total = w_acc + w_part;
            out_acc = (w_acc / w_total) * out_acc + (w_part / w_total) * out_part;
            w_acc = w_total;
        }
        EXPECT_NEAR(out_acc, reference, 1e-9) << "trial " << trial;
    }
}

}  // namespace
}  // namespace salo
