#include "sim/wsm.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "numeric/datapath.hpp"
#include "numeric/fixed.hpp"
#include "sim/kernels.hpp"

namespace salo {
namespace {

constexpr double kExpScale = 1 << Datapath::exp_frac;
constexpr double kWsmScale = 1 << Datapath::wsm_frac;

TilePart make_part(int query, double weight, const std::vector<double>& out) {
    TilePart part;
    part.query = query;
    part.weight = static_cast<SumRaw>(std::llround(weight * kExpScale));
    for (double v : out)
        part.out_q.push_back(static_cast<std::int32_t>(std::llround(v * kWsmScale)));
    return part;
}

TEST(WeightedSum, SinglePartPassesThrough) {
    const Reciprocal recip;
    WeightedSumModule wsm(4, 2, recip);
    wsm.merge(make_part(1, 3.0, {0.5, -1.25}));
    const Matrix<float> out = wsm.finalize();
    EXPECT_NEAR(out(1, 0), 0.5, 1e-2);
    EXPECT_NEAR(out(1, 1), -1.25, 1e-2);
    // Untouched queries stay zero.
    EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(out(3, 1), 0.0f);
}

TEST(WeightedSum, EqualWeightsAverage) {
    const Reciprocal recip;
    WeightedSumModule wsm(1, 1, recip);
    wsm.merge(make_part(0, 2.0, {1.0}));
    wsm.merge(make_part(0, 2.0, {3.0}));
    EXPECT_NEAR(wsm.finalize()(0, 0), 2.0, 1e-2);
}

TEST(WeightedSum, Equation2TwoParts) {
    // Paper Eq. 2: out = W1/(W1+W2)*out1 + W2/(W1+W2)*out2.
    const Reciprocal recip;
    WeightedSumModule wsm(1, 3, recip);
    const double w1 = 5.0, w2 = 1.5;
    const std::vector<double> o1 = {1.0, -2.0, 0.25};
    const std::vector<double> o2 = {-1.0, 4.0, 0.75};
    wsm.merge(make_part(0, w1, o1));
    wsm.merge(make_part(0, w2, o2));
    const Matrix<float> out = wsm.finalize();
    for (int t = 0; t < 3; ++t) {
        const double expected =
            (w1 * o1[static_cast<std::size_t>(t)] + w2 * o2[static_cast<std::size_t>(t)]) /
            (w1 + w2);
        EXPECT_NEAR(out(0, t), expected, 2e-2) << "t=" << t;
    }
}

TEST(WeightedSum, ManyPartsMatchAppendixAFormula) {
    // Appendix A: out = sum_k (W_k / W) * out_k for any number of parts.
    const Reciprocal recip;
    Rng rng(11);
    const int parts = 16;
    const int d = 4;
    WeightedSumModule wsm(1, d, recip);
    double total_w = 0.0;
    std::vector<double> expected(static_cast<std::size_t>(d), 0.0);
    for (int p = 0; p < parts; ++p) {
        const double w = rng.uniform(0.25, 8.0);
        std::vector<double> o;
        for (int t = 0; t < d; ++t) o.push_back(rng.uniform(-3.0, 3.0));
        wsm.merge(make_part(0, w, o));
        total_w += w;
        for (int t = 0; t < d; ++t)
            expected[static_cast<std::size_t>(t)] += w * o[static_cast<std::size_t>(t)];
    }
    const Matrix<float> out = wsm.finalize();
    for (int t = 0; t < d; ++t)
        EXPECT_NEAR(out(0, t), expected[static_cast<std::size_t>(t)] / total_w, 0.05)
            << "t=" << t;
}

TEST(WeightedSum, MergeOrderInsensitiveWithinTolerance) {
    // Eq. 2 is mathematically associative; fixed-point rounding may differ
    // slightly but results must agree to output resolution.
    const Reciprocal recip;
    std::vector<TilePart> parts;
    Rng rng(5);
    for (int p = 0; p < 6; ++p)
        parts.push_back(make_part(0, rng.uniform(0.5, 4.0),
                                  {rng.uniform(-2, 2), rng.uniform(-2, 2)}));
    WeightedSumModule fwd(1, 2, recip), rev(1, 2, recip);
    for (const auto& p : parts) fwd.merge(p);
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) rev.merge(*it);
    EXPECT_LT(max_abs_diff(fwd.finalize(), rev.finalize()), 0.03);
}

TEST(WeightedSum, ZeroWeightPartIgnored) {
    const Reciprocal recip;
    WeightedSumModule wsm(1, 1, recip);
    wsm.merge(make_part(0, 1.0, {2.0}));
    TilePart zero = make_part(0, 0.0, {99.0});
    wsm.merge(zero);
    EXPECT_NEAR(wsm.finalize()(0, 0), 2.0, 1e-2);
    EXPECT_EQ(wsm.merges(), 1);
}

TEST(WeightedSum, DominantWeightWins) {
    const Reciprocal recip;
    WeightedSumModule wsm(1, 1, recip);
    wsm.merge(make_part(0, 1000.0, {1.0}));
    wsm.merge(make_part(0, 0.001, {-1.0}));
    EXPECT_NEAR(wsm.finalize()(0, 0), 1.0, 1e-2);
}

TEST(WeightedSum, RejectsBadPart) {
    const Reciprocal recip;
    WeightedSumModule wsm(2, 2, recip);
    TilePart bad = make_part(5, 1.0, {0.0, 0.0});  // query out of range
    EXPECT_THROW(wsm.merge(bad), ContractViolation);
    TilePart wrong_d = make_part(0, 1.0, {0.0});  // dimension mismatch
    EXPECT_THROW(wsm.merge(wrong_d), ContractViolation);
}

TEST(WeightedSum, FinalizeRawIs16Bit) {
    const Reciprocal recip;
    WeightedSumModule wsm(1, 1, recip);
    wsm.merge(make_part(0, 1.0, {3.141}));
    const Matrix<std::int16_t> raw = wsm.finalize_raw();
    EXPECT_NEAR(static_cast<double>(raw(0, 0)) / 256.0, 3.141, 1e-2);
}

TEST(WeightedSum, FinalizeIntoMatchesFinalizeRaw) {
    // finalize_into() is finalize_raw() dequantized, bit for bit, at every
    // kernel level: on random merged states, on rows held verbatim (merged
    // once) at the rounding ties, past the +-128 Q7.8 saturation and at the
    // int32 ends, and on rows never merged (they read 0).
    constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
    constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
    const std::vector<std::int32_t> edges = {
        0, 127, 128, -128, -129, 384, 32767 << 8, (32767 << 8) + 128, -(1 << 23), 1 << 30,
        kMax, kMin};
    const int d = static_cast<int>(edges.size());
    const int n = 12;  // rows 0-7 random, 8 edges, 9 edges negated, 10-11 never merged
    const Reciprocal recip;
    for (const kernels::KernelSet& ks : kernels::kernel_sets()) {
        Rng rng(17);
        WeightedSumModule wsm(n, d, recip, ks);
        for (int i = 0; i < 8; ++i)
            for (int m = 0; m < 1 + i % 4; ++m) {
                TilePart part;
                part.query = i;
                part.weight = static_cast<SumRaw>(rng.uniform(1.0, 1e6));
                for (int t = 0; t < d; ++t)
                    part.out_q.push_back(static_cast<std::int32_t>(
                        std::llround(rng.uniform(-140.0, 140.0) * kWsmScale)));
                wsm.merge(part);
            }
        TilePart part;
        part.query = 8;
        part.weight = 1;
        part.out_q = edges;
        wsm.merge(part);
        part.query = 9;
        for (std::int32_t& v : part.out_q) v = v == kMin ? kMax : -v;
        wsm.merge(part);

        Matrix<float> out(n, d, 7.0f);  // stale contents are overwritten
        wsm.finalize_into(out);
        const Matrix<std::int16_t> raw = wsm.finalize_raw();
        for (int i = 0; i < n; ++i)
            for (int t = 0; t < d; ++t)
                ASSERT_EQ(std::bit_cast<std::uint32_t>(out(i, t)),
                          std::bit_cast<std::uint32_t>(OutputFx::from_raw(raw(i, t)).to_float()))
                    << ks.name << ", row " << i << ", dim " << t;
        EXPECT_EQ(out(10, 0), 0.0f);
        EXPECT_EQ(wsm.finalize(), out);
        Matrix<float> wrong(n, d + 1);
        EXPECT_THROW(wsm.finalize_into(wrong), ContractViolation);
    }
}

}  // namespace
}  // namespace salo
