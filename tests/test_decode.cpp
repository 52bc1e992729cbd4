// Streaming decode: micro-plan derivation and fingerprinting, the engine's
// incremental run_step path (bit-identity against full-prefix encode at
// every step), and the DecodeSession serving layer (stream lifecycle,
// step lanes, eviction semantics, conservation).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "attention/streaming.hpp"
#include "core/compiled_plan.hpp"
#include "core/decode_session.hpp"
#include "core/engine.hpp"
#include "core/errors.hpp"
#include "core/plan_cache.hpp"
#include "numeric/quantize.hpp"
#include "tensor/tensor3.hpp"

namespace salo {
namespace {

// The prefix pattern at length L: same bands, globals clipped to [0, L).
HybridPattern prefix_pattern(int length, const std::vector<Band>& bands,
                             const std::vector<int>& globals) {
    std::vector<int> g;
    for (int x : globals)
        if (x < length) g.push_back(x);
    return HybridPattern(length, bands, std::move(g));
}

// Drive `steps` decode steps of one stream through run_step and compare
// every step's output, bitwise, against row t of the full-prefix encode of
// length t+1 (the only correct reference: later globals would change row
// t's attended set).
void expect_stepwise_bit_identity(const SaloConfig& config, const std::vector<Band>& bands,
                                  const std::vector<int>& globals, int heads, int d,
                                  int steps, Fidelity fidelity, unsigned seed) {
    SaloEngine engine(config);
    const float scale = 0.25f;
    Rng rng(seed);
    const Tensor3<float> q_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> k_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> v_all = random_tensor3(heads, steps, d, rng);

    DecodeState state(heads, d, decode_window_span(bands), globals);
    RunOptions options;
    options.fidelity = fidelity;
    options.thread_budget = 1;

    for (int t = 0; t < steps; ++t) {
        Matrix<float> q_row(heads, d, 0.0f);
        Matrix<float> k_row(heads, d, 0.0f);
        Matrix<float> v_row(heads, d, 0.0f);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x) {
                q_row(h, x) = q_all[h](t, x);
                k_row(h, x) = k_all[h](t, x);
                v_row(h, x) = v_all[h](t, x);
            }
        state.append(k_row, v_row);

        const HybridPattern prefix = prefix_pattern(t + 1, bands, globals);
        const CompiledPlanPtr micro = engine.compile_step(prefix, d);
        ASSERT_TRUE(micro->is_step());
        EXPECT_EQ(micro->step().position, t);
        auto [kc, vc] = state.assemble();
        const StepResult step = engine.run_step(*micro, q_row, kc, vc, scale, options);

        // Full-prefix reference: whole-sequence encode of the same t+1 rows.
        Tensor3<float> q_pre(heads, t + 1, d), k_pre(heads, t + 1, d),
            v_pre(heads, t + 1, d);
        for (int h = 0; h < heads; ++h)
            for (int r = 0; r <= t; ++r)
                for (int x = 0; x < d; ++x) {
                    q_pre[h](r, x) = q_all[h](r, x);
                    k_pre[h](r, x) = k_all[h](r, x);
                    v_pre[h](r, x) = v_all[h](r, x);
                }
        const CompiledPlanPtr full = engine.compile(prefix, d);
        const LayerResult ref = engine.run(*full, q_pre, k_pre, v_pre, scale, options);

        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x)
                ASSERT_EQ(step.output[h](0, x), ref.output[h](t, x))
                    << "fidelity=" << static_cast<int>(fidelity) << " step=" << t
                    << " head=" << h << " dim=" << x;
    }
}

// -------------------------------------------------------------------------
// Pattern-level decode helpers
// -------------------------------------------------------------------------

TEST(DecodeHelpers, CausalityAndSpan) {
    EXPECT_TRUE(is_causal({Band{-7, 8, 1, 0}}));
    EXPECT_FALSE(is_causal({Band{-2, 4, 1, 0}}));  // hi = +1 looks ahead
    EXPECT_TRUE(is_causal({}));
    EXPECT_EQ(decode_window_span({}), 1);
    EXPECT_EQ(decode_window_span({Band{-7, 8, 1, 0}}), 8);
    EXPECT_EQ(decode_window_span({Band{-6, 4, 2, 0}}), 7);  // dilated reach
}

TEST(DecodeHelpers, DecodeCompatibility) {
    EXPECT_TRUE(decode_compatible(HybridPattern(32, {Band{-7, 8, 1, 0}}, {0, 1})));
    // Non-causal band.
    EXPECT_FALSE(decode_compatible(sliding_window(32, 8)));
    // Global beyond the ring span would reference evicted rows.
    EXPECT_FALSE(decode_compatible(HybridPattern(32, {Band{-7, 8, 1, 0}}, {16})));
    // 2D grids have no streaming order.
    EXPECT_FALSE(decode_compatible(vil_2d(4, 8, 3, 3, 0)));
}

// -------------------------------------------------------------------------
// DecodeState: ring eviction, pinned globals, dilated windows
// -------------------------------------------------------------------------

TEST(DecodeState, WindowBoundaryEviction) {
    const int span = 4;
    DecodeState state(1, 2, span, {});
    for (int p = 0; p < 7; ++p) {
        Matrix<float> kr(1, 2, 0.0f), vr(1, 2, 0.0f);
        kr(0, 0) = static_cast<float>(p);
        vr(0, 0) = static_cast<float>(100 + p);
        state.append(kr, vr);
        EXPECT_EQ(state.length(), p + 1);
        EXPECT_EQ(state.window_lo(), std::max(0, p + 1 - span));
        EXPECT_EQ(state.compact_rows(), std::min(p + 1, span));
    }
    // Positions 0..2 are evicted; 3..6 live at compact rows 0..3.
    auto [k, v] = state.assemble();
    ASSERT_EQ(k.rows(), span);
    for (int j = 3; j < 7; ++j) {
        EXPECT_EQ(k[0](state.compact_index(j), 0), static_cast<float>(j));
        EXPECT_EQ(v[0](state.compact_index(j), 0), static_cast<float>(100 + j));
    }
}

TEST(DecodeState, GlobalsSurviveEvictionViaPinning) {
    const int span = 3;
    DecodeState state(2, 2, span, {0, 1});
    for (int p = 0; p < 8; ++p) {
        Matrix<float> kr(2, 2, 0.0f), vr(2, 2, 0.0f);
        for (int h = 0; h < 2; ++h) kr(h, 0) = static_cast<float>(10 * h + p);
        state.append(kr, vr);
    }
    EXPECT_EQ(state.num_pinned(), 2);
    EXPECT_EQ(state.window_lo(), 5);
    EXPECT_EQ(state.compact_rows(), 2 + 3);
    auto [k, v] = state.assemble();
    (void)v;
    // Globals 0 and 1 left the ring long ago but stay addressable.
    EXPECT_EQ(state.compact_index(0), 0);
    EXPECT_EQ(state.compact_index(1), 1);
    for (int h = 0; h < 2; ++h) {
        EXPECT_EQ(k[h](0, 0), static_cast<float>(10 * h + 0));
        EXPECT_EQ(k[h](1, 0), static_cast<float>(10 * h + 1));
    }
    // Step 1 view (length 2): both sections still overlap — num_pinned
    // counts only appended globals.
    DecodeState young(1, 2, span, {0, 1});
    Matrix<float> kr(1, 2, 0.0f), vr(1, 2, 0.0f);
    young.append(kr, vr);
    EXPECT_EQ(young.num_pinned(), 1);
    EXPECT_EQ(young.compact_rows(), 1 + 1);
}

TEST(DecodeState, EvictedNonGlobalRejected) {
    DecodeState state(1, 2, 2, {});
    Matrix<float> kr(1, 2, 0.0f), vr(1, 2, 0.0f);
    for (int p = 0; p < 5; ++p) state.append(kr, vr);
    EXPECT_THROW((void)state.compact_index(0), ContractViolation);
    EXPECT_NO_THROW((void)state.compact_index(3));
}

// QuantizedDecodeState holds the InputFx bits of exactly the rows the float
// state holds: at every step its compact K/V equals quantize<InputFx> of the
// float state's compact K/V. Inputs are wide enough to saturate some rows.
void expect_quantized_state_tracks_float(int heads, int d, int span,
                                         const std::vector<int>& globals, int steps,
                                         unsigned seed) {
    DecodeState floats(heads, d, span, globals);
    QuantizedDecodeState ints(heads, d, span, globals);
    Rng rng(seed);
    for (int t = 0; t < steps; ++t) {
        const Matrix<float> kr = random_matrix(heads, d, rng, 0.0, 4.0);
        const Matrix<float> vr = random_matrix(heads, d, rng, 0.0, 4.0);
        floats.append(kr, vr);
        ints.append(kr, vr);
        ASSERT_EQ(ints.length(), floats.length());
        ASSERT_EQ(ints.compact_rows(), floats.compact_rows());
        const auto [kf, vf] = floats.assemble();
        const auto [kq, vq] = ints.assemble();
        ASSERT_EQ(kq.count(), heads);
        for (int h = 0; h < heads; ++h) {
            EXPECT_EQ(kq[h], quantize<InputFx>(kf[h])) << "step " << t << " head " << h;
            EXPECT_EQ(vq[h], quantize<InputFx>(vf[h])) << "step " << t << " head " << h;
        }
    }
}

TEST(QuantizedDecodeState, MatchesQuantizedFloatStateThroughEviction) {
    expect_quantized_state_tracks_float(1, 2, 4, {}, 7, 5u);
    expect_quantized_state_tracks_float(2, 32, 4, {}, 11, 6u);
}

TEST(QuantizedDecodeState, MatchesQuantizedFloatStateWithPinnedGlobals) {
    expect_quantized_state_tracks_float(2, 2, 3, {0, 1}, 8, 7u);
    expect_quantized_state_tracks_float(2, 17, 3, {0, 1}, 9, 8u);
}

// -------------------------------------------------------------------------
// Micro-plan fingerprints: never alias full plans
// -------------------------------------------------------------------------

TEST(MicroPlanFingerprint, DistinctFromFullPlanAndPerPosition) {
    const std::uint64_t full = 0x1234'5678'9abc'def0ull;
    EXPECT_NE(step_plan_fingerprint(full, 7), full);
    EXPECT_NE(step_plan_fingerprint(full, 7), step_plan_fingerprint(full, 8));
    EXPECT_NE(step_plan_fingerprint(full, 7), step_plan_fingerprint(full ^ 1, 7));
}

TEST(MicroPlanFingerprint, FullAndMicroCoexistInOneCache) {
    const SaloConfig config;
    const HybridPattern pattern(24, {Band{-7, 8, 1, 0}}, {0});
    PlanCache cache(16);
    const CompiledPlanPtr full = cache.get_or_compile(pattern, 16, config);
    const CompiledPlanPtr micro = cache.get_or_derive_step(pattern, 16, config);
    EXPECT_FALSE(full->is_step());
    ASSERT_TRUE(micro->is_step());
    EXPECT_NE(full->fingerprint(), micro->fingerprint());
    EXPECT_EQ(micro->fingerprint(), step_plan_fingerprint(full->fingerprint(), 23));

    // Both entries live under their own keys; repeat lookups are hits and
    // return the same shared artifacts.
    EXPECT_EQ(cache.get_or_compile(pattern, 16, config).get(), full.get());
    EXPECT_EQ(cache.get_or_derive_step(pattern, 16, config).get(), micro.get());
    const PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.size, 2u);
    EXPECT_EQ(s.compiles, 1u);
    EXPECT_EQ(s.step_derives, 1u);
    EXPECT_EQ(s.hits, 3u);  // repeat full + repeat step + derive's full hit... no:
    // get_or_derive_step's miss resolves the full plan via get_or_compile,
    // which hits the already-cached full entry — 1 hit there, plus the two
    // repeat lookups above.
}

TEST(MicroPlan, GeometryAndTileShape) {
    const SaloConfig config;
    const std::vector<Band> bands{Band{-7, 8, 1, 0}};
    const std::vector<int> globals{0, 1};
    SaloEngine engine(config);
    // Deep steady state: window full, globals evicted from the ring.
    const HybridPattern prefix = prefix_pattern(40, bands, globals);
    const CompiledPlanPtr micro = engine.compile_step(prefix, 16);
    const StepGeometry& sg = micro->step();
    EXPECT_EQ(sg.position, 39);
    EXPECT_EQ(sg.window_span, 8);
    EXPECT_EQ(sg.window_lo, 32);
    EXPECT_EQ(sg.num_globals, 2);
    EXPECT_EQ(sg.compact_rows, 2 + 8);
    EXPECT_EQ(micro->n(), sg.compact_rows);
    // Micro tiles serve exactly one query (id 0) plus global work.
    for (const TileTask& tile : micro->plan().tiles) {
        for (std::int32_t qid : tile.query_ids) EXPECT_TRUE(qid == -1 || qid == 0);
        EXPECT_TRUE(tile.has_window_work() || tile.has_global_work());
    }
    // The micro schedule is much smaller than the full one.
    const CompiledPlanPtr full = engine.compile(prefix, 16);
    EXPECT_LT(micro->plan().tiles.size(), full->plan().tiles.size());
}

// -------------------------------------------------------------------------
// run_step bit-identity against full-prefix encode
// -------------------------------------------------------------------------

TEST(RunStep, SlidingWindowBitIdentity) {
    const SaloConfig config;
    for (const Fidelity f : {Fidelity::kFunctional, Fidelity::kGolden})
        expect_stepwise_bit_identity(config, {Band{-7, 8, 1, 0}}, {}, 2, 16, 24, f, 11u);
}

TEST(RunStep, GlobalsBitIdentityIncludingStepOnGlobal) {
    // Globals at 0, 1 and 3: steps 0..3 include steps ON global positions
    // (the global PE row path), later steps exercise the global PE column
    // against pinned rows after ring eviction.
    const SaloConfig config;
    for (const Fidelity f : {Fidelity::kFunctional, Fidelity::kGolden})
        expect_stepwise_bit_identity(config, {Band{-5, 6, 1, 0}}, {0, 1, 3}, 2, 16, 20,
                                     f, 23u);
}

TEST(RunStep, DilatedWindowBitIdentity) {
    const SaloConfig config;
    for (const Fidelity f : {Fidelity::kFunctional, Fidelity::kGolden})
        expect_stepwise_bit_identity(config, {Band{-6, 4, 2, 0}}, {0}, 2, 16, 20, f, 37u);
}

TEST(RunStep, MultiBandBitIdentity) {
    // Two bands (a tight recent window plus a sparser dilated reach), the
    // shape SALO's column packing exists for.
    const SaloConfig config;
    expect_stepwise_bit_identity(config, {Band{-3, 4, 1, 0}, Band{-9, 3, 3, 0}}, {0}, 2,
                                 16, 24, Fidelity::kFunctional, 41u);
}

TEST(RunStep, CycleAccurateBitIdentity) {
    // Small case: the cycle-accurate array is slow but must agree too.
    const SaloConfig config;
    expect_stepwise_bit_identity(config, {Band{-3, 4, 1, 0}}, {0}, 1, 8, 8,
                                 Fidelity::kCycleAccurate, 61u);
}

TEST(RunStep, ParallelHeadsMatchSequential) {
    const SaloConfig config;
    SaloEngine engine(config);
    const std::vector<Band> bands{Band{-7, 8, 1, 0}};
    const std::vector<int> globals{0};
    const int heads = 4, d = 16, steps = 12;
    Rng rng(71u);
    const Tensor3<float> k_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> v_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> q_all = random_tensor3(heads, steps, d, rng);
    DecodeState state(heads, d, decode_window_span(bands), globals);
    for (int t = 0; t < steps; ++t) {
        Matrix<float> q_row(heads, d, 0.0f), k_row(heads, d, 0.0f), v_row(heads, d, 0.0f);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x) {
                q_row(h, x) = q_all[h](t, x);
                k_row(h, x) = k_all[h](t, x);
                v_row(h, x) = v_all[h](t, x);
            }
        state.append(k_row, v_row);
        const CompiledPlanPtr micro =
            engine.compile_step(prefix_pattern(t + 1, bands, globals), d);
        auto [kc, vc] = state.assemble();
        RunOptions seq, par;
        seq.thread_budget = 1;
        par.thread_budget = 0;  // engine's configured pool
        const StepResult a = engine.run_step(*micro, q_row, kc, vc, 0.25f, seq);
        const StepResult b = engine.run_step(*micro, q_row, kc, vc, 0.25f, par);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x) ASSERT_EQ(a.output[h](0, x), b.output[h](0, x));
    }
}

// run_step on int8 K/V (QuantizedDecodeState) gives the same bits as on
// the float K/V it was quantized from, step by step.
void expect_quantized_step_matches_float(const SaloConfig& config,
                                         const std::vector<Band>& bands,
                                         const std::vector<int>& globals, int heads, int d,
                                         int steps, unsigned seed) {
    SaloEngine engine(config);
    Rng rng(seed);
    DecodeState floats(heads, d, decode_window_span(bands), globals);
    QuantizedDecodeState ints(heads, d, decode_window_span(bands), globals);
    RunOptions options;
    options.thread_budget = 1;
    for (int t = 0; t < steps; ++t) {
        const Matrix<float> q_row = random_matrix(heads, d, rng);
        const Matrix<float> k_row = random_matrix(heads, d, rng);
        const Matrix<float> v_row = random_matrix(heads, d, rng);
        floats.append(k_row, v_row);
        ints.append(k_row, v_row);
        const CompiledPlanPtr micro =
            engine.compile_step(prefix_pattern(t + 1, bands, globals), d);
        const auto [kf, vf] = floats.assemble();
        const auto [kq, vq] = ints.assemble();
        const StepResult a = engine.run_step(*micro, q_row, kf, vf, 0.25f, options);
        const StepResult b = engine.run_step(*micro, q_row, kq, vq, 0.25f, options);
        EXPECT_EQ(a.stats.cycles, b.stats.cycles) << "step " << t;
        for (int h = 0; h < heads; ++h)
            ASSERT_EQ(a.output[h], b.output[h]) << "step " << t << " head " << h;
    }
}

TEST(RunStep, QuantizedStateBitIdenticalToFloatState) {
    SaloConfig config;
    expect_quantized_step_matches_float(config, {Band{-5, 6, 1, 0}}, {0, 1, 3}, 2, 16, 20,
                                        83u);
    expect_quantized_step_matches_float(config, {Band{-3, 4, 1, 0}, Band{-9, 3, 3, 0}},
                                        {0}, 2, 16, 24, 89u);
    config.fidelity = Fidelity::kCycleAccurate;
    expect_quantized_step_matches_float(config, {Band{-3, 4, 1, 0}}, {0}, 1, 8, 8, 101u);
}

TEST(RunStep, QuantizedStateRejectsGoldenFidelity) {
    SaloConfig config;
    const std::vector<Band> bands{Band{-3, 4, 1, 0}};
    QuantizedDecodeState state(1, 8, decode_window_span(bands), {});
    Rng rng(103u);
    const Matrix<float> row = random_matrix(1, 8, rng);
    state.append(row, row);
    const auto [k, v] = state.assemble();
    RunOptions golden;
    golden.fidelity = Fidelity::kGolden;
    {
        const SaloEngine engine(config);
        const CompiledPlanPtr micro = engine.compile_step(prefix_pattern(1, bands, {}), 8);
        EXPECT_THROW((void)engine.run_step(*micro, row, k, v, 0.25f, golden),
                     ContractViolation);
    }
    // The engine's configured fidelity is checked the same way.
    config.fidelity = Fidelity::kGolden;
    const SaloEngine engine(config);
    const CompiledPlanPtr micro = engine.compile_step(prefix_pattern(1, bands, {}), 8);
    EXPECT_THROW((void)engine.run_step(*micro, row, k, v, 0.25f), ContractViolation);
}

// -------------------------------------------------------------------------
// DecodeSession: stream lifecycle, step lanes, eviction, conservation
// -------------------------------------------------------------------------

Matrix<float> head_row(const Tensor3<float>& all, int t, int heads, int d) {
    Matrix<float> row(heads, d, 0.0f);
    for (int h = 0; h < heads; ++h)
        for (int x = 0; x < d; ++x) row(h, x) = all[h](t, x);
    return row;
}

// Rows 0..t of every head: the inputs of the length-(t+1) prefix encode.
Tensor3<float> prefix_rows(const Tensor3<float>& all, int t) {
    Tensor3<float> pre(all.count(), t + 1, all.cols());
    for (int h = 0; h < all.count(); ++h)
        for (int r = 0; r <= t; ++r)
            for (int x = 0; x < all.cols(); ++x) pre[h](r, x) = all[h](r, x);
    return pre;
}

// The session's fidelity fixes each stream's K/V storage: int8 rings for
// the hardware fidelities, float rings for the golden oracle. Both must be
// bit-identical to the full-prefix encode.
class DecodeSessionFidelity : public ::testing::TestWithParam<Fidelity> {};

TEST_P(DecodeSessionFidelity, StepwiseBitIdentityVsFullEncode) {
    SaloConfig config;
    config.fidelity = GetParam();
    const std::vector<Band> bands = {Band{-7, 8, 1, 0}};
    const std::vector<int> globals = {0, 1};
    const int heads = 2, d = 16, steps = 12;
    const HybridPattern pattern(steps, bands, globals);

    DecodeSession session(config);
    SaloEngine ref(config);
    Rng rng(77u);
    const Tensor3<float> q_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> k_all = random_tensor3(heads, steps, d, rng);
    const Tensor3<float> v_all = random_tensor3(heads, steps, d, rng);

    const StreamId s = session.open_stream(pattern, heads, d, 0.25f);
    for (int t = 0; t < steps; ++t) {
        StepRequest req;
        req.q_row = head_row(q_all, t, heads, d);
        req.k_row = head_row(k_all, t, heads, d);
        req.v_row = head_row(v_all, t, heads, d);
        const StepResult step = session.step(s, std::move(req)).get();
        EXPECT_EQ(step.position, t);

        Tensor3<float> q_pre(heads, t + 1, d), k_pre(heads, t + 1, d),
            v_pre(heads, t + 1, d);
        for (int h = 0; h < heads; ++h)
            for (int r = 0; r <= t; ++r)
                for (int x = 0; x < d; ++x) {
                    q_pre[h](r, x) = q_all[h](r, x);
                    k_pre[h](r, x) = k_all[h](r, x);
                    v_pre[h](r, x) = v_all[h](r, x);
                }
        const HybridPattern prefix = prefix_pattern(t + 1, bands, globals);
        const LayerResult full =
            ref.run(*ref.compile(prefix, d), q_pre, k_pre, v_pre, 0.25f);
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x)
                ASSERT_EQ(step.output[h](0, x), full.output[h](t, x))
                    << "t=" << t << " h=" << h << " x=" << x;
    }
    session.close_stream(s);
    session.close();

    const SessionStats st = session.stats();
    EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(steps));
    EXPECT_EQ(st.steps, st.submitted);
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_EQ(st.accounted(), st.submitted);
    EXPECT_EQ(st.evicted_streams, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fidelities, DecodeSessionFidelity,
                         ::testing::Values(Fidelity::kFunctional, Fidelity::kCycleAccurate,
                                           Fidelity::kGolden),
                         [](const ::testing::TestParamInfo<Fidelity>& info) {
                             switch (info.param) {
                             case Fidelity::kFunctional: return "Functional";
                             case Fidelity::kCycleAccurate: return "CycleAccurate";
                             case Fidelity::kGolden: return "Golden";
                             }
                             return "Unknown";
                         });

TEST(DecodeSession, ConcurrentStreamsBitIdenticalAndConserved) {
    const SaloConfig config;
    const std::vector<Band> bands = {Band{-5, 6, 1, 0}};
    const std::vector<int> globals = {0};
    const int heads = 2, d = 8, steps = 10, num_streams = 8;
    const HybridPattern pattern(steps, bands, globals);

    DecodeSessionOptions options;
    options.num_shards = 2;
    DecodeSession session(config, options);
    SaloEngine ref(config);

    std::vector<Tensor3<float>> q_all, k_all, v_all;
    std::vector<StreamId> ids;
    for (int i = 0; i < num_streams; ++i) {
        Rng rng(1000u + static_cast<unsigned>(i));
        q_all.push_back(random_tensor3(heads, steps, d, rng));
        k_all.push_back(random_tensor3(heads, steps, d, rng));
        v_all.push_back(random_tensor3(heads, steps, d, rng));
        ids.push_back(session.open_stream(pattern, heads, d, 0.5f,
                                          i % 2 == 0 ? "alice" : "bob"));
    }

    // All streams step in lockstep, so every lane has work.
    std::vector<std::vector<Tensor3<float>>> outputs(
        static_cast<std::size_t>(num_streams));
    for (int t = 0; t < steps; ++t) {
        std::vector<std::future<StepResult>> futures;
        for (int i = 0; i < num_streams; ++i) {
            StepRequest req;
            req.q_row = head_row(q_all[static_cast<std::size_t>(i)], t, heads, d);
            req.k_row = head_row(k_all[static_cast<std::size_t>(i)], t, heads, d);
            req.v_row = head_row(v_all[static_cast<std::size_t>(i)], t, heads, d);
            futures.push_back(session.step(ids[static_cast<std::size_t>(i)],
                                           std::move(req)));
        }
        for (int i = 0; i < num_streams; ++i)
            outputs[static_cast<std::size_t>(i)].push_back(
                futures[static_cast<std::size_t>(i)].get().output);
    }
    session.close();

    // Bitwise identical to the full-prefix encode of each stream's inputs.
    // The reference for step t is the length-(t+1) prefix encode: a global
    // row attends every later key, so rows of a longer encode are not a
    // valid reference for the step that produced them.
    for (int i = 0; i < num_streams; ++i) {
        const auto u = static_cast<std::size_t>(i);
        for (int t = 0; t < steps; ++t) {
            const LayerResult full =
                ref.run(*ref.compile(prefix_pattern(t + 1, bands, globals), d),
                        prefix_rows(q_all[u], t), prefix_rows(k_all[u], t),
                        prefix_rows(v_all[u], t), 0.5f);
            for (int h = 0; h < heads; ++h)
                for (int x = 0; x < d; ++x)
                    ASSERT_EQ(outputs[u][static_cast<std::size_t>(t)][h](0, x),
                              full.output[h](t, x))
                        << "stream=" << i << " t=" << t;
        }
    }

    const SessionStats st = session.stats();
    EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(num_streams * steps));
    EXPECT_EQ(st.steps, st.submitted);
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_EQ(st.accounted(), st.submitted);

    const auto tenants = session.tenant_stats();
    ASSERT_EQ(tenants.size(), 2u);
    std::uint64_t total = 0;
    for (const auto& [name, ts] : tenants) {
        EXPECT_EQ(ts.accounted(), ts.submitted) << name;
        EXPECT_EQ(ts.steps, ts.submitted) << name;
        total += ts.submitted;
    }
    EXPECT_EQ(total, st.submitted);
}

// Every step of every stream is queued before the first one runs, so each
// lane claims chunks from a deep queue while other lanes still hold earlier
// steps of the same streams: per-stream order must come from the lanes
// alone.
TEST(DecodeSession, PipelinedStepsKeepPerStreamOrder) {
    SaloConfig config;
    config.num_threads = 4;
    const std::vector<Band> bands = {Band{-5, 6, 1, 0}};
    const std::vector<int> globals = {0};
    const int heads = 2, d = 8, steps = 24, num_streams = 8;
    const HybridPattern pattern(steps, bands, globals);

    DecodeSessionOptions options;
    options.num_shards = 2;
    DecodeSession session(config, options);
    const SaloEngine ref(config);

    std::vector<Tensor3<float>> q_all, k_all, v_all;
    std::vector<StreamId> ids;
    for (int i = 0; i < num_streams; ++i) {
        Rng rng(2000u + static_cast<unsigned>(i));
        q_all.push_back(random_tensor3(heads, steps, d, rng));
        k_all.push_back(random_tensor3(heads, steps, d, rng));
        v_all.push_back(random_tensor3(heads, steps, d, rng));
        ids.push_back(session.open_stream(pattern, heads, d, 0.5f,
                                          i % 2 == 0 ? "alice" : "bob"));
    }
    std::vector<std::vector<std::future<StepResult>>> futures(
        static_cast<std::size_t>(num_streams));
    for (int t = 0; t < steps; ++t)
        for (int i = 0; i < num_streams; ++i) {
            const auto u = static_cast<std::size_t>(i);
            StepRequest req;
            req.q_row = head_row(q_all[u], t, heads, d);
            req.k_row = head_row(k_all[u], t, heads, d);
            req.v_row = head_row(v_all[u], t, heads, d);
            futures[u].push_back(session.step(ids[u], std::move(req)));
        }

    for (int i = 0; i < num_streams; ++i) {
        const auto u = static_cast<std::size_t>(i);
        for (int t = 0; t < steps; ++t) {
            const StepResult got = futures[u][static_cast<std::size_t>(t)].get();
            EXPECT_EQ(got.position, t);
            const LayerResult full =
                ref.run(*ref.compile(prefix_pattern(t + 1, bands, globals), d),
                        prefix_rows(q_all[u], t), prefix_rows(k_all[u], t),
                        prefix_rows(v_all[u], t), 0.5f);
            for (int h = 0; h < heads; ++h)
                for (int x = 0; x < d; ++x)
                    ASSERT_EQ(got.output[h](0, x), full.output[h](t, x))
                        << "stream=" << i << " t=" << t;
        }
    }
    session.close();

    const SessionStats st = session.stats();
    EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(num_streams * steps));
    EXPECT_EQ(st.steps, st.submitted);
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_EQ(st.accounted(), st.submitted);
    EXPECT_GE(st.batches, 1u);
    EXPECT_LE(st.max_batch, DecodeSession::kChunkCap);
    const auto tenants = session.tenant_stats();
    ASSERT_EQ(tenants.size(), 2u);
    for (const auto& [name, ts] : tenants) {
        EXPECT_EQ(ts.submitted, static_cast<std::uint64_t>(num_streams / 2 * steps)) << name;
        EXPECT_EQ(ts.completed, ts.submitted) << name;
        EXPECT_EQ(ts.accounted(), ts.submitted) << name;
        EXPECT_EQ(ts.steps, ts.submitted) << name;
    }
}

// A step wedged on one lane holds only that lane: the shard's other lane
// keeps serving every other stream while the stalled step sleeps.
TEST(DecodeSession, StalledStepDoesNotBlockOtherStreams) {
    SaloConfig config;
    config.num_threads = 2;  // one shard, two step lanes
    const std::vector<Band> bands = {Band{-3, 4, 1, 0}};
    const HybridPattern pattern(4, bands, {});
    const int heads = 1, d = 8;
    DecodeSession session(config);

    Rng rng(31u);
    const Tensor3<float> rows = random_tensor3(heads, 1, d, rng);
    auto make_req = [&] {
        StepRequest req;
        req.q_row = head_row(rows, 0, heads, d);
        req.k_row = head_row(rows, 0, heads, d);
        req.v_row = head_row(rows, 0, heads, d);
        return req;
    };

    FaultInjector::Config fc;
    fc.stall_tiles = {0};
    fc.stall_for = std::chrono::seconds(2);
    fc.max_stalls = 1;
    const auto stall = std::make_shared<FaultInjector>(fc);
    const StreamId a = session.open_stream(pattern, heads, d, 0.5f);
    StepRequest stalled = make_req();
    stalled.fault_injector = stall;
    std::future<StepResult> fa = session.step(a, std::move(stalled));
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (stall->stalls_injected() == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "A's step never stalled";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<StepResult>> others;
    for (int i = 0; i < 8; ++i)
        others.push_back(session.step(session.open_stream(pattern, heads, d, 0.5f),
                                      make_req()));
    for (auto& f : others)
        ASSERT_EQ(f.wait_until(t0 + std::chrono::seconds(1)), std::future_status::ready);
    EXPECT_EQ(fa.wait_for(std::chrono::seconds(0)), std::future_status::timeout);

    // Every stream ran the same first row: all nine steps equal row 0 of
    // the length-1 prefix encode, A's included once its stall ends.
    const SaloEngine ref(config);
    const LayerResult full = ref.run(*ref.compile(prefix_pattern(1, bands, {}), d),
                                     prefix_rows(rows, 0), prefix_rows(rows, 0),
                                     prefix_rows(rows, 0), 0.5f);
    others.push_back(std::move(fa));
    for (auto& f : others) {
        const StepResult got = f.get();
        for (int h = 0; h < heads; ++h)
            for (int x = 0; x < d; ++x) ASSERT_EQ(got.output[h](0, x), full.output[h](0, x));
    }
    session.close();
    const SessionStats st = session.stats();
    EXPECT_EQ(st.completed, 9u);
    EXPECT_EQ(st.accounted(), st.submitted);
}

TEST(DecodeSession, InjectedFaultEvictsStreamAndLaterStepsFailTyped) {
    const SaloConfig config;
    const HybridPattern pattern(8, {Band{-3, 4, 1, 0}}, {});
    const int heads = 1, d = 8;

    DecodeSession session(config);
    Rng rng(5u);
    const Tensor3<float> rows = random_tensor3(heads, 8, d, rng);

    const StreamId s = session.open_stream(pattern, heads, d, 0.5f, "t0");
    auto make_req = [&](int t) {
        StepRequest req;
        req.q_row = head_row(rows, t, heads, d);
        req.k_row = head_row(rows, t, heads, d);
        req.v_row = head_row(rows, t, heads, d);
        return req;
    };

    // Step 0 completes clean.
    EXPECT_NO_THROW(session.step(s, make_req(0)).get());

    // Step 1 carries a per-step injector that faults the first tile.
    FaultInjector::Config fc;
    fc.fault_tiles = {0};
    StepRequest faulted = make_req(1);
    faulted.fault_injector = std::make_shared<FaultInjector>(fc);
    EXPECT_THROW(session.step(s, std::move(faulted)).get(), EngineFault);

    // The stream is now evicted: later steps fail fast with StreamEvicted
    // and never execute.
    EXPECT_THROW(session.step(s, make_req(2)).get(), StreamEvicted);
    EXPECT_THROW(session.step(s, make_req(3)).get(), StreamEvicted);
    session.close_stream(s);
    session.close();

    const SessionStats st = session.stats();
    EXPECT_EQ(st.submitted, 4u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failed, 3u);  // EngineFault + 2x StreamEvicted
    EXPECT_EQ(st.steps, st.submitted);
    EXPECT_EQ(st.accounted(), st.submitted);
    EXPECT_EQ(st.evicted_streams, 1u);
}

TEST(DecodeSession, QuarantinedShardEvictsItsStreams) {
    const SaloConfig config;
    const HybridPattern pattern(4, {Band{-3, 4, 1, 0}}, {});
    const int heads = 1, d = 8;

    // One shard, always faulting: every executed step records a breaker
    // failure, so the shard quarantines after min_samples outcomes.
    DecodeSessionOptions options;
    options.num_shards = 1;
    FaultInjector::Config fc;
    fc.tile_fault_rate = 1.0;
    options.shard_fault_injectors = {std::make_shared<FaultInjector>(fc)};
    options.health.window = 4;
    options.health.min_samples = 2;
    options.health.failure_threshold = 0.5;
    options.health.cooldown = std::chrono::milliseconds(60000);
    DecodeSession session(config, options);

    Rng rng(9u);
    const Tensor3<float> rows = random_tensor3(heads, 4, d, rng);
    auto make_req = [&](int t) {
        StepRequest req;
        req.q_row = head_row(rows, t, heads, d);
        req.k_row = head_row(rows, t, heads, d);
        req.v_row = head_row(rows, t, heads, d);
        return req;
    };

    // Two streams fault (two breaker failures -> quarantine)...
    const StreamId a = session.open_stream(pattern, heads, d, 0.5f);
    const StreamId b = session.open_stream(pattern, heads, d, 0.5f);
    EXPECT_THROW(session.step(a, make_req(0)).get(), EngineFault);
    EXPECT_THROW(session.step(b, make_req(0)).get(), EngineFault);

    // ...so the third stream's step is refused by the pinned shard: the
    // stream fails with the typed StreamEvicted, never silently migrating.
    const StreamId c = session.open_stream(pattern, heads, d, 0.5f);
    EXPECT_THROW(session.step(c, make_req(0)).get(), StreamEvicted);
    session.close();

    const SessionStats st = session.stats();
    EXPECT_GE(st.quarantined_shard_events, 1u);
    EXPECT_EQ(st.evicted_streams, 3u);
    EXPECT_EQ(st.failed, 3u);
    EXPECT_EQ(st.accounted(), st.submitted);
}

TEST(DecodeSession, ExpiredDeadlineShedsStepAndEvictsStream) {
    const SaloConfig config;
    const HybridPattern pattern(4, {Band{-3, 4, 1, 0}}, {});
    DecodeSession session(config);
    Rng rng(13u);
    const Tensor3<float> rows = random_tensor3(1, 4, 8, rng);

    const StreamId s = session.open_stream(pattern, 1, 8, 0.5f);
    StepRequest req;
    req.q_row = head_row(rows, 0, 1, 8);
    req.k_row = head_row(rows, 0, 1, 8);
    req.v_row = head_row(rows, 0, 1, 8);
    req.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    EXPECT_THROW(session.step(s, std::move(req)).get(), DeadlineExceeded);

    StepRequest next;
    next.q_row = head_row(rows, 1, 1, 8);
    next.k_row = head_row(rows, 1, 1, 8);
    next.v_row = head_row(rows, 1, 1, 8);
    EXPECT_THROW(session.step(s, std::move(next)).get(), StreamEvicted);
    session.close();

    const SessionStats st = session.stats();
    EXPECT_EQ(st.timed_out, 1u);
    EXPECT_EQ(st.shed_expired, 1u);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.evicted_streams, 1u);
    EXPECT_EQ(st.accounted(), st.submitted);
}

TEST(DecodeSession, LifecycleContracts) {
    const SaloConfig config;
    const HybridPattern pattern(2, {Band{-1, 2, 1, 0}}, {});
    DecodeSession session(config);
    Rng rng(17u);
    const Tensor3<float> rows = random_tensor3(1, 3, 8, rng);
    auto make_req = [&](int t) {
        StepRequest req;
        req.q_row = head_row(rows, t, 1, 8);
        req.k_row = head_row(rows, t, 1, 8);
        req.v_row = head_row(rows, t, 1, 8);
        return req;
    };

    // Non-causal and over-span-global patterns are rejected at open.
    EXPECT_THROW(session.open_stream(HybridPattern(8, {Band{-1, 3, 1, 0}}, {}), 1, 8,
                                     0.5f),
                 ContractViolation);
    EXPECT_THROW(session.open_stream(HybridPattern(8, {Band{-1, 2, 1, 0}}, {5}), 1, 8,
                                     0.5f),
                 ContractViolation);

    const StreamId s = session.open_stream(pattern, 1, 8, 0.5f);
    EXPECT_NO_THROW(session.step(s, make_req(0)).get());
    EXPECT_NO_THROW(session.step(s, make_req(1)).get());
    // The pattern's horizon is n = 2: a third step is a caller bug.
    EXPECT_THROW(session.step(s, make_req(2)), ContractViolation);
    // Shape mismatches are synchronous caller bugs too.
    {
        StepRequest bad = make_req(0);
        bad.q_row = Matrix<float>(1, 4, 0.0f);
        EXPECT_THROW(session.step(s, std::move(bad)), ContractViolation);
    }
    // Unknown stream ids are rejected.
    EXPECT_THROW(session.step(s + 1000, make_req(0)), ContractViolation);

    session.close_stream(s);
    EXPECT_THROW(session.stream_shard(s), ContractViolation);  // id is gone

    session.close();
    EXPECT_THROW(session.open_stream(pattern, 1, 8, 0.5f), SessionClosed);
    EXPECT_THROW(session.step(s, make_req(0)), SessionClosed);
}

TEST(DecodeSession, SharedPlanStoreDerivesEachPositionOnceTierWide) {
    const SaloConfig config;
    const std::vector<Band> bands = {Band{-5, 6, 1, 0}};
    const HybridPattern pattern(6, bands, {0});
    const int heads = 1, d = 8, steps = 6;

    DecodeSessionOptions options;
    options.num_shards = 2;
    DecodeSession session(config, options);

    Rng rng(21u);
    const Tensor3<float> rows = random_tensor3(heads, steps, d, rng);
    std::vector<StreamId> ids = {session.open_stream(pattern, heads, d, 0.5f),
                                 session.open_stream(pattern, heads, d, 0.5f)};
    for (int t = 0; t < steps; ++t)
        for (const StreamId id : ids) {
            StepRequest req;
            req.q_row = head_row(rows, t, heads, d);
            req.k_row = head_row(rows, t, heads, d);
            req.v_row = head_row(rows, t, heads, d);
            EXPECT_NO_THROW(session.step(id, std::move(req)).get());
        }
    session.close();

    // Both streams walked positions 0..5; the tier's one plan cache derived
    // each micro-plan exactly once no matter which shard each stream
    // landed on.
    const SessionStats st = session.stats();
    EXPECT_EQ(st.plan_cache.step_derives, static_cast<std::uint64_t>(steps));
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(2 * steps));
}

TEST(DecodeSession, StreamsOnBothShardsDeriveEachStepOnce) {
    // Default options: open streams until both shards hold one, then walk
    // every stream through every position. The tier's one plan cache
    // derives each position's micro-plan once, not once per shard.
    const std::vector<Band> bands = {Band{-3, 4, 1, 0}};
    const HybridPattern pattern(5, bands, {0});
    const int heads = 1, d = 8, steps = 5;
    DecodeSessionOptions options;
    options.num_shards = 2;
    DecodeSession session(SaloConfig{}, options);

    std::vector<StreamId> ids;
    std::vector<int> on_shard(2, 0);
    while ((on_shard[0] == 0 || on_shard[1] == 0) && ids.size() < 64) {
        ids.push_back(session.open_stream(pattern, heads, d, 0.5f));
        ++on_shard[static_cast<std::size_t>(session.stream_shard(ids.back()))];
    }
    ASSERT_TRUE(on_shard[0] > 0 && on_shard[1] > 0) << "placement never used shard 1";

    Rng rng(23u);
    const Tensor3<float> rows = random_tensor3(heads, steps, d, rng);
    for (int t = 0; t < steps; ++t)
        for (const StreamId id : ids) {
            StepRequest req;
            req.q_row = head_row(rows, t, heads, d);
            req.k_row = head_row(rows, t, heads, d);
            req.v_row = head_row(rows, t, heads, d);
            EXPECT_NO_THROW(session.step(id, std::move(req)).get());
        }
    session.close();

    const SessionStats st = session.stats();
    EXPECT_EQ(st.plan_cache.step_derives, static_cast<std::uint64_t>(steps));
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(steps) * ids.size());
}

}  // namespace
}  // namespace salo
