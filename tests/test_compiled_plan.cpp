// The compile -> cache layer: pattern equality and fingerprints (including
// the dilation-only and global-set-only near-collisions), SaloConfig
// validation, CompiledPlan compilation, and the PlanCache LRU semantics
// (hit/miss/eviction, collision safety, cross-thread sharing).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/compiled_plan.hpp"
#include "core/engine.hpp"
#include "core/errors.hpp"
#include "core/plan_cache.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

// -------------------------------------------------------------------------
// HybridPattern equality and fingerprints
// -------------------------------------------------------------------------

TEST(PatternIdentity, EqualityMatchesStructure) {
    const HybridPattern a = longformer(128, 16, 2);
    const HybridPattern b = longformer(128, 16, 2);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == longformer(128, 16, 1));   // globals differ
    EXPECT_FALSE(a == longformer(128, 32, 2));   // window differs
    EXPECT_FALSE(a == longformer(256, 16, 2));   // n differs
}

TEST(PatternIdentity, EqualityIsGlobalSetBased) {
    // The constructor sorts and deduplicates globals: different spellings
    // of the same set compare equal.
    const HybridPattern a = sliding_window(64, 8, {3, 1, 1});
    const HybridPattern b = sliding_window(64, 8, {1, 3});
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(PatternIdentity, DilationOnlyDifferenceChangesFingerprint) {
    // The latent-collision case called out in the issue: same band extent,
    // different dilation. dilated_window(n, a, b, d) scales offsets by d,
    // so construct bands directly to isolate the dilation field.
    const HybridPattern d1(256, {Band{-8, 5, 2, 0}});
    const HybridPattern d2(256, {Band{-8, 5, 4, 0}});
    EXPECT_FALSE(d1 == d2);
    EXPECT_NE(d1.fingerprint(), d2.fingerprint());

    // Single-offset band: the offset *set* is identical for any dilation,
    // but the patterns must still be distinguished (scheduler reordering
    // keys off the dilation).
    const HybridPattern s1(256, {Band{4, 1, 1, 0}});
    const HybridPattern s2(256, {Band{4, 1, 3, 0}});
    EXPECT_NE(s1.fingerprint(), s2.fingerprint());
}

TEST(PatternIdentity, GlobalSetOnlyDifferenceChangesFingerprint) {
    const HybridPattern g1 = sliding_window(256, 16, {0});
    const HybridPattern g2 = sliding_window(256, 16, {1});
    const HybridPattern g3 = sliding_window(256, 16, {0, 1});
    EXPECT_NE(g1.fingerprint(), g2.fingerprint());
    EXPECT_NE(g1.fingerprint(), g3.fingerprint());
    EXPECT_NE(g2.fingerprint(), g3.fingerprint());
}

TEST(PatternIdentity, BandSplitDoesNotAliasFingerprint) {
    // One 4-wide band vs two 2-wide bands covering the same offsets: the
    // field-count prefixes keep the byte streams distinct.
    const HybridPattern one(64, {Band{-2, 4, 1, 0}});
    const HybridPattern two(64, {Band{-2, 2, 1, 0}, Band{0, 2, 1, 0}});
    EXPECT_NE(one.fingerprint(), two.fingerprint());
}

TEST(PatternIdentity, FingerprintIsStableAcrossCopies) {
    const HybridPattern p = vil_2d(12, 12, 5, 5, 1);
    const HybridPattern copy = p;
    EXPECT_EQ(p.fingerprint(), copy.fingerprint());
    EXPECT_EQ(p.fingerprint(), vil_2d(12, 12, 5, 5, 1).fingerprint());
}

TEST(PatternIdentity, PaperPatternFamilyHasDistinctFingerprints) {
    std::vector<HybridPattern> family = {
        sliding_window(128, 16),
        dilated_window(128, -4, 4, 2),
        longformer(128, 16, 1),
        longformer(128, 16, 2),
        star_transformer(128),
        sparse_transformer_strided(128, 8),
        sparse_transformer_fixed(128, 8),
        vil_2d(16, 8, 5, 5, 1),
        vil_2d(8, 16, 5, 5, 1),  // transposed grid, same n
    };
    std::set<std::uint64_t> prints;
    for (const HybridPattern& p : family) prints.insert(p.fingerprint());
    EXPECT_EQ(prints.size(), family.size());
}

// -------------------------------------------------------------------------
// Geometry / options / combined plan fingerprints
// -------------------------------------------------------------------------

TEST(PlanFingerprint, GeometryAndOptionsParticipate) {
    const HybridPattern p = longformer(128, 16, 1);
    SaloConfig base;
    SaloConfig taller;
    taller.geometry.rows = 16;
    SaloConfig per_band;
    per_band.schedule_options.packing = PackingMode::kPerBand;

    const auto fp = [&](const SaloConfig& c, int d) {
        return plan_fingerprint(p, d, c.geometry, c.schedule_options);
    };
    EXPECT_EQ(fp(base, 64), fp(base, 64));
    EXPECT_NE(fp(base, 64), fp(taller, 64));
    EXPECT_NE(fp(base, 64), fp(per_band, 64));
    EXPECT_NE(fp(base, 64), fp(base, 32));  // head_dim participates
}

TEST(PlanFingerprint, CompileStampsTheKey) {
    const HybridPattern p = longformer(128, 16, 1);
    const SaloConfig config;
    const CompiledPlan plan = compile(p, 32, config);
    EXPECT_EQ(plan.fingerprint(),
              plan_fingerprint(p, 32, config.geometry, config.schedule_options));
    EXPECT_EQ(plan.head_dim(), 32);
    EXPECT_EQ(plan.n(), 128);
    EXPECT_TRUE(plan.pattern() == p);
    EXPECT_GT(plan.schedule_stats().total_tiles(), 0);
    // The compiled schedule is the scheduler's own.
    const SchedulePlan direct = schedule(p, config.geometry, 32, config.schedule_options);
    EXPECT_EQ(plan.plan().tiles.size(), direct.tiles.size());
    EXPECT_EQ(plan.schedule_stats().valid_slots, direct.stats.valid_slots);
}

// -------------------------------------------------------------------------
// SaloConfig validation
// -------------------------------------------------------------------------

TEST(ConfigValidation, RejectsNonsenseWithNamedField) {
    SaloConfig bus;
    bus.bus_bytes_per_cycle = 0;
    try {
        bus.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("bus_bytes_per_cycle"), std::string::npos);
    }

    SaloConfig zero_geometry;
    zero_geometry.geometry.rows = 0;
    try {
        zero_geometry.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("geometry.rows"), std::string::npos);
    }

    SaloConfig bad_freq;
    bad_freq.geometry.frequency_ghz = 0.0;
    EXPECT_THROW(bad_freq.validate(), ContractViolation);

    SaloConfig bad_cache;
    bad_cache.plan_cache_capacity = -1;
    EXPECT_THROW(bad_cache.validate(), ContractViolation);
}

TEST(ConfigValidation, EngineAndCompileReject) {
    SaloConfig bad;
    bad.bus_bytes_per_cycle = -7;
    EXPECT_THROW(SaloEngine{bad}, ContractViolation);
    EXPECT_THROW(compile(longformer(64, 8, 1), 16, bad), ContractViolation);
}

TEST(ConfigValidation, NumThreadsIsNormalizedNotRejected) {
    SaloConfig c;
    c.num_threads = -3;  // "auto"
    EXPECT_NO_THROW(c.validate());
    EXPECT_GE(c.effective_threads(), 1);
}

// -------------------------------------------------------------------------
// PlanCache
// -------------------------------------------------------------------------

TEST(PlanCacheTest, HitMissEviction) {
    PlanCache cache(2);
    const SaloConfig config;
    const HybridPattern a = longformer(64, 8, 1);
    const HybridPattern b = longformer(64, 8, 2);
    const HybridPattern c = longformer(64, 16, 1);

    const CompiledPlanPtr pa = cache.get_or_compile(a, 16, config);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.get_or_compile(a, 16, config), pa);  // hit: same artifact
    EXPECT_EQ(cache.stats().hits, 1u);

    cache.get_or_compile(b, 16, config);   // fills capacity
    cache.get_or_compile(a, 16, config);   // touch a -> b becomes LRU
    cache.get_or_compile(c, 16, config);   // evicts b
    const PlanCacheStats s1 = cache.stats();
    EXPECT_EQ(s1.evictions, 1u);
    EXPECT_EQ(s1.size, 2u);

    // a survived (was MRU); b was evicted and must recompile.
    EXPECT_EQ(cache.get_or_compile(a, 16, config), pa);
    const std::uint64_t hits_before = cache.stats().hits;
    cache.get_or_compile(b, 16, config);
    const PlanCacheStats s2 = cache.stats();
    EXPECT_EQ(s2.hits, hits_before);  // b was a miss
    EXPECT_EQ(s2.evictions, 2u);      // and evicted c, the LRU entry
}

TEST(PlanCacheTest, DistinctHeadDimsAreDistinctEntries) {
    PlanCache cache(8);
    const SaloConfig config;
    const HybridPattern p = longformer(64, 8, 1);
    const CompiledPlanPtr d16 = cache.get_or_compile(p, 16, config);
    const CompiledPlanPtr d32 = cache.get_or_compile(p, 32, config);
    EXPECT_NE(d16, d32);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().size, 2u);
}

TEST(PlanCacheTest, CrossThreadSharingReturnsOneArtifact) {
    PlanCache cache(8);
    const SaloConfig config;
    const HybridPattern p = longformer(192, 16, 1);
    constexpr int kThreads = 8;
    std::vector<CompiledPlanPtr> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { got[static_cast<std::size_t>(t)] = cache.get_or_compile(p, 32, config); });
    for (std::thread& t : threads) t.join();
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0], got[static_cast<std::size_t>(t)]);
    const PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(s.size, 1u);
    EXPECT_EQ(s.misses, 1u);  // in-flight dedup: racing threads share one compile
}

TEST(PlanCacheTest, ConcurrentColdCompileRunsSchedulerOnce) {
    // N threads hit a cold cache with the same fingerprint simultaneously
    // (spin barrier maximizes the race). In-flight deduplication must elect
    // exactly one leader: one miss, one scheduler run, N-1 hits that adopt
    // the leader's artifact — regardless of interleaving.
    PlanCache cache(8);
    const SaloConfig config;
    const HybridPattern p = longformer(256, 16, 2);
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<CompiledPlanPtr> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {}  // spin barrier
            got[static_cast<std::size_t>(t)] = cache.get_or_compile(p, 32, config);
        });
    for (std::thread& t : threads) t.join();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[static_cast<std::size_t>(t)], nullptr);
        EXPECT_EQ(got[0], got[static_cast<std::size_t>(t)]);
    }
    const PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(s.size, 1u);
}

TEST(PlanCacheTest, ThrowingCompileWakesWaitersAndRetries) {
    // Regression for the in-flight dedup exception path: the leader's
    // compile throws while another thread is waiting on the same key. The
    // waiter must be woken, elect itself the new leader, and compile
    // successfully — not sleep forever on a key nobody is compiling.
    // (A regression here fails as a ctest hang/timeout.)
    std::atomic<int> calls{0};
    std::atomic<bool> leader_compiling{false};
    std::atomic<bool> waiter_started{false};
    PlanCache cache(8, [&](const HybridPattern& pattern, int head_dim,
                           const SaloConfig& config) -> CompiledPlanPtr {
        if (calls.fetch_add(1) == 0) {
            // First (leader) call: announce that the key is in flight, hold
            // until the second thread has at least called into the cache —
            // it then waits on the in-flight key — and fail.
            leader_compiling.store(true);
            while (!waiter_started.load()) std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw EngineFault("injected compile failure");
        }
        return compile_shared(pattern, head_dim, config);
    });
    const SaloConfig config;
    const HybridPattern p = longformer(64, 8, 1);

    std::atomic<bool> leader_threw{false};
    std::thread leader([&] {
        try {
            cache.get_or_compile(p, 16, config);
        } catch (const EngineFault&) {
            leader_threw.store(true);
        }
    });
    CompiledPlanPtr adopted;
    std::thread waiter([&] {
        // Call in only once the leader owns the in-flight key, so this
        // thread is always the waiter, never the (throwing) leader.
        while (!leader_compiling.load()) std::this_thread::yield();
        waiter_started.store(true);
        adopted = cache.get_or_compile(p, 16, config);
    });
    leader.join();
    waiter.join();

    EXPECT_TRUE(leader_threw.load());  // the error reached the leader's caller
    ASSERT_NE(adopted, nullptr);       // the waiter recovered and compiled
    const PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 2u);    // both threads missed (no artifact to adopt)
    EXPECT_EQ(s.compiles, 1u);  // only the successful compile counts
    EXPECT_EQ(s.size, 1u);
    EXPECT_EQ(calls.load(), 2);
}

TEST(PlanCacheTest, PeekDoesNotCountOrReorder) {
    PlanCache cache(4);
    const SaloConfig config;
    const HybridPattern p = longformer(64, 8, 1);
    const CompiledPlanPtr plan = cache.get_or_compile(p, 16, config);
    const PlanCacheStats before = cache.stats();
    EXPECT_EQ(cache.peek(plan->fingerprint()), plan);
    EXPECT_EQ(cache.peek(~plan->fingerprint()), nullptr);
    const PlanCacheStats after = cache.stats();
    EXPECT_EQ(before.hits, after.hits);
    EXPECT_EQ(before.misses, after.misses);
}

// -------------------------------------------------------------------------
// Engine integration: compile() caching and legacy-shim equivalence
// -------------------------------------------------------------------------

TEST(EngineCompile, RepeatedCompileIsACacheHit) {
    const SaloEngine engine;
    const HybridPattern p = longformer(128, 16, 1);
    const CompiledPlanPtr first = engine.compile(p, 32);
    const CompiledPlanPtr second = engine.compile(p, 32);
    EXPECT_EQ(first, second);
    const PlanCacheStats s = engine.plan_cache_stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(EngineCompile, CachedPlanRunsMatchAFreshEnginesRun) {
    SaloConfig config;
    config.geometry.rows = 8;
    config.geometry.cols = 8;
    config.num_threads = 2;
    const SaloEngine engine(config);
    const SaloEngine fresh(config);
    const AttentionWorkload w = longformer_small(96, 16, 2, 16, 1);
    const QkvSet qkv = make_qkv(w, 5);

    (void)engine.compile(w.pattern, w.head_dim);
    const CompiledPlanPtr cached = engine.compile(w.pattern, w.head_dim);
    const LayerResult via_cache = engine.run(*cached, qkv.q, qkv.k, qkv.v, w.scale());
    const LayerResult via_fresh =
        fresh.run(*fresh.compile(w.pattern, w.head_dim), qkv.q, qkv.k, qkv.v, w.scale());

    ASSERT_EQ(via_cache.output.count(), via_fresh.output.count());
    for (int h = 0; h < via_cache.output.count(); ++h)
        EXPECT_DOUBLE_EQ(max_abs_diff(via_cache.output[h], via_fresh.output[h]), 0.0);
    EXPECT_EQ(via_cache.stats.cycles, via_fresh.stats.cycles);
    EXPECT_EQ(via_cache.schedule.valid_slots, via_fresh.schedule.valid_slots);
    EXPECT_EQ(engine.plan_cache_stats().misses, 1u);
    EXPECT_EQ(engine.plan_cache_stats().hits, 1u);
}

TEST(EngineCompile, RunRejectsPlanFromDifferentGeometry) {
    SaloConfig small;
    small.geometry.rows = 8;
    small.geometry.cols = 8;
    const SaloEngine small_engine(small);
    const SaloEngine default_engine;
    const HybridPattern p = longformer(64, 8, 1);
    const CompiledPlanPtr plan = small_engine.compile(p, 16);

    Rng rng(1);
    const Tensor3<float> q = random_tensor3(1, 64, 16, rng, 0.5);
    const Tensor3<float> k = random_tensor3(1, 64, 16, rng, 0.5);
    const Tensor3<float> v = random_tensor3(1, 64, 16, rng, 0.5);
    EXPECT_THROW(default_engine.run(*plan, q, k, v, 0.25f), ContractViolation);
}

}  // namespace
}  // namespace salo
