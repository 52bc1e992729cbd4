// Self-healing sharded serving tier (core/shard_router.hpp +
// core/health.hpp).
//
// The CircuitBreaker takes every time point explicitly, so the whole
// quarantine state machine — threshold open, cooldown half-open, clean-probe
// reintegration, dirty-probe re-quarantine — is driven here with synthetic
// timestamps and exact outcome sequences, no sleeps and no clock reads.
//
// The ShardedSession tests then exercise the live tier with deterministic
// FaultInjector triggers: serial submission plus per-request/per-shard
// injectors pin which shard every attempt lands on, so retry, failover,
// quarantine and reintegration counts are exact equalities, not eventual
// bounds. Completed results are compared bit-for-bit against the sequential
// engine run — whichever shard or attempt produced them.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/salo.hpp"
#include "workload/workloads.hpp"

namespace salo {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

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
}

struct Work {
    AttentionWorkload w = longformer_small(64, 8, 1, 16, 1);
    QkvSet qkv;
    explicit Work(std::uint64_t seed = 7) : qkv(make_qkv(w, seed)) {}

    AttentionRequest request() const {
        return make_request(w.pattern, qkv.q, qkv.k, qkv.v, w.scale());
    }

    /// The layer run synchronously on `engine`: the bit-exact reference.
    LayerResult run_on(const SaloEngine& engine) const {
        return engine.run(*engine.compile(w.pattern, w.head_dim), qkv.q, qkv.k, qkv.v,
                          w.scale());
    }
};

void expect_conserved(const SessionStats& s) {
    EXPECT_EQ(s.accounted(), s.submitted)
        << "completed=" << s.completed << " failed=" << s.failed
        << " rejected=" << s.rejected << " timed_out=" << s.timed_out
        << " cancelled=" << s.cancelled;
}

bool eventually(const std::function<bool()>& pred, milliseconds budget = milliseconds(3000)) {
    const Clock::time_point until = Clock::now() + budget;
    while (Clock::now() < until) {
        if (pred()) return true;
        std::this_thread::sleep_for(milliseconds(1));
    }
    return pred();
}

/// Injector that faults the first tile of the first `faults` attempts it
/// sees, then runs clean — the deterministic transient-fault trigger.
std::shared_ptr<FaultInjector> transient_fault(int faults) {
    FaultInjector::Config c;
    c.fault_tiles = {0};
    c.max_faults = faults;
    return std::make_shared<FaultInjector>(c);
}

/// Injector that wedges the first tile of the first `stalls` attempts for
/// `stall`, then runs clean.
std::shared_ptr<FaultInjector> transient_stall(milliseconds stall, int stalls) {
    FaultInjector::Config c;
    c.stall_tiles = {0};
    c.stall_for = std::chrono::duration_cast<std::chrono::microseconds>(stall);
    c.max_stalls = stalls;
    return std::make_shared<FaultInjector>(c);
}

// -------------------------------------------------------------------------
// CircuitBreaker: the full state machine under synthetic time.
// -------------------------------------------------------------------------

HealthPolicy tight_policy() {
    HealthPolicy p;
    p.window = 4;
    p.min_samples = 4;
    p.failure_threshold = 0.5;
    p.cooldown = milliseconds(25);
    p.reintegrate_after = 2;
    p.max_concurrent_probes = 1;
    return p;
}

Clock::time_point at(int ms) { return Clock::time_point{} + milliseconds(ms); }

TEST(CircuitBreaker, StaysHealthyBelowThresholdAndBeforeMinSamples) {
    // Below min_samples: even a 100% failure streak is not judged yet.
    CircuitBreaker early(tight_policy());
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(early.try_acquire(at(i)));
        early.record(CircuitBreaker::Outcome::failure, at(i));
    }
    EXPECT_EQ(early.state(at(3)), ShardState::healthy);
    EXPECT_EQ(early.quarantined_events(), 0u);

    // At and past min_samples: every rolling 4-sample window of this
    // sequence sits at 1/4 = 0.25, under the 0.5 threshold — never opens.
    CircuitBreaker b(tight_policy());
    const CircuitBreaker::Outcome seq[] = {
        CircuitBreaker::Outcome::success, CircuitBreaker::Outcome::failure,
        CircuitBreaker::Outcome::success, CircuitBreaker::Outcome::success,
        CircuitBreaker::Outcome::success, CircuitBreaker::Outcome::failure};
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(b.try_acquire(at(i)));
        b.record(seq[i], at(i));
    }
    EXPECT_EQ(b.state(at(6)), ShardState::healthy);
    EXPECT_EQ(b.quarantined_events(), 0u);
    EXPECT_DOUBLE_EQ(b.failure_fraction(), 0.25);  // window [S S S F]
}

TEST(CircuitBreaker, OpensAtThresholdWithMinSamples) {
    CircuitBreaker b(tight_policy());
    const CircuitBreaker::Outcome seq[] = {
        CircuitBreaker::Outcome::success, CircuitBreaker::Outcome::failure,
        CircuitBreaker::Outcome::success, CircuitBreaker::Outcome::failure};
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(b.try_acquire(at(i)));
        b.record(seq[i], at(i));
    }
    // 2/4 failures == threshold 0.5 -> open.
    EXPECT_EQ(b.state(at(4)), ShardState::quarantined);
    EXPECT_EQ(b.quarantined_events(), 1u);
    EXPECT_FALSE(b.try_acquire(at(4)));  // no traffic while quarantined
    EXPECT_EQ(b.quarantined_at(), at(3));
}

TEST(CircuitBreaker, NeutralOutcomesNeverJudgeTheShard) {
    CircuitBreaker b(tight_policy());
    // Cancels / caller deadlines / contract bugs release the slot without
    // entering the window: 100 of them must not open the breaker.
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(b.try_acquire(at(i)));
        b.record(CircuitBreaker::Outcome::neutral, at(i));
    }
    EXPECT_EQ(b.state(at(100)), ShardState::healthy);
    EXPECT_DOUBLE_EQ(b.failure_fraction(), 0.0);
    EXPECT_EQ(b.quarantined_events(), 0u);
}

TEST(CircuitBreaker, CooldownOpensExactlyOneProbeSlot) {
    CircuitBreaker b(tight_policy());
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(b.try_acquire(at(i)));
        b.record(CircuitBreaker::Outcome::failure, at(i));
    }
    ASSERT_EQ(b.state(at(4)), ShardState::quarantined);
    // One tick before the cooldown (25 ms from the open at t=3): still shut.
    EXPECT_FALSE(b.try_acquire(at(3 + 24)));
    // Cooldown elapsed: half-open with max_concurrent_probes = 1.
    EXPECT_EQ(b.state(at(3 + 25)), ShardState::probing);
    EXPECT_TRUE(b.try_acquire(at(3 + 25)));
    EXPECT_FALSE(b.try_acquire(at(3 + 25)));  // second probe refused
}

TEST(CircuitBreaker, CleanProbesReintegrate) {
    CircuitBreaker b(tight_policy());
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(b.try_acquire(at(i)));
        b.record(CircuitBreaker::Outcome::failure, at(i));
    }
    const int probe_t = 3 + 25;
    ASSERT_TRUE(b.try_acquire(at(probe_t)));
    b.record(CircuitBreaker::Outcome::success, at(probe_t));
    EXPECT_EQ(b.state(at(probe_t)), ShardState::probing);  // 1 of 2 clean
    ASSERT_TRUE(b.try_acquire(at(probe_t + 1)));
    b.record(CircuitBreaker::Outcome::success, at(probe_t + 1));
    EXPECT_EQ(b.state(at(probe_t + 1)), ShardState::healthy);
    EXPECT_EQ(b.reintegrated_events(), 1u);
    // Reintegration cleared the window: old failures are forgotten.
    EXPECT_DOUBLE_EQ(b.failure_fraction(), 0.0);
}

TEST(CircuitBreaker, DirtyProbeRestartsTheQuarantine) {
    CircuitBreaker b(tight_policy());
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(b.try_acquire(at(i)));
        b.record(CircuitBreaker::Outcome::failure, at(i));
    }
    const int probe_t = 3 + 25;
    ASSERT_TRUE(b.try_acquire(at(probe_t)));
    b.record(CircuitBreaker::Outcome::failure, at(probe_t));
    EXPECT_EQ(b.state(at(probe_t)), ShardState::quarantined);
    EXPECT_EQ(b.quarantined_events(), 2u);
    EXPECT_EQ(b.reintegrated_events(), 0u);
    // The cooldown restarted from the dirty probe, not the first open.
    EXPECT_FALSE(b.try_acquire(at(probe_t + 24)));
    EXPECT_EQ(b.state(at(probe_t + 25)), ShardState::probing);
}

TEST(HealthSupervisor, ForcedProbeKeepsAFullyQuarantinedTierServing) {
    HealthPolicy p = tight_policy();
    p.min_samples = 1;
    p.failure_threshold = 0.5;
    p.cooldown = milliseconds(10000);  // nothing reopens by itself
    HealthSupervisor sup(2, p);

    // Open shard 0 at t=0 and shard 1 at t=1.
    ASSERT_TRUE(sup.try_acquire(0, at(0)));
    sup.record(0, CircuitBreaker::Outcome::failure, at(0));
    ASSERT_TRUE(sup.try_acquire(1, at(1)));
    sup.record(1, CircuitBreaker::Outcome::failure, at(1));
    EXPECT_TRUE(sup.acquirable(at(2)).empty());
    EXPECT_EQ(sup.healthy_count(at(2)), 0);
    EXPECT_EQ(sup.quarantined_events_total(), 2u);

    // Every breaker refuses -> force-probe the oldest quarantine (shard 0).
    EXPECT_EQ(sup.force_acquire_soonest(at(2)), 0);
    sup.record(0, CircuitBreaker::Outcome::success, at(2));
    EXPECT_EQ(sup.force_acquire_soonest(at(3)), 0);
    sup.record(0, CircuitBreaker::Outcome::success, at(3));
    // reintegrate_after = 2 clean forced probes close shard 0's breaker.
    EXPECT_EQ(sup.healthy_count(at(4)), 1);
    EXPECT_EQ(sup.reintegrated_events_total(), 1u);
    EXPECT_EQ(sup.snapshot(at(4))[0].state, ShardState::healthy);
    EXPECT_EQ(sup.snapshot(at(4))[1].state, ShardState::quarantined);
}

// -------------------------------------------------------------------------
// ShardedSession: routing, bit-identity, and the conservation law.
// -------------------------------------------------------------------------

TEST(ShardedSession, MixedStreamBitIdenticalToSequentialEngine) {
    const SaloConfig config = serving_config(1);
    const SaloEngine reference(config);
    std::vector<Work> work;
    for (std::uint64_t s = 0; s < 8; ++s) work.emplace_back(100 + s);
    std::vector<LayerResult> expected;
    expected.reserve(work.size());
    for (const Work& w : work)
        expected.push_back(w.run_on(reference));

    ShardedSessionOptions options;
    options.num_shards = 2;
    ShardedSession tier(config, options);
    std::vector<std::future<LayerResult>> futures;
    for (const Work& w : work) futures.push_back(tier.submit(w.request()));
    for (std::size_t i = 0; i < futures.size(); ++i)
        expect_identical_layer(futures[i].get(), expected[i], "sharded request");
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.submitted, work.size());
    EXPECT_EQ(s.completed, work.size());
    EXPECT_EQ(s.retried, 0u);
    EXPECT_EQ(s.failed_over, 0u);
    EXPECT_EQ(s.quarantined_shard_events, 0u);
    expect_conserved(s);
}

TEST(ShardedSession, DefaultTierCompilesEachShapeOnce) {
    // The tier has one plan cache: a shape looked up on every shard and
    // then served by a concurrent burst (least-cost routing spreads it over
    // any subset of shards) runs the scheduler once, and every shard hands
    // out the same artifact.
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 4;
    ShardedSession tier(serving_config(1), options);
    const CompiledPlanPtr plan = tier.shard_engine(0).compile(work.w.pattern, work.w.head_dim);
    for (int s = 1; s < tier.num_shards(); ++s)
        EXPECT_EQ(tier.shard_engine(s).compile(work.w.pattern, work.w.head_dim).get(),
                  plan.get())
            << "shard " << s;
    std::vector<std::future<LayerResult>> futures;
    for (int i = 0; i < 16; ++i) futures.push_back(tier.submit(work.request()));
    for (auto& f : futures) EXPECT_EQ(f.get().output.count(), 1);
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.plan_cache.compiles, 1u) << "scheduler ran more than once";
    EXPECT_EQ(s.plan_cache.misses, 1u);
    EXPECT_EQ(s.completed, 16u);
}

// -------------------------------------------------------------------------
// Retry and failover.
// -------------------------------------------------------------------------

TEST(ShardedSession, TransientFaultFailsOverToAnotherShardAndCompletes) {
    const SaloConfig config = serving_config(1);
    const SaloEngine reference(config);
    const Work work;
    const LayerResult expected = work.run_on(reference);

    ShardedSessionOptions options;
    options.num_shards = 2;
    ShardedSession tier(config, options);
    auto injector = transient_fault(1);  // first attempt faults, retry clean
    AttentionRequest r = work.request();
    r.fault_injector = injector;
    auto future = tier.submit(std::move(r));
    expect_identical_layer(future.get(), expected, "retried request");
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.retried, 1u);
    EXPECT_EQ(s.failed_over, 1u);  // the retry went to the other shard
    EXPECT_EQ(injector->faults_injected(), 1u);
    expect_conserved(s);
}

TEST(ShardedSession, RetriedIsCountedPerAttempt) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.max_attempts = 3;
    ShardedSession tier(serving_config(1), options);
    auto injector = transient_fault(2);  // attempts 1 and 2 fault, 3rd clean
    AttentionRequest r = work.request();
    r.fault_injector = injector;
    EXPECT_EQ(tier.submit(std::move(r)).get().output.count(), 1);
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.retried, 2u);      // one request, two re-dispatches
    EXPECT_EQ(s.failed_over, 2u);  // each retry preferred the other shard
    expect_conserved(s);
}

TEST(ShardedSession, RetryBudgetExhaustionFailsTyped) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.max_attempts = 3;
    ShardedSession tier(serving_config(1), options);
    auto injector = transient_fault(-1);  // every attempt faults
    AttentionRequest r = work.request();
    r.fault_injector = injector;
    auto future = tier.submit(std::move(r));
    EXPECT_THROW(future.get(), EngineFault);
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.retried, 2u);  // attempts 2 and 3
    EXPECT_EQ(injector->faults_injected(), 3u);
    expect_conserved(s);
}

TEST(ShardedSession, StallPastAttemptBoundFailsOverAndCompletes) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.stall_timeout = milliseconds(250);
    ShardedSession tier(serving_config(1), options);
    // First attempt wedges for 5 s — far past the 250 ms attempt bound — so
    // the tier must abandon it as a shard stall and retry, not wait it out.
    auto injector = transient_stall(milliseconds(5000), 1);
    AttentionRequest r = work.request();
    r.fault_injector = injector;
    const Clock::time_point t0 = Clock::now();
    auto future = tier.submit(std::move(r));
    EXPECT_EQ(future.get().output.count(), 1);
    const milliseconds took =
        std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_LT(took.count(), 4000);  // never sat out the 5 s wedge
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.timed_out, 0u);  // a stall bound is not the request deadline
    EXPECT_EQ(s.retried, 1u);
    EXPECT_EQ(s.failed_over, 1u);
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// No wasted retries: cancellation and deadlines between attempts.
// -------------------------------------------------------------------------

TEST(ShardedSession, CancelDuringBackoffAbortsImmediatelyAsCancelled) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.max_attempts = 5;
    // A backoff long enough that sitting it out would dominate the test:
    // jitter keeps it in [2.5 s, 5 s].
    options.retry.base_backoff = std::chrono::microseconds(5000000);
    options.retry.max_backoff = std::chrono::microseconds(5000000);
    ShardedSession tier(serving_config(1), options);

    auto injector = transient_fault(-1);
    CancellationToken token = CancellationToken::make();
    AttentionRequest r = work.request();
    r.fault_injector = injector;
    r.cancel = token;
    auto future = tier.submit(std::move(r));
    // Wait for the first fault, then cancel while the worker is in backoff.
    ASSERT_TRUE(eventually([&] { return injector->faults_injected() >= 1; }));
    const Clock::time_point t0 = Clock::now();
    token.request_cancel();
    EXPECT_THROW(future.get(), RequestCancelled);  // not EngineFault
    const milliseconds took =
        std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_LT(took.count(), 1000);  // aborted the 2.5 s+ sleep, did not serve it
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.cancelled, 1u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.retried, 0u);  // the cancelled request never burned a retry
    expect_conserved(s);
}

TEST(ShardedSession, DeadlineDuringBackoffResolvesDeadlineExceeded) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.base_backoff = std::chrono::microseconds(5000000);
    options.retry.max_backoff = std::chrono::microseconds(5000000);
    ShardedSession tier(serving_config(1), options);

    auto injector = transient_fault(-1);
    AttentionRequest r = work.request();
    r.fault_injector = injector;
    r.deadline = Clock::now() + milliseconds(150);
    const Clock::time_point t0 = Clock::now();
    auto future = tier.submit(std::move(r));
    EXPECT_THROW(future.get(), DeadlineExceeded);
    const milliseconds took =
        std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_LT(took.count(), 2000);  // the deadline cut the 2.5 s+ backoff short
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.retried, 0u);  // expired requests are never retried
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// Quarantine and reintegration on a live tier.
// -------------------------------------------------------------------------

TEST(ShardedSession, FaultingShardIsQuarantinedAndTrafficReroutes) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.max_attempts = 2;
    options.health.window = 4;
    options.health.min_samples = 2;
    options.health.failure_threshold = 0.5;
    options.health.cooldown = milliseconds(10000);  // stays out for the test
    // Shard 0 faults every attempt at its first tile; shard 1 is clean.
    FaultInjector::Config bad;
    bad.fault_tiles = {0};
    auto bad_injector = std::make_shared<FaultInjector>(bad);
    options.shard_fault_injectors = {bad_injector, nullptr};
    ShardedSession tier(serving_config(1), options);

    // Serial submission: requests 1-2 land on shard 0 (least-cost tie),
    // fault, fail over to shard 1; the second failure opens the breaker, so
    // requests 3-8 route straight to shard 1 with no further retries.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(tier.submit(work.request()).get().output.count(), 1) << i;

    const std::vector<ShardHealthSnapshot> health = tier.shard_health();
    EXPECT_EQ(health[0].state, ShardState::quarantined);
    EXPECT_EQ(health[1].state, ShardState::healthy);
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.completed, 8u);
    EXPECT_EQ(s.retried, 2u);
    EXPECT_EQ(s.failed_over, 2u);
    EXPECT_EQ(s.quarantined_shard_events, 1u);
    EXPECT_EQ(s.reintegrated_shard_events, 0u);
    EXPECT_EQ(bad_injector->faults_injected(), 2u);
    expect_conserved(s);
}

TEST(ShardedSession, HealedShardIsProbedAndReintegrated) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.max_attempts = 2;
    options.health.window = 4;
    options.health.min_samples = 2;
    options.health.failure_threshold = 0.5;
    options.health.cooldown = milliseconds(20);
    options.health.reintegrate_after = 2;
    // Shard 0 faults its first two attempts, then is healthy again — the
    // transient-incident shape quarantine must recover from.
    FaultInjector::Config bad;
    bad.fault_tiles = {0};
    bad.max_faults = 2;
    auto bad_injector = std::make_shared<FaultInjector>(bad);
    options.shard_fault_injectors = {bad_injector, nullptr};
    ShardedSession tier(serving_config(1), options);

    // Trip the breaker: two serial requests fault on shard 0 and fail over.
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(tier.submit(work.request()).get().output.count(), 1) << i;
    ASSERT_EQ(tier.stats().quarantined_shard_events, 1u);

    // Keep trickling traffic; once the cooldown elapses the router probes
    // shard 0 (now clean), and two clean probes reintegrate it.
    ASSERT_TRUE(eventually([&] {
        EXPECT_EQ(tier.submit(work.request()).get().output.count(), 1);
        std::this_thread::sleep_for(milliseconds(5));
        return tier.stats().reintegrated_shard_events >= 1;
    }));
    EXPECT_EQ(tier.shard_health()[0].state, ShardState::healthy);
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.completed, s.submitted);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.quarantined_shard_events, 1u);
    EXPECT_EQ(s.reintegrated_shard_events, 1u);
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// Degradation-aware admission: limits shrink with the healthy fraction.
// -------------------------------------------------------------------------

TEST(ScaledPolicy, ShrinksLimitsProportionallyNeverBelowOne) {
    AdmissionPolicy base;
    base.max_queue = 32;
    base.max_queue_batch = 8;
    base.max_outstanding_cost = 1000;

    const AdmissionPolicy half = scaled_policy(base, 2, 4);
    EXPECT_EQ(half.max_queue, 16u);
    EXPECT_EQ(half.max_queue_batch, 4u);
    EXPECT_EQ(half.max_outstanding_cost, 500u);

    // One healthy shard of four: scaled but clamped at >= 1.
    const AdmissionPolicy quarter = scaled_policy(base, 1, 4);
    EXPECT_EQ(quarter.max_queue, 8u);
    AdmissionPolicy tiny;
    tiny.max_queue = 2;
    EXPECT_EQ(scaled_policy(tiny, 1, 4).max_queue, 1u);

    // Unbounded (0) limits stay unbounded; a fully-healthy tier is a no-op.
    AdmissionPolicy unbounded;
    EXPECT_EQ(scaled_policy(unbounded, 1, 4).max_queue, 0u);
    EXPECT_EQ(scaled_policy(base, 4, 4).max_queue, 32u);
    EXPECT_EQ(scaled_policy(base, 0, 4).max_queue, 1u);
}

TEST(ScaledPolicy, BoundaryHealthCounts) {
    AdmissionPolicy base;
    base.max_queue = 32;
    base.max_queue_batch = 8;
    base.max_outstanding_cost = 1000;

    // Zero healthy shards: every bounded limit clamps to the floor of one —
    // the tier still admits a trickle for the forced health probes.
    const AdmissionPolicy dead = scaled_policy(base, 0, 4);
    EXPECT_EQ(dead.max_queue, 1u);
    EXPECT_EQ(dead.max_queue_batch, 1u);
    EXPECT_EQ(dead.max_outstanding_cost, 1u);

    // One healthy shard: proportional share, still >= 1 everywhere.
    const AdmissionPolicy one = scaled_policy(base, 1, 4);
    EXPECT_EQ(one.max_queue, 8u);
    EXPECT_EQ(one.max_queue_batch, 2u);
    EXPECT_EQ(one.max_outstanding_cost, 250u);

    // Rounding must never shrink admission below one interactive slot:
    // 3 * 1 / 4 truncates to 0 and must clamp to 1, for every limit kind.
    AdmissionPolicy small;
    small.max_queue = 3;
    small.max_queue_batch = 3;
    small.max_outstanding_cost = 3;
    const AdmissionPolicy floored = scaled_policy(small, 1, 4);
    EXPECT_EQ(floored.max_queue, 1u);
    EXPECT_EQ(floored.max_queue_batch, 1u);
    EXPECT_EQ(floored.max_outstanding_cost, 1u);

    // Degenerate inputs: negative healthy behaves like zero; a nonsense
    // total (<= 0) and healthy >= total leave the policy untouched.
    EXPECT_EQ(scaled_policy(base, -3, 4).max_queue, 1u);
    EXPECT_EQ(scaled_policy(base, 2, 0).max_queue, 32u);
    EXPECT_EQ(scaled_policy(base, 9, 4).max_queue, 32u);

    // Unbounded (0) limits are never turned into bounds by scaling.
    AdmissionPolicy unbounded;
    EXPECT_EQ(scaled_policy(unbounded, 0, 4).max_queue, 0u);
    EXPECT_EQ(scaled_policy(unbounded, 0, 4).max_outstanding_cost, 0u);
}

// -------------------------------------------------------------------------
// Tenant fairness layer (core/fair_queue.hpp wired into the router).
// -------------------------------------------------------------------------

TEST(TenantFairness, PerTenantStatsBreakdownSumsToGlobal) {
    ShardedSessionOptions options;
    options.num_shards = 2;
    ShardedSession tier(serving_config(1), options);
    const Work work;

    for (int i = 0; i < 3; ++i) {
        AttentionRequest r = work.request();
        r.tenant_id = "alpha";
        EXPECT_EQ(tier.submit(std::move(r)).get().output.count(), 1);
    }
    for (int i = 0; i < 2; ++i) {
        AttentionRequest r = work.request();
        r.tenant_id = "beta";
        EXPECT_EQ(tier.submit(std::move(r)).get().output.count(), 1);
    }
    EXPECT_EQ(tier.submit(work.request()).get().output.count(), 1);  // default tenant
    tier.close();

    const auto per_tenant = tier.tenant_stats();
    ASSERT_EQ(per_tenant.size(), 3u);
    EXPECT_EQ(per_tenant.at("alpha").submitted, 3u);
    EXPECT_EQ(per_tenant.at("alpha").completed, 3u);
    EXPECT_EQ(per_tenant.at("beta").submitted, 2u);
    EXPECT_EQ(per_tenant.at("beta").completed, 2u);
    EXPECT_EQ(per_tenant.at("").submitted, 1u);

    const SessionStats s = tier.stats();
    expect_conserved(s);
    std::uint64_t submitted = 0, completed = 0;
    for (const auto& [name, t] : per_tenant) {
        EXPECT_EQ(t.accounted(), t.submitted) << "tenant " << name;
        submitted += t.submitted;
        completed += t.completed;
    }
    EXPECT_EQ(submitted, s.submitted);
    EXPECT_EQ(completed, s.completed);
}

TEST(TenantFairness, IdleTenantQueueStateIsReclaimedStatsPersist) {
    ShardedSession tier(serving_config(1), {});
    const Work work;
    AttentionRequest r = work.request();
    r.tenant_id = "ephemeral";
    EXPECT_EQ(tier.submit(std::move(r)).get().output.count(), 1);
    tier.drain();
    // The scheduler entry (queues, deficit) is gone; the stats entry stays.
    ASSERT_TRUE(eventually([&] { return !tier.tenant_queue("ephemeral").has_value(); }));
    EXPECT_EQ(tier.tenant_stats().at("ephemeral").completed, 1u);
    tier.close();
}

TEST(TenantFairness, NoisyTenantShedsAgainstItsOwnQuotaOnly) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 1;
    options.router_workers = 1;  // single lane: queue depths are observable
    options.retry.max_attempts = 1;
    // The noisy tenant gets a 2-deep reject-fast queue quota; everyone
    // else (and the global policy) stays unbounded.
    options.fairness.tenants["noisy"].admission.mode = AdmissionMode::reject_fast;
    options.fairness.tenants["noisy"].admission.max_queue = 2;
    ShardedSession tier(serving_config(1), options);

    // Wedge the single router lane with a stalled noisy request so later
    // submissions pile up in the tenant queues.
    auto stall = transient_stall(milliseconds(400), 1);
    AttentionRequest wedge = work.request();
    wedge.tenant_id = "noisy";
    wedge.fault_injector = stall;
    auto wedged = tier.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    // The flood: 2 admitted into the noisy queue, the rest shed with
    // QueueFull against the tenant's own quota.
    std::vector<std::future<LayerResult>> noisy_admitted;
    std::vector<std::future<LayerResult>> noisy_shed;
    for (int i = 0; i < 5; ++i) {
        AttentionRequest r = work.request();
        r.tenant_id = "noisy";
        if (i < 2)
            noisy_admitted.push_back(tier.submit(std::move(r)));
        else
            noisy_shed.push_back(tier.submit(std::move(r)));
    }
    // A well-behaved tenant is admitted freely at the same moment.
    std::vector<std::future<LayerResult>> calm;
    for (int i = 0; i < 3; ++i) {
        AttentionRequest r = work.request();
        r.tenant_id = "calm";
        calm.push_back(tier.submit(std::move(r)));
    }

    for (auto& f : noisy_shed) EXPECT_THROW(f.get(), QueueFull);
    EXPECT_EQ(wedged.get().output.count(), 1);
    for (auto& f : noisy_admitted) EXPECT_EQ(f.get().output.count(), 1);
    for (auto& f : calm) EXPECT_EQ(f.get().output.count(), 1);
    tier.close();

    const auto per_tenant = tier.tenant_stats();
    EXPECT_EQ(per_tenant.at("noisy").rejected, 3u);
    EXPECT_EQ(per_tenant.at("noisy").completed, 3u);
    EXPECT_EQ(per_tenant.at("calm").rejected, 0u);
    EXPECT_EQ(per_tenant.at("calm").completed, 3u);
    for (const auto& [name, t] : per_tenant)
        EXPECT_EQ(t.accounted(), t.submitted) << "tenant " << name;
    expect_conserved(tier.stats());
}

TEST(TenantFairness, RetryIsBilledToTheTenant) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.max_attempts = 3;
    options.retry.base_backoff = std::chrono::microseconds(100);
    ShardedSession tier(serving_config(1), options);

    AttentionRequest r = work.request();
    r.tenant_id = "flaky";
    r.fault_injector = transient_fault(1);  // first attempt faults, retry clean
    EXPECT_EQ(tier.submit(std::move(r)).get().output.count(), 1);
    tier.close();

    const auto per_tenant = tier.tenant_stats();
    EXPECT_EQ(per_tenant.at("flaky").retried, 1u);
    EXPECT_EQ(per_tenant.at("flaky").completed, 1u);
    const SessionStats s = tier.stats();
    EXPECT_EQ(s.retried, 1u);
    expect_conserved(s);
}

TEST(TenantFairness, SharedPlanStoreCompilesOnceTierWide) {
    // Acceptance gate: under least-cost routing across 4 shards, a
    // repeated shape runs the scheduler exactly once tier-wide — every
    // shard engine resolves plans through the tier's one cache.
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 4;
    ShardedSession tier(serving_config(1), options);

    const SaloEngine seq(serving_config(1));
    const LayerResult expected = work.run_on(seq);

    // A concurrent burst: least-cost routing is free to spread the shape
    // over any subset of shards — the compile count must stay 1 anyway.
    std::vector<std::future<LayerResult>> futures;
    for (int i = 0; i < 16; ++i) futures.push_back(tier.submit(work.request()));
    for (auto& f : futures) expect_identical_layer(f.get(), expected, "shared-store");
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.plan_cache.compiles, 1u) << "scheduler ran more than once tier-wide";
    for (int shard = 0; shard < tier.num_shards(); ++shard) {
        const PlanCacheStats c = tier.shard_engine(shard).plan_cache_stats();
        EXPECT_EQ(c.compiles, 1u) << "shard " << shard;
        EXPECT_EQ(c.hits + c.misses, s.plan_cache.hits + s.plan_cache.misses)
            << "shard " << shard << " reports another cache than the tier";
    }
    EXPECT_EQ(s.completed, 16u);
    expect_conserved(s);
}

TEST(TenantFairness, TierStatsCountSharedStoreCompiles) {
    // stats().plan_cache.compiles is the tier's scheduler-pass count: the
    // one cache's single compile, not a sum over shards.
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 4;
    ShardedSession tier(serving_config(1), options);
    std::vector<std::future<LayerResult>> futures;
    for (int i = 0; i < 8; ++i) futures.push_back(tier.submit(work.request()));
    for (auto& f : futures) EXPECT_EQ(f.get().output.count(), 1);
    tier.close();

    EXPECT_EQ(tier.stats().plan_cache.compiles, 1u);
}

TEST(ShardedSession, DegradedTierShedsEarlier) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.max_attempts = 2;
    options.health.min_samples = 2;
    options.health.failure_threshold = 0.5;
    options.health.cooldown = milliseconds(10000);
    options.admission.mode = AdmissionMode::reject_fast;
    options.admission.max_queue = 8;
    options.router_workers = 1;  // single lane: queued depth is observable
    FaultInjector::Config bad;
    bad.fault_tiles = {0};
    auto bad_injector = std::make_shared<FaultInjector>(bad);
    options.shard_fault_injectors = {bad_injector, nullptr};
    ShardedSession tier(serving_config(1), options);

    // Quarantine shard 0 (two faulting requests served serially).
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(tier.submit(work.request()).get().output.count(), 1) << i;
    ASSERT_EQ(tier.stats().quarantined_shard_events, 1u);

    // Wedge the single router lane so submissions stay queued, then fill
    // the scaled queue: 1 of 2 shards healthy halves max_queue to 4.
    auto stall = transient_stall(milliseconds(400), 1);
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto wedged = tier.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    std::vector<std::future<LayerResult>> admitted;
    for (int i = 0; i < 4; ++i) admitted.push_back(tier.submit(work.request()));
    auto shed = tier.submit(work.request());  // 5th queued: over the scaled cap
    EXPECT_THROW(shed.get(), QueueFull);

    EXPECT_EQ(wedged.get().output.count(), 1);
    for (auto& f : admitted) EXPECT_EQ(f.get().output.count(), 1);
    tier.close();
    const SessionStats s = tier.stats();
    EXPECT_EQ(s.rejected, 1u);
    expect_conserved(s);
}

}  // namespace
}  // namespace salo
