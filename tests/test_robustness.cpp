// Overload-hardened serving: typed failure delivery, deadlines and
// cancellation (shed-before-dispatch and tile-boundary mid-flight),
// admission control (reject_fast / block_with_timeout / per-class caps),
// and the stats conservation law
//
//   completed + failed + rejected + timed_out + cancelled == submitted.
//
// The tests wedge the dispatcher deterministically with a FaultInjector
// stall on the first request, so later requests are provably still queued
// when they are shed/cancelled — probe injectors (tiles_seen() == 0) prove
// shed requests never reached the engine pool.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
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

/// An injector that sleeps at the first tile boundary of every head run —
/// the deterministic dispatcher wedge used to keep later requests queued.
std::shared_ptr<FaultInjector> stall_injector(milliseconds stall) {
    FaultInjector::Config c;
    c.stall_tiles = {0};
    c.stall_for = std::chrono::duration_cast<std::chrono::microseconds>(stall);
    return std::make_shared<FaultInjector>(c);
}

/// Trigger-free injector: counts tile-boundary visits only, so a test can
/// assert a request never executed (tiles_seen() == 0).
std::shared_ptr<FaultInjector> probe_injector() {
    return std::make_shared<FaultInjector>();
}

bool eventually(const std::function<bool()>& pred, milliseconds budget = milliseconds(2000)) {
    const Clock::time_point until = Clock::now() + budget;
    while (Clock::now() < until) {
        if (pred()) return true;
        std::this_thread::sleep_for(milliseconds(1));
    }
    return pred();
}

struct Work {
    AttentionWorkload w = longformer_small(64, 8, 1, 16, 1);
    QkvSet qkv;
    explicit Work(std::uint64_t seed = 7) : qkv(make_qkv(w, seed)) {}

    AttentionRequest request() const {
        return make_request(w.pattern, qkv.q, qkv.k, qkv.v, w.scale());
    }
};

void expect_conserved(const SessionStats& s) {
    EXPECT_EQ(s.accounted(), s.submitted)
        << "completed=" << s.completed << " failed=" << s.failed
        << " rejected=" << s.rejected << " timed_out=" << s.timed_out
        << " cancelled=" << s.cancelled;
}

// -------------------------------------------------------------------------
// AdmissionController: pure decision logic (no session needed).
// -------------------------------------------------------------------------

TEST(AdmissionController, UnboundedPolicyAdmitsEverything) {
    const AdmissionController ctl{AdmissionPolicy{}};
    EXPECT_FALSE(ctl.bounded());
    AdmissionSnapshot s;
    s.queued_interactive = 1000000;
    s.queued_batch = 1000000;
    s.outstanding_cost = ~0ull / 2;
    EXPECT_EQ(ctl.decide(s, Priority::interactive, 1), AdmissionDecision::admit);
    EXPECT_EQ(ctl.decide(s, Priority::batch, 1), AdmissionDecision::admit);
}

TEST(AdmissionController, DepthLimitWaitsOrRejectsByMode) {
    AdmissionPolicy p;
    p.max_queue = 4;
    AdmissionSnapshot s;
    s.queued_interactive = 4;

    p.mode = AdmissionMode::block;
    EXPECT_EQ(AdmissionController(p).decide(s, Priority::interactive, 1),
              AdmissionDecision::wait);
    p.mode = AdmissionMode::block_with_timeout;
    EXPECT_EQ(AdmissionController(p).decide(s, Priority::interactive, 1),
              AdmissionDecision::wait);
    p.mode = AdmissionMode::reject_fast;
    EXPECT_EQ(AdmissionController(p).decide(s, Priority::interactive, 1),
              AdmissionDecision::reject);

    s.queued_interactive = 3;  // below the limit again
    EXPECT_EQ(AdmissionController(p).decide(s, Priority::interactive, 1),
              AdmissionDecision::admit);
}

TEST(AdmissionController, BatchCapOnlyCapsBatchClass) {
    AdmissionPolicy p;
    p.mode = AdmissionMode::reject_fast;
    p.max_queue = 100;
    p.max_queue_batch = 2;
    const AdmissionController ctl(p);
    AdmissionSnapshot s;
    s.queued_batch = 2;
    EXPECT_EQ(ctl.decide(s, Priority::batch, 1), AdmissionDecision::reject);
    EXPECT_EQ(ctl.decide(s, Priority::interactive, 1), AdmissionDecision::admit);
}

TEST(AdmissionController, CostGateAdmitsALoneOversizedRequest) {
    AdmissionPolicy p;
    p.mode = AdmissionMode::reject_fast;
    p.max_outstanding_cost = 100;
    const AdmissionController ctl(p);
    AdmissionSnapshot idle;  // nothing queued or in flight
    EXPECT_EQ(ctl.decide(idle, Priority::interactive, 5000), AdmissionDecision::admit);
    AdmissionSnapshot busy;
    busy.outstanding_cost = 60;
    EXPECT_EQ(ctl.decide(busy, Priority::interactive, 50), AdmissionDecision::reject);
    EXPECT_EQ(ctl.decide(busy, Priority::interactive, 30), AdmissionDecision::admit);
}

// -------------------------------------------------------------------------
// Deadlines: shed-before-dispatch and tile-boundary mid-flight expiry.
// -------------------------------------------------------------------------

TEST(Robustness, AlreadyExpiredDeadlineIsShedAtSubmit) {
    const Work work;
    SaloSession session(serving_config(1));
    auto probe = probe_injector();
    AttentionRequest r = work.request();
    r.deadline = Clock::now() - milliseconds(1);
    r.fault_injector = probe;
    auto future = session.submit(std::move(r));
    EXPECT_THROW(future.get(), DeadlineExceeded);
    EXPECT_EQ(probe->tiles_seen(), 0u);  // never reached the engine
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.shed_expired, 1u);
    expect_conserved(s);
}

TEST(Robustness, DeadlineExpiredWhileQueuedIsShedBeforeDispatch) {
    const Work work;
    SaloSession session(serving_config(1));

    auto stall = stall_injector(milliseconds(300));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    // Queued behind the wedge with a deadline that expires during the stall.
    auto probe = probe_injector();
    AttentionRequest r = work.request();
    r.deadline = Clock::now() + milliseconds(50);
    r.fault_injector = probe;
    auto future = session.submit(std::move(r));

    EXPECT_EQ(first.get().output.count(), 1);  // the wedge itself completes
    EXPECT_THROW(future.get(), DeadlineExceeded);
    EXPECT_EQ(probe->tiles_seen(), 0u);  // shed before batching, not mid-run
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.shed_expired, 1u);
    expect_conserved(s);
}

TEST(Robustness, MidFlightDeadlineStopsAtTileBoundary) {
    const Work work;
    SaloSession session(serving_config(1));
    // The request itself stalls at its first tile past its own deadline, so
    // expiry is only observable at the next tile boundary.
    auto stall = stall_injector(milliseconds(150));
    AttentionRequest r = work.request();
    r.deadline = Clock::now() + milliseconds(50);
    r.fault_injector = stall;
    auto future = session.submit(std::move(r));
    EXPECT_THROW(future.get(), DeadlineExceeded);
    EXPECT_GE(stall->tiles_seen(), 1u);  // it did start executing
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.shed_expired, 0u);  // mid-flight expiry, not a queue shed
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// Cancellation: pre-dispatch shed and tile-boundary mid-flight stop.
// -------------------------------------------------------------------------

TEST(Robustness, CancelledWhileQueuedNeverReachesEngine) {
    const Work work;
    SaloSession session(serving_config(1));

    auto stall = stall_injector(milliseconds(300));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    auto probe = probe_injector();
    CancellationToken token = CancellationToken::make();
    AttentionRequest r = work.request();
    r.cancel = token;
    r.fault_injector = probe;
    auto future = session.submit(std::move(r));
    token.request_cancel();

    EXPECT_EQ(first.get().output.count(), 1);
    EXPECT_THROW(future.get(), RequestCancelled);
    EXPECT_EQ(probe->tiles_seen(), 0u);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.cancelled, 1u);
    expect_conserved(s);
}

TEST(Robustness, MidFlightCancellationStopsAtTileBoundary) {
    const Work work;
    SaloSession session(serving_config(1));
    auto stall = stall_injector(milliseconds(300));
    CancellationToken token = CancellationToken::make();
    AttentionRequest r = work.request();
    r.cancel = token;
    r.fault_injector = stall;
    auto future = session.submit(std::move(r));
    // Cancel while the run is wedged inside its first tile; the next tile
    // boundary must observe the token.
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));
    token.request_cancel();
    EXPECT_THROW(future.get(), RequestCancelled);
    EXPECT_GE(stall->tiles_seen(), 1u);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.cancelled, 1u);
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// Admission control on a live session.
// -------------------------------------------------------------------------

TEST(Robustness, RejectFastShedsExcessWithQueueFull) {
    const Work work;
    SessionOptions options;
    options.admission.mode = AdmissionMode::reject_fast;
    options.admission.max_queue = 2;
    SaloSession session(serving_config(1), options);

    auto stall = stall_injector(milliseconds(300));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    auto ok1 = session.submit(work.request());   // queued: 1
    auto ok2 = session.submit(work.request());   // queued: 2 (limit)
    auto shed1 = session.submit(work.request());  // over: rejected fast
    auto shed2 = session.submit(work.request());
    EXPECT_THROW(shed1.get(), QueueFull);
    EXPECT_THROW(shed2.get(), QueueFull);
    EXPECT_EQ(first.get().output.count(), 1);
    EXPECT_EQ(ok1.get().output.count(), 1);
    EXPECT_EQ(ok2.get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.submitted, 5u);
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.rejected, 2u);
    expect_conserved(s);
}

TEST(Robustness, BlockWithTimeoutRejectsWhenNoSpaceOpens) {
    const Work work;
    SessionOptions options;
    options.admission.mode = AdmissionMode::block_with_timeout;
    options.admission.block_timeout = milliseconds(30);
    options.admission.max_queue = 1;
    SaloSession session(serving_config(1), options);

    auto stall = stall_injector(milliseconds(400));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    auto queued = session.submit(work.request());  // fills the queue
    const Clock::time_point t0 = Clock::now();
    auto blocked = session.submit(work.request());  // waits 30ms, then sheds
    const milliseconds waited =
        std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_GE(waited.count(), 25);   // it did block...
    EXPECT_LT(waited.count(), 350);  // ...but gave up long before the wedge cleared
    EXPECT_THROW(blocked.get(), QueueFull);
    EXPECT_EQ(first.get().output.count(), 1);
    EXPECT_EQ(queued.get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.rejected, 1u);
    expect_conserved(s);
}

TEST(Robustness, BatchClassCapShedsBatchButAdmitsInteractive) {
    const Work work;
    SessionOptions options;
    options.admission.mode = AdmissionMode::reject_fast;
    options.admission.max_queue = 10;
    options.admission.max_queue_batch = 1;
    SaloSession session(serving_config(1), options);

    auto stall = stall_injector(milliseconds(300));
    AttentionRequest wedge = work.request();
    wedge.fault_injector = stall;
    auto first = session.submit(std::move(wedge));
    ASSERT_TRUE(eventually([&] { return stall->stalls_injected() > 0; }));

    AttentionRequest b1 = work.request();
    b1.priority = Priority::batch;
    auto batch_ok = session.submit(std::move(b1));  // batch queue: 1 (cap)
    AttentionRequest b2 = work.request();
    b2.priority = Priority::batch;
    auto batch_shed = session.submit(std::move(b2));  // over the class cap
    auto interactive_ok = session.submit(work.request());  // unaffected

    EXPECT_THROW(batch_shed.get(), QueueFull);
    EXPECT_EQ(first.get().output.count(), 1);
    EXPECT_EQ(batch_ok.get().output.count(), 1);
    EXPECT_EQ(interactive_ok.get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.rejected, 1u);
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// Injected stalls observe deadlines: a wedged tile can delay a request but
// never hold it past its deadline (regression — stalls used to sleep the
// full configured duration regardless).
// -------------------------------------------------------------------------

TEST(Robustness, InjectedStallIsCutShortByTheDeadline) {
    FaultInjector::Config c;
    c.stall_tiles = {0};
    c.stall_for = std::chrono::duration_cast<std::chrono::microseconds>(
        milliseconds(10000));
    const FaultInjector injector(c);
    const Clock::time_point t0 = Clock::now();
    EXPECT_THROW(injector.on_tile(0, t0 + milliseconds(20)), DeadlineExceeded);
    const milliseconds took = std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_LT(took.count(), 2000);  // nowhere near the 10 s stall
    EXPECT_EQ(injector.stalls_injected(), 1u);
}

TEST(Robustness, InjectedStallIsCutShortByCancellation) {
    FaultInjector::Config c;
    c.stall_tiles = {0};
    c.stall_for = std::chrono::duration_cast<std::chrono::microseconds>(
        milliseconds(10000));
    const FaultInjector injector(c);
    CancellationToken token = CancellationToken::make();
    token.request_cancel();
    const Clock::time_point t0 = Clock::now();
    EXPECT_THROW(injector.on_tile(0, std::nullopt, &token), RequestCancelled);
    const milliseconds took = std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_LT(took.count(), 2000);
}

TEST(Robustness, StalledRequestResolvesAtItsDeadlineNotTheStall) {
    const Work work;
    SaloSession session(serving_config(1));
    // The request wedges at its first tile for 10 s but carries a 50 ms
    // deadline: it must fail DeadlineExceeded on the deadline's timescale.
    auto stall = stall_injector(milliseconds(10000));
    AttentionRequest r = work.request();
    r.deadline = Clock::now() + milliseconds(50);
    r.fault_injector = stall;
    const Clock::time_point t0 = Clock::now();
    auto future = session.submit(std::move(r));
    EXPECT_THROW(future.get(), DeadlineExceeded);
    const milliseconds took = std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    EXPECT_LT(took.count(), 5000);  // deadline timescale, not the 10 s wedge
    EXPECT_GE(stall->tiles_seen(), 1u);  // it did reach the engine
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.timed_out, 1u);
    expect_conserved(s);
}

// -------------------------------------------------------------------------
// The extended conservation law on the sharded tier: per-attempt retry
// counters live outside the law, and every outcome class still sums to
// submitted under a mixed fault/cancel/deadline/reject stream.
// -------------------------------------------------------------------------

TEST(Robustness, PlainSessionReportsZeroShardCounters) {
    const Work work;
    SaloSession session(serving_config(1));
    EXPECT_EQ(session.submit(work.request()).get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.retried, 0u);
    EXPECT_EQ(s.failed_over, 0u);
    EXPECT_EQ(s.quarantined_shard_events, 0u);
    EXPECT_EQ(s.reintegrated_shard_events, 0u);
    expect_conserved(s);
}

TEST(Robustness, ShardedTierConservationUnderMixedOutcomes) {
    const Work work;
    ShardedSessionOptions options;
    options.num_shards = 2;
    options.retry.max_attempts = 3;
    ShardedSession tier(serving_config(1), options);

    std::vector<std::future<LayerResult>> futures;
    // 6 clean requests.
    for (int i = 0; i < 6; ++i) futures.push_back(tier.submit(work.request()));
    // 4 transient faults: complete after exactly one retry each.
    for (int i = 0; i < 4; ++i) {
        FaultInjector::Config c;
        c.fault_tiles = {0};
        c.max_faults = 1;
        AttentionRequest r = work.request();
        r.fault_injector = std::make_shared<FaultInjector>(c);
        futures.push_back(tier.submit(std::move(r)));
    }
    // 2 hard failures: every attempt faults, the retry budget exhausts.
    for (int i = 0; i < 2; ++i) {
        FaultInjector::Config c;
        c.fault_tiles = {0};
        AttentionRequest r = work.request();
        r.fault_injector = std::make_shared<FaultInjector>(c);
        futures.push_back(tier.submit(std::move(r)));
    }
    // 2 cancelled before dispatch could matter.
    for (int i = 0; i < 2; ++i) {
        CancellationToken token = CancellationToken::make();
        token.request_cancel();
        AttentionRequest r = work.request();
        r.cancel = token;
        futures.push_back(tier.submit(std::move(r)));
    }
    // 2 already expired: shed at admission.
    for (int i = 0; i < 2; ++i) {
        AttentionRequest r = work.request();
        r.deadline = Clock::now() - milliseconds(1);
        futures.push_back(tier.submit(std::move(r)));
    }

    int completed = 0, failed = 0, cancelled = 0, timed_out = 0;
    for (auto& f : futures) {
        try {
            f.get();
            ++completed;
        } catch (const EngineFault&) {
            ++failed;
        } catch (const RequestCancelled&) {
            ++cancelled;
        } catch (const DeadlineExceeded&) {
            ++timed_out;
        }
    }
    tier.close();

    const SessionStats s = tier.stats();
    EXPECT_EQ(s.submitted, 16u);
    EXPECT_EQ(s.completed, 10u);
    EXPECT_EQ(s.failed, 2u);
    EXPECT_EQ(s.cancelled, 2u);
    EXPECT_EQ(s.timed_out, 2u);
    EXPECT_EQ(s.rejected, 0u);
    expect_conserved(s);
    EXPECT_EQ(completed, 10);
    EXPECT_EQ(failed, 2);
    EXPECT_EQ(cancelled, 2);
    EXPECT_EQ(timed_out, 2);
    // Per-attempt counters: 4 single-retry completions plus 2 exhausted
    // requests at 2 retries each; failover never exceeds the retry count.
    EXPECT_EQ(s.retried, 8u);
    EXPECT_LE(s.failed_over, s.retried);
    EXPECT_GE(s.failed_over, 1u);
}

TEST(Robustness, LegacyMaxQueueStillBlocksUntilSpace) {
    // A depth-only bound in the default block mode: submits past the bound
    // wait and are eventually served, never rejected.
    const Work work;
    SessionOptions options;
    options.admission.max_queue = 1;
    SaloSession session(serving_config(1), options);
    std::vector<std::future<LayerResult>> futures;
    for (int i = 0; i < 6; ++i) futures.push_back(session.submit(work.request()));
    for (auto& f : futures) EXPECT_EQ(f.get().output.count(), 1);
    session.close();
    const SessionStats s = session.stats();
    EXPECT_EQ(s.completed, 6u);
    EXPECT_EQ(s.rejected, 0u);
    expect_conserved(s);
}

}  // namespace
}  // namespace salo
