// ShardedSession: the self-healing multi-engine serving tier, and the one
// whole-sequence front door (SaloSession, core/session.hpp, is its
// one-shard form without retry).
//
// Callers submit AttentionRequests (a compiled plan or a pattern, plus
// Q/K/V) and immediately receive a std::future<LayerResult>. Router worker
// threads carry each request end to end over N independent SaloEngine
// shards — each with its own worker pool, all sharing the tier's one
// PlanCache — so a wedged or faulting engine degrades the tier instead of
// taking it down:
//
//   * execution shape: a request alone on its shard runs its heads one per
//     lane of the shard's pool; requests sharing a shard each run their
//     heads one after another on their own router worker. Both shapes are
//     bit-identical to SaloEngine::run;
//   * deadlines and cancellation: expired or cancelled requests are shed
//     before they reach a shard, and in-flight runs check the token and the
//     deadline at tile boundaries;
//   * routing: every attempt goes to the eligible shard with the least
//     outstanding cost (the shortest effective queue). The plan cache is
//     tier-wide, so placement never costs a compile;
//   * retry with failover: an attempt that ends in EngineFault — or blows
//     the shard-stall bound (`stall_timeout`) — is retried up to
//     `RetryPolicy::max_attempts` times with exponential backoff and
//     deterministic jitter, preferring a *different healthy* shard
//     (counted in SessionStats::retried / failed_over, per attempt);
//   * no wasted retries: cancelled requests and expired deadlines are never
//     retried — the backoff wait itself polls the CancellationToken and the
//     request deadline, so a cancel between attempts aborts the sleep
//     immediately and resolves RequestCancelled, not EngineFault;
//   * health supervision (core/health.hpp): every attempt outcome feeds the
//     shard's circuit breaker; a shard past the rolling failure threshold
//     is quarantined (no traffic), probed half-open after a cooldown, and
//     reintegrated after K clean probes. While shards are out, tier
//     admission limits shrink proportionally (a 4-shard tier running on 2
//     healthy shards admits half the work) — graceful degradation, not
//     tier failure. Even with every shard quarantined the tier keeps
//     serving through forced probes;
//   * determinism: every completed result is bit-identical to the
//     sequential engine run of the same request, regardless of which shard
//     or retry attempt produced it (all shards share one SaloConfig, and
//     the engine guarantee is thread-count- and placement-independent);
//   * tenant isolation (core/fair_queue.hpp): requests carry a tenant_id
//     and land in per-tenant bounded queues drained by a deficit-weighted
//     round-robin scheduler, so one tenant's 10x burst cannot monopolize
//     the router workers — service stays proportional to configured
//     weights, per-tenant admission quotas shed a flooding tenant against
//     *its own* limits (everyone else sees zero QueueFull), retries are
//     billed to the faulting tenant's deficit, and tenant_stats() breaks
//     the conservation law down per tenant;
//
// Accounting: the SessionStats conservation law
//   completed + failed + rejected + timed_out + cancelled == submitted
// holds for the tier; `retried` and `failed_over` count attempts (one
// request retried twice contributes 2), outside the law by construction.
// The seeded chaos soak (`soak chaos --seed S`, tests/soak/soak.cpp; ctest
// `chaos_soak`) enforces all of this plus bounded p99 in its exit code; the
// breaker state machine and methodology are documented in
// docs/RELIABILITY.md.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fair_queue.hpp"
#include "core/tier.hpp"

namespace salo {

/// One unit of serving work: a multi-head attention layer.
struct AttentionRequest {
    /// Pre-compiled plan (preferred: shareable, zero scheduler work). May
    /// be null if `pattern` is set, in which case the tier compiles the
    /// pattern through the serving shard's PlanCache.
    CompiledPlanPtr plan;
    std::optional<HybridPattern> pattern;

    Tensor3<float> q, k, v;  ///< [heads][n][head_dim]
    float scale = 1.0f;      ///< typically 1/sqrt(head_dim)

    /// Per-request fidelity override (e.g. a golden-oracle request on a
    /// functional-fidelity session). Defaults to the engine's fidelity.
    std::optional<Fidelity> fidelity;

    /// Admission class: interactive requests dispatch first and get the
    /// full queue budget; batch requests shed first under overload.
    Priority priority = Priority::interactive;

    /// Owning tenant for fair scheduling and per-tenant quotas
    /// (core/fair_queue.hpp). Empty = the default tenant.
    std::string tenant_id;

    /// Absolute deadline. Expired requests never reach an engine: they are
    /// shed at admission or dispatch and their future fails with
    /// DeadlineExceeded; mid-flight expiry stops at the next tile boundary.
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /// Shareable cancel flag (CancellationToken::make()); fires
    /// RequestCancelled. Inert by default.
    CancellationToken cancel;

    /// Per-request fault injection (tests); overrides the engine-level
    /// SaloConfig::fault_injector for this request only.
    std::shared_ptr<const FaultInjector> fault_injector;
};

/// Convenience builders for the two request flavours.
AttentionRequest make_request(CompiledPlanPtr plan, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale);
AttentionRequest make_request(HybridPattern pattern, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale);

struct RetryPolicy {
    /// Total attempts per request, including the first. 1 disables retry.
    int max_attempts = 3;
    /// Backoff before retry k (1-based) is base_backoff << (k-1), capped at
    /// max_backoff, then jittered into [50%, 100%] of itself.
    std::chrono::microseconds base_backoff{500};
    std::chrono::microseconds max_backoff{8000};
    /// Seed of the deterministic jitter hash(seed, request id, attempt).
    std::uint64_t jitter_seed = 0x5a10;
};

struct ShardedSessionOptions {
    int num_shards = 2;
    RetryPolicy retry;
    HealthPolicy health;
    /// Tier-level admission policy. Limits scale with the healthy-shard
    /// fraction: on a 4-shard tier with 1 shard quarantined, a max_queue of
    /// 32 admits 24 (never below 1) — degraded tiers shed earlier instead
    /// of queueing deeper.
    AdmissionPolicy admission;
    /// Router worker threads (each carries one request end to end,
    /// including its retries). 0 = 2 x num_shards.
    int router_workers = 0;
    /// Per-attempt execution bound: an attempt running longer than this is
    /// abandoned as a shard stall and retried elsewhere (the shard's
    /// breaker records a failure). 0 disables. Never extends a request's
    /// own deadline — the attempt bound is min(deadline, now + stall_timeout).
    std::chrono::milliseconds stall_timeout{0};
    /// Chaos/testing hook: engine-level fault injector for shard i
    /// (missing/null entries leave that shard clean). Overridden per
    /// request by AttentionRequest::fault_injector as usual.
    std::vector<std::shared_ptr<const FaultInjector>> shard_fault_injectors;
    /// Tenant fairness: DWRR weights, quantum, and per-tenant admission
    /// quotas (core/fair_queue.hpp). The default is a single unbounded
    /// weight-1 default tenant — bit-for-bit the pre-tenant behavior for
    /// traffic that never sets tenant_id.
    FairQueueOptions fairness;
};

class ShardedSession : public ServingTier {
public:
    explicit ShardedSession(const SaloConfig& config = {},
                            ShardedSessionOptions options = {});
    virtual ~ShardedSession();  // close(); virtual: SaloSession derives from it

    /// Enqueue a request; the future resolves when it has been executed or
    /// failed. Every asynchronous failure is a typed SaloError through the
    /// future (core/errors.hpp); submit throws only SessionClosed (after
    /// close()) and ContractViolation (structurally invalid request).
    /// Blocking under full queues follows the admission policies.
    /// Thread-safe.
    std::future<LayerResult> submit(AttentionRequest request);
    std::future<LayerResult> submit(CompiledPlanPtr plan, Tensor3<float> q,
                                    Tensor3<float> k, Tensor3<float> v, float scale);
    std::future<LayerResult> submit(const HybridPattern& pattern, Tensor3<float> q,
                                    Tensor3<float> k, Tensor3<float> v, float scale);

    /// Compile through the tier's PlanCache. The artifact is valid on every
    /// shard (all shards share one geometry/schedule configuration).
    CompiledPlanPtr compile(const HybridPattern& pattern, int head_dim) const;

    /// Block until every submitted request has resolved.
    void drain();

    /// Live scheduler view of one tenant (nullopt once reclaimed).
    std::optional<TenantQueueSnapshot> tenant_queue(const std::string& tenant) const;

private:
    struct Task {
        AttentionRequest request;
        std::promise<LayerResult> promise;
        std::uint64_t cost = 0;
        std::uint64_t id = 0;  ///< submission order; jitter input
        int attempts = 0;
        int last_shard = -1;
    };

    enum class WaitOutcome { elapsed, cancelled, deadline };

    void worker_main();
    void serve_task(Task& task);
    /// Fail the task's future with `error` (when set) and count it.
    void finish(Task& task, Resolution resolution, std::exception_ptr error = nullptr);
    int pick_shard(const Task& task, Clock::time_point now);
    Clock::duration backoff_for(const Task& task) const;
    /// Poll-sleep for `d`, aborting the moment the token fires or the
    /// deadline passes — the no-retry-after-cancel guarantee lives here.
    WaitOutcome backoff_wait(Clock::duration d, const CancellationToken& cancel,
                             const std::optional<Clock::time_point>& deadline) const;
    AdmissionSnapshot snapshot_locked() const;

    ShardedSessionOptions options_;

    // Guarded by m_.
    /// DWRR arbiter over per-tenant queues; holds only costs. The actual
    /// Task objects live in task_queues_, pushed and popped in lockstep
    /// with the scheduler (same tenant, same class, FIFO), so the
    /// scheduler's pick always names the front task of that queue.
    FairScheduler sched_;
    std::unordered_map<std::string, std::array<std::deque<Task>, 2>> task_queues_;
    std::uint64_t in_flight_cost_ = 0;
    std::size_t in_flight_ = 0;
    std::uint64_t next_task_id_ = 0;
};

}  // namespace salo
