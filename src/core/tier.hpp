// ServingTier: the serving core shared by ShardedSession (whole-sequence
// requests; SaloSession is its one-shard form) and DecodeSession (stream
// steps).
//
// It holds exactly one copy of each contract the front doors share:
//
//   * the shard set: N SaloEngines, each with its own worker pool and
//     optional per-shard fault injector, all sharing the tier's one
//     PlanCache (so a shape compiles once, whichever shard asks), plus
//     per-shard circuit breakers (core/health.hpp);
//   * the admission wait: closed / expired / decide / wait, looped under
//     the tier mutex. Each tier supplies its own decide function (global
//     policy, tenant quota, health scaling) and its reject side effect
//     (decode evicts the stream);
//   * the outcome ledger: global and per-tenant counters behind
//     SessionStats / TenantStats and the conservation law
//       completed + failed + rejected + timed_out + cancelled == submitted
//     asserted at close() in debug builds, with steps == submitted on a
//     decode tier and steps == 0 on a whole-sequence tier;
//   * the exception classifier: how a failed attempt resolves and what its
//     shard's circuit breaker records.
//
// The execution loops stay with the tiers: router workers carry whole
// requests end to end (with retries), and each decode shard's step lanes
// pull chunks of ready streams from that shard's queue.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "core/engine.hpp"
#include "core/health.hpp"

namespace salo {

struct SessionStats {
    std::uint64_t submitted = 0;  ///< accepted submit() calls (everything below)
    std::uint64_t completed = 0;  ///< futures fulfilled with a result
    std::uint64_t failed = 0;     ///< futures failed with EngineFault/ContractViolation
    std::uint64_t rejected = 0;   ///< futures failed with QueueFull (admission shed)
    std::uint64_t timed_out = 0;  ///< futures failed with DeadlineExceeded
    std::uint64_t cancelled = 0;  ///< futures failed with RequestCancelled
    /// Of timed_out: requests shed while queued, before any execution (the
    /// remainder expired at a tile boundary mid-flight).
    std::uint64_t shed_expired = 0;
    /// Chunks of steps claimed by decode step lanes, and the largest chunk
    /// (core/decode_session.hpp); always 0 on the whole-sequence tiers,
    /// whose router workers carry one request each.
    std::uint64_t batches = 0;
    std::size_t max_batch = 0;
    PlanCacheStats plan_cache;    ///< the tier's one plan cache

    // Sharded-tier counters (core/shard_router.hpp). retried/failed_over
    // count *attempts* (one request retried twice contributes 2) and live
    // outside the conservation law by construction; both stay 0 on a plain
    // SaloSession, which never retries.
    std::uint64_t retried = 0;      ///< re-dispatches after a retryable shard failure
    std::uint64_t failed_over = 0;  ///< of retried: attempts routed to a different shard
    std::uint64_t quarantined_shard_events = 0;   ///< breaker healthy -> quarantined
    std::uint64_t reintegrated_shard_events = 0;  ///< breaker probing -> healthy

    // Decode-tier counters (core/decode_session.hpp); always 0 on the
    // whole-sequence sessions. `steps` counts accepted stream steps, so the
    // conservation law distinguishes incremental decode traffic (where
    // every submission is a step: steps == submitted) from whole-sequence
    // requests (steps == 0).
    std::uint64_t steps = 0;            ///< accepted decode stream steps
    std::uint64_t evicted_streams = 0;  ///< streams lost to quarantine/failed steps

    /// Every accepted submit() resolves exactly one way; this is the
    /// conservation law tests assert.
    std::uint64_t accounted() const {
        return completed + failed + rejected + timed_out + cancelled;
    }
};

/// Per-tenant slice of the serving counters (tenant_stats()). Obeys the
/// same conservation law as SessionStats; summing every tenant's counters
/// reproduces the global stats for the fields below.
struct TenantStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;   ///< shed against this tenant's own quota or the global one
    std::uint64_t timed_out = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t retried = 0;    ///< extra attempts billed to this tenant's deficit
    std::uint64_t failed_over = 0;
    /// Of submitted: decode stream steps (core/decode_session.hpp). 0 for
    /// whole-sequence traffic; == submitted on a pure decode tier.
    std::uint64_t steps = 0;

    std::uint64_t accounted() const {
        return completed + failed + rejected + timed_out + cancelled;
    }
};

/// How one accepted submission finally resolved (exactly one per
/// submission). shed_expired is a timed_out that never reached a shard.
enum class Resolution { completed, failed, rejected, timed_out, shed_expired, cancelled };

/// The counters behind stats()/tenant_stats(). Not thread-safe: the owning
/// tier calls every method with its mutex held.
class OutcomeLedger {
public:
    /// `steps`: every submission is a decode step (DecodeSession).
    explicit OutcomeLedger(bool steps) : steps_(steps) {}

    /// Count one accepted submission. The returned slice stays valid for
    /// the ledger's lifetime (tenant entries are never erased).
    TenantStats& submit(const std::string& tenant);
    void resolve(TenantStats& tenant, Resolution resolution);
    void resolve(const std::string& tenant, Resolution resolution) {
        resolve(tenants_[tenant], resolution);
    }
    void retried(const std::string& tenant);
    void failed_over(const std::string& tenant);
    void chunk(std::size_t size);  ///< a decode lane claimed `size` steps
    void evicted_stream() { ++totals_.evicted_streams; }

    /// The counter fields of SessionStats (plan_cache and shard events are
    /// the tier's to fill).
    const SessionStats& totals() const { return totals_; }
    const std::map<std::string, TenantStats>& tenants() const { return tenants_; }

    /// Debug-asserts the conservation law, globally and per tenant.
    void check_conserved() const;

private:
    bool steps_;
    SessionStats totals_;
    std::map<std::string, TenantStats> tenants_;
};

/// A failed attempt, classified: how the submission resolves if it is not
/// retried, what the shard's circuit breaker records, and the error its
/// future fails with.
struct FailedAttempt {
    Resolution resolution = Resolution::failed;
    CircuitBreaker::Outcome breaker = CircuitBreaker::Outcome::failure;
    /// A shard failure (EngineFault, a stall past the attempt bound, an
    /// untyped throw) that another attempt might survive. Caller bugs,
    /// cancellation and the submission's own deadline never are.
    bool retryable = false;
    std::exception_ptr error;
};

/// Classify the exception in flight; call only inside a catch block.
/// `deadline` is the submission's own deadline: a DeadlineExceeded before
/// it came from a tighter attempt bound, i.e. the shard stalled.
FailedAttempt classify_failure(
    const std::optional<std::chrono::steady_clock::time_point>& deadline);

/// How a tier refuses one submission: the ledger resolution and the error
/// its future fails with.
struct Refusal {
    Resolution resolution = Resolution::rejected;
    std::exception_ptr error;
};

class ServingTier {
public:
    ServingTier(const ServingTier&) = delete;
    ServingTier& operator=(const ServingTier&) = delete;

    /// Stop accepting, serve everything queued, join the tier's threads.
    /// Idempotent; the destructors call it.
    void close();

    /// Tier-wide counters; plan_cache is the one cache every shard uses.
    SessionStats stats() const;

    /// Per-tenant breakdown of the serving counters. Summing any field
    /// over tenants reproduces the global stats() value, and each tenant
    /// satisfies the conservation law independently.
    std::map<std::string, TenantStats> tenant_stats() const;

    /// Per-shard breaker states and counters.
    std::vector<ShardHealthSnapshot> shard_health() const;

    int num_shards() const { return static_cast<int>(shards_.size()); }
    const SaloEngine& shard_engine(int shard) const {
        return shards_[static_cast<std::size_t>(shard)]->engine;
    }
    const SaloConfig& config() const { return shards_.front()->engine.config(); }

protected:
    using Clock = std::chrono::steady_clock;

    struct Shard {
        Shard(const SaloConfig& config, std::shared_ptr<PlanCache> plan_cache)
            : engine(config, std::move(plan_cache)) {}
        SaloEngine engine;
        std::atomic<std::uint64_t> outstanding_cost{0};  ///< routing load signal
        std::atomic<int> active{0};                      ///< attempts running here
        std::condition_variable cv_work;  ///< work for this shard's own lanes / closing
    };

    /// Builds the shard set: shard i runs `config` with
    /// shard_fault_injectors[i] (when present and non-null) and the tier's
    /// one plan cache of config.plan_cache_capacity.
    ServingTier(const SaloConfig& config, int num_shards,
                const std::vector<std::shared_ptr<const FaultInjector>>& shard_fault_injectors,
                const HealthPolicy& health, bool steps);
    ~ServingTier() = default;

    /// Launch the tier's serving threads (joined by close()).
    template <typename Body>
    void start(int threads, Body body) {
        threads_.reserve(static_cast<std::size_t>(threads));
        for (int i = 0; i < threads; ++i) threads_.emplace_back(body);
    }

    /// The admission wait for one submission already counted with
    /// ledger_.submit(); the caller holds `lock` on m_. Loops until the
    /// submission is admitted (returns true) or refused (returns false,
    /// after counting the refusal and calling `refuse(error)`):
    ///   * closed tier: rejected, SessionClosed;
    ///   * `deadline` passed: shed_expired, DeadlineExceeded;
    ///   * decide(refusal) == reject: rejected with QueueFull, unless
    ///     decide filled `refusal` with another resolution and error;
    ///   * decide(refusal) == wait: sleep on cv_space_, until `wait_until`
    ///     when set (then one last decide, else rejected with QueueFull).
    template <typename Decide, typename Refuse>
    bool admit(std::unique_lock<std::mutex>& lock, TenantStats& tenant, Priority priority,
               const std::optional<Clock::time_point>& deadline,
               const std::optional<Clock::time_point>& wait_until, Decide&& decide,
               Refuse&& refuse);

    std::shared_ptr<PlanCache> plan_cache_;  ///< every shard's; before shards_
    std::vector<std::unique_ptr<Shard>> shards_;
    mutable HealthSupervisor health_;

    mutable std::mutex m_;              ///< guards everything below
    std::condition_variable cv_work_;   ///< work queued / closing
    std::condition_variable cv_space_;  ///< admission state changed
    std::condition_variable cv_idle_;   ///< work finished
    bool closed_ = false;
    /// Submitters parked in an admission wait (counted as submitted but not
    /// yet resolved); close() skips the conservation assert while any exist.
    std::size_t waiting_submits_ = 0;
    OutcomeLedger ledger_;

private:
    std::vector<std::thread> threads_;
};

template <typename Decide, typename Refuse>
bool ServingTier::admit(std::unique_lock<std::mutex>& lock, TenantStats& tenant,
                        Priority priority, const std::optional<Clock::time_point>& deadline,
                        const std::optional<Clock::time_point>& wait_until,
                        Decide&& decide, Refuse&& refuse) {
    Refusal refusal;
    for (;;) {
        if (closed_) {
            refusal.error = std::make_exception_ptr(
                SessionClosed("tier closed while the submission waited for admission"));
            break;
        }
        if (deadline && Clock::now() > *deadline) {
            // The submission's own deadline expired before admission: it
            // never reaches a queue or an engine.
            refusal = {Resolution::shed_expired,
                       std::make_exception_ptr(DeadlineExceeded(
                           "deadline expired while waiting for admission"))};
            break;
        }
        AdmissionDecision decision = decide(refusal);
        if (decision == AdmissionDecision::admit) return true;
        if (decision == AdmissionDecision::wait) {
            bool timed_out = false;
            ++waiting_submits_;
            if (wait_until)
                timed_out = cv_space_.wait_until(lock, *wait_until) == std::cv_status::timeout;
            else
                cv_space_.wait(lock);
            --waiting_submits_;
            if (!timed_out) continue;
            decision = decide(refusal);
            if (decision == AdmissionDecision::admit) return true;
            if (decision == AdmissionDecision::wait)
                refusal.error = std::make_exception_ptr(
                    QueueFull(std::string("admission wait timed out for ") +
                              priority_name(priority) + "-class submission"));
        }
        if (refusal.error == nullptr)
            refusal.error = std::make_exception_ptr(
                QueueFull(std::string("admission control rejected ") +
                          priority_name(priority) + "-class submission"));
        break;
    }
    ledger_.resolve(tenant, refusal.resolution);
    refuse(refusal.error);
    return false;
}

}  // namespace salo
