// PlanCache: a thread-safe LRU cache of CompiledPlans keyed by the plan
// fingerprint, so repeated layers/workloads never re-run the data
// scheduler.
//
// Concurrency: lookups and insertions take one mutex; the expensive
// compile of a miss runs *outside* the lock, so a slow compilation never
// blocks other threads' hits. Concurrent misses on one key are
// deduplicated: the first thread registers the key as in flight and
// compiles (one miss); later arrivals wait for the in-flight compile and
// adopt its artifact (counted as hits — they never run the scheduler). If
// the leader's compile throws, waiters wake, find no entry, and the next
// one becomes the new leader, so a failed compile never wedges the key.
//
// One cache per serving tier: ServingTier builds one PlanCache and hands
// it to every shard engine (the SaloEngine constructor), so a tier runs
// the scheduler once per distinct shape and derives each decode step once,
// whichever shard asks first. The in-flight dedup above makes that hold
// under concurrent misses from different shards too.
//
// Collisions: the fingerprint hashes the full scheduling input, but a
// 64-bit hash can in principle collide. Every hit re-checks structural
// equality (pattern, head_dim, geometry, options) against the cached plan;
// a true collision is treated as a miss and replaces the entry rather than
// serving the wrong schedule.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/compiled_plan.hpp"

namespace salo {

struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< includes fingerprint collisions
    std::uint64_t compiles = 0;    ///< scheduler passes run by this cache
    /// Decode micro-plan derivations (get_or_derive_step misses).
    std::uint64_t step_derives = 0;
    std::uint64_t evictions = 0;   ///< LRU capacity evictions
    std::size_t size = 0;
    std::size_t capacity = 0;

    double hit_rate() const {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/// The compile step a cache runs on a miss. Defaults to compile_shared;
/// tests substitute throwing/counting fakes to exercise the dedup paths.
using PlanCompileFn =
    std::function<CompiledPlanPtr(const HybridPattern&, int, const SaloConfig&)>;

class PlanCache {
public:
    explicit PlanCache(std::size_t capacity = 64, PlanCompileFn compile_fn = {});

    /// The cached plan for (pattern, head_dim, config geometry/options),
    /// compiling and inserting it on a miss. Never returns null.
    CompiledPlanPtr get_or_compile(const HybridPattern& pattern, int head_dim,
                                   const SaloConfig& config);

    /// The decode micro-plan for the last row of `pattern` (a prefix
    /// pattern of length L; the step position is L-1). A miss resolves the
    /// full plan through get_or_compile (so full and micro plans share this
    /// cache and its in-flight dedup) and derives the micro-plan from it.
    /// The step key is step_plan_fingerprint(full key, position) — a
    /// distinct type tag, so micro-plans never alias full plans in one
    /// cache. Never returns null.
    CompiledPlanPtr get_or_derive_step(const HybridPattern& pattern, int head_dim,
                                       const SaloConfig& config);

    /// The cached plan for `fingerprint`, or null. Does not touch LRU order
    /// or the hit/miss counters (introspection only).
    CompiledPlanPtr peek(std::uint64_t fingerprint) const;

    PlanCacheStats stats() const;
    void clear();

private:
    /// Most-recently-used at the front.
    using LruList = std::list<CompiledPlanPtr>;

    /// `step_position` set: the lookup wants a micro-plan for that query
    /// position; unset: it wants a full plan. A cached entry of the other
    /// kind never matches, even on a fingerprint collision.
    bool matches(const CompiledPlan& cached, const HybridPattern& pattern, int head_dim,
                 const SaloConfig& config, std::optional<int> step_position) const;
    /// The lookup both public entry points share: a hit, an adopted
    /// in-flight result, or a miss this thread resolves outside the lock
    /// (compiling, or deriving the micro-plan for `step_position`).
    CompiledPlanPtr resolve(std::uint64_t key, const HybridPattern& pattern, int head_dim,
                            const SaloConfig& config, std::optional<int> step_position);
    void insert_locked(CompiledPlanPtr plan);

    mutable std::mutex m_;
    std::condition_variable cv_compiled_;  ///< an in-flight compile finished
    std::size_t capacity_;
    PlanCompileFn compile_fn_;
    LruList lru_;
    std::unordered_map<std::uint64_t, LruList::iterator> by_key_;
    std::unordered_set<std::uint64_t> inflight_;  ///< keys being compiled now
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t compiles_ = 0;
    std::uint64_t step_derives_ = 0;
    std::uint64_t evictions_ = 0;
};

}  // namespace salo
