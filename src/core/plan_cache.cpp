#include "core/plan_cache.hpp"

#include <utility>

namespace salo {

PlanCache::PlanCache(std::size_t capacity, PlanCompileFn compile_fn)
    : capacity_(capacity == 0 ? 1 : capacity), compile_fn_(std::move(compile_fn)) {
    if (!compile_fn_) {
        compile_fn_ = [](const HybridPattern& pattern, int head_dim,
                         const SaloConfig& config) {
            return compile_shared(pattern, head_dim, config);
        };
    }
}

bool PlanCache::matches(const CompiledPlan& cached, const HybridPattern& pattern,
                        int head_dim, const SaloConfig& config,
                        std::optional<int> step_position) const {
    if (cached.is_step() != step_position.has_value()) return false;
    if (step_position && cached.step().position != *step_position) return false;
    return cached.head_dim() == head_dim && cached.geometry() == config.geometry &&
           cached.options() == config.schedule_options && cached.pattern() == pattern;
}

CompiledPlanPtr PlanCache::get_or_compile(const HybridPattern& pattern, int head_dim,
                                          const SaloConfig& config) {
    return resolve(plan_fingerprint(pattern, head_dim, config.geometry, config.schedule_options),
                   pattern, head_dim, config, std::nullopt);
}

CompiledPlanPtr PlanCache::get_or_derive_step(const HybridPattern& pattern, int head_dim,
                                              const SaloConfig& config) {
    SALO_EXPECTS(decode_compatible(pattern));
    const int position = pattern.n() - 1;
    const std::uint64_t full_key =
        plan_fingerprint(pattern, head_dim, config.geometry, config.schedule_options);
    return resolve(step_plan_fingerprint(full_key, position), pattern, head_dim, config,
                   position);
}

CompiledPlanPtr PlanCache::resolve(std::uint64_t key, const HybridPattern& pattern,
                                   int head_dim, const SaloConfig& config,
                                   std::optional<int> step_position) {
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        const auto it = by_key_.find(key);
        if (it != by_key_.end() &&
            matches(**it->second, pattern, head_dim, config, step_position)) {
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU
            return *it->second;
        }
        if (inflight_.count(key) == 0) break;  // become the resolving leader
        // Another thread is resolving this key right now: wait for it and
        // adopt its artifact instead of running the scheduler twice. The
        // re-lookup on wake also handles a failed or colliding resolve.
        cv_compiled_.wait(lock);
    }

    ++misses_;
    inflight_.insert(key);
    lock.unlock();

    // Resolve the miss outside the lock, so a slow compile never stalls
    // concurrent hits. A micro-plan takes its full plan through
    // get_or_compile (self-recursion on a different key while unlocked), so
    // all steps of one shape amortize a single scheduler pass and the full
    // plan stays cached for whole-sequence traffic.
    CompiledPlanPtr fresh;
    try {
        fresh = step_position
                    ? derive_micro_plan_shared(*get_or_compile(pattern, head_dim, config))
                    : compile_fn_(pattern, head_dim, config);
    } catch (...) {
        // Unregister and wake waiters so one of them can take over as
        // leader (or hit a cached colliding entry); the error goes to our
        // caller untouched.
        lock.lock();
        inflight_.erase(key);
        cv_compiled_.notify_all();
        throw;
    }

    lock.lock();
    ++(step_position ? step_derives_ : compiles_);
    inflight_.erase(key);
    const auto it = by_key_.find(key);
    if (it != by_key_.end()) {
        // A colliding entry with this fingerprint exists (matches() said no
        // on the way in — a true 64-bit collision): replace it.
        lru_.erase(it->second);
        by_key_.erase(it);
    }
    insert_locked(fresh);
    cv_compiled_.notify_all();
    return fresh;
}

void PlanCache::insert_locked(CompiledPlanPtr plan) {
    lru_.push_front(std::move(plan));
    by_key_[lru_.front()->fingerprint()] = lru_.begin();
    while (lru_.size() > capacity_) {
        by_key_.erase(lru_.back()->fingerprint());
        lru_.pop_back();
        ++evictions_;
    }
}

CompiledPlanPtr PlanCache::peek(std::uint64_t fingerprint) const {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = by_key_.find(fingerprint);
    return it == by_key_.end() ? nullptr : *it->second;
}

PlanCacheStats PlanCache::stats() const {
    std::lock_guard<std::mutex> lock(m_);
    PlanCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.compiles = compiles_;
    s.step_derives = step_derives_;
    s.evictions = evictions_;
    s.size = lru_.size();
    s.capacity = capacity_;
    return s;
}

void PlanCache::clear() {
    std::lock_guard<std::mutex> lock(m_);
    lru_.clear();
    by_key_.clear();
}

}  // namespace salo
