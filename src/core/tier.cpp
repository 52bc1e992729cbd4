#include "core/tier.hpp"

#include <algorithm>
#include <utility>

namespace salo {

TenantStats& OutcomeLedger::submit(const std::string& tenant) {
    TenantStats& t = tenants_[tenant];
    ++totals_.submitted;
    ++t.submitted;
    if (steps_) {
        ++totals_.steps;
        ++t.steps;
    }
    return t;
}

void OutcomeLedger::resolve(TenantStats& t, Resolution resolution) {
    switch (resolution) {
        case Resolution::completed:
            ++totals_.completed;
            ++t.completed;
            break;
        case Resolution::failed:
            ++totals_.failed;
            ++t.failed;
            break;
        case Resolution::rejected:
            ++totals_.rejected;
            ++t.rejected;
            break;
        case Resolution::shed_expired:
            ++totals_.shed_expired;
            [[fallthrough]];
        case Resolution::timed_out:
            ++totals_.timed_out;
            ++t.timed_out;
            break;
        case Resolution::cancelled:
            ++totals_.cancelled;
            ++t.cancelled;
            break;
    }
}

void OutcomeLedger::retried(const std::string& tenant) {
    ++totals_.retried;
    ++tenants_[tenant].retried;
}

void OutcomeLedger::failed_over(const std::string& tenant) {
    ++totals_.failed_over;
    ++tenants_[tenant].failed_over;
}

void OutcomeLedger::chunk(std::size_t size) {
    ++totals_.batches;
    totals_.max_batch = std::max(totals_.max_batch, size);
}

void OutcomeLedger::check_conserved() const {
    SALO_DEBUG_ASSERT(totals_.accounted() == totals_.submitted);
    SALO_DEBUG_ASSERT(totals_.steps == (steps_ ? totals_.submitted : 0));
    std::uint64_t submitted = 0;
    std::uint64_t accounted = 0;
    for (const auto& entry : tenants_) {
        const TenantStats& t = entry.second;
        SALO_DEBUG_ASSERT(t.accounted() == t.submitted);
        SALO_DEBUG_ASSERT(t.steps == (steps_ ? t.submitted : 0));
        submitted += t.submitted;
        accounted += t.accounted();
    }
    SALO_DEBUG_ASSERT(submitted == totals_.submitted);
    SALO_DEBUG_ASSERT(accounted == totals_.accounted());
}

FailedAttempt classify_failure(
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
    using Outcome = CircuitBreaker::Outcome;
    const std::exception_ptr current = std::current_exception();
    try {
        throw;
    } catch (const RequestCancelled&) {
        return {Resolution::cancelled, Outcome::neutral, false, current};
    } catch (const DeadlineExceeded&) {
        // The submission's own deadline is terminal (a retry could only
        // overrun it further); an earlier expiry is the attempt bound, so
        // the shard wedged: charge its breaker and let the work move.
        if (deadline && std::chrono::steady_clock::now() >= *deadline)
            return {Resolution::timed_out, Outcome::neutral, false, current};
        return {Resolution::failed, Outcome::failure, true,
                std::make_exception_ptr(EngineFault("shard stalled past the attempt bound"))};
    } catch (const ContractViolation&) {
        // Caller bug (shape/pattern mismatch): deterministic on every shard,
        // never wrapped, never retried, never held against the shard.
        return {Resolution::failed, Outcome::neutral, false, current};
    } catch (const SaloError&) {
        // EngineFault and friends pass through typed.
        return {Resolution::failed, Outcome::failure, true, current};
    } catch (const std::exception& e) {
        return {Resolution::failed, Outcome::failure, true,
                std::make_exception_ptr(
                    EngineFault(std::string("engine worker threw: ") + e.what()))};
    } catch (...) {
        return {Resolution::failed, Outcome::failure, true,
                std::make_exception_ptr(
                    EngineFault("engine worker threw a non-std exception"))};
    }
}

ServingTier::ServingTier(
    const SaloConfig& config, int num_shards,
    const std::vector<std::shared_ptr<const FaultInjector>>& shard_fault_injectors,
    const HealthPolicy& health, bool steps)
    : plan_cache_(std::make_shared<PlanCache>(
          static_cast<std::size_t>(std::max(1, config.plan_cache_capacity)))),
      health_(std::max(1, num_shards), health),
      ledger_(steps) {
    SALO_EXPECTS(num_shards >= 1);
    shards_.reserve(static_cast<std::size_t>(num_shards));
    for (std::size_t i = 0; i < static_cast<std::size_t>(num_shards); ++i) {
        SaloConfig shard_config = config;
        if (i < shard_fault_injectors.size() && shard_fault_injectors[i] != nullptr)
            shard_config.fault_injector = shard_fault_injectors[i];
        shard_config.shared_plan_store = plan_cache_;
        shards_.push_back(std::make_unique<Shard>(shard_config));
    }
}

void ServingTier::close() {
    std::vector<std::thread> to_join;
    {
        std::lock_guard<std::mutex> lock(m_);
        closed_ = true;
        // Only the first closer takes the threads; a concurrent close()
        // finds none to join.
        to_join.swap(threads_);
    }
    cv_work_.notify_all();
    for (const auto& shard : shards_) shard->cv_work.notify_all();
    cv_space_.notify_all();
    if (to_join.empty()) return;
    for (std::thread& t : to_join) t.join();
#ifndef NDEBUG
    // Conservation law at the source: with the serving threads joined and
    // no submitter parked in an admission wait, every accepted submission
    // has resolved exactly one way. Debug/sanitizer builds fail loudly here
    // so an accounting bug dies in the test that caused it.
    std::lock_guard<std::mutex> lock(m_);
    if (waiting_submits_ == 0) ledger_.check_conserved();
#endif
}

SessionStats ServingTier::stats() const {
    SessionStats s;
    {
        std::lock_guard<std::mutex> lock(m_);
        s = ledger_.totals();
    }
    s.quarantined_shard_events = health_.quarantined_events_total();
    s.reintegrated_shard_events = health_.reintegrated_events_total();
    s.plan_cache = plan_cache_->stats();
    return s;
}

std::map<std::string, TenantStats> ServingTier::tenant_stats() const {
    std::lock_guard<std::mutex> lock(m_);
    return ledger_.tenants();
}

std::vector<ShardHealthSnapshot> ServingTier::shard_health() const {
    return health_.snapshot(Clock::now());
}

}  // namespace salo
