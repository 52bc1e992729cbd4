#include "core/shard_router.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/hash.hpp"

namespace salo {

namespace {

/// Admission cost proxy: head-rows. Execution time scales with the number
/// of scheduled tiles, which scales with heads x rows for a given pattern
/// family; this keeps a few huge requests from hiding behind a small queue
/// depth.
std::uint64_t request_cost(const AttentionRequest& r) {
    return static_cast<std::uint64_t>(r.q.count()) *
           static_cast<std::uint64_t>(r.q.rows());
}

/// task_queues_ index for a priority class.
std::size_t band_index(Priority p) { return p == Priority::interactive ? 0 : 1; }

std::string what_of(const std::exception_ptr& error) {
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "non-std exception";
    }
}

}  // namespace

AttentionRequest make_request(CompiledPlanPtr plan, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale) {
    AttentionRequest r;
    r.plan = std::move(plan);
    r.q = std::move(q);
    r.k = std::move(k);
    r.v = std::move(v);
    r.scale = scale;
    return r;
}

AttentionRequest make_request(HybridPattern pattern, Tensor3<float> q, Tensor3<float> k,
                              Tensor3<float> v, float scale) {
    AttentionRequest r;
    r.pattern = std::move(pattern);
    r.q = std::move(q);
    r.k = std::move(k);
    r.v = std::move(v);
    r.scale = scale;
    return r;
}

ShardedSession::ShardedSession(const SaloConfig& config, ShardedSessionOptions options)
    : ServingTier(config, options.num_shards, options.shard_fault_injectors,
                  options.health, /*steps=*/false),
      options_(std::move(options)),
      sched_(options_.fairness) {
    SALO_EXPECTS(options_.retry.max_attempts >= 1);
    start(options_.router_workers > 0 ? options_.router_workers : 2 * options_.num_shards,
          [this] { worker_main(); });
}

ShardedSession::~ShardedSession() { close(); }

CompiledPlanPtr ShardedSession::compile(const HybridPattern& pattern,
                                        int head_dim) const {
    return shards_.front()->engine.compile(pattern, head_dim);
}

AdmissionSnapshot ShardedSession::snapshot_locked() const {
    AdmissionSnapshot s;
    s.queued_interactive = sched_.queued(Priority::interactive);
    s.queued_batch = sched_.queued(Priority::batch);
    s.outstanding_cost = sched_.queued_cost() + in_flight_cost_;
    return s;
}

std::future<LayerResult> ShardedSession::submit(AttentionRequest request) {
    // Structural checks that are cheap and certainly caller bugs happen
    // here, synchronously; shape/pattern mismatches surface through the
    // future like any other execution error.
    SALO_EXPECTS(request.plan != nullptr || request.pattern.has_value());
    SALO_EXPECTS(request.q.count() >= 1);
    SALO_EXPECTS(request.q.count() == request.k.count() &&
                 request.k.count() == request.v.count());

    Task task;
    task.cost = request_cost(request);
    task.request = std::move(request);
    std::future<LayerResult> future = task.promise.get_future();
    const Priority priority = task.request.priority;
    const std::string& tenant = task.request.tenant_id;

    {
        std::unique_lock<std::mutex> lock(m_);
        if (closed_)
            throw SessionClosed(
                "ShardedSession: submit() after close() — the tier is closed and no "
                "longer accepts requests");
        TenantStats& tenant_stats = ledger_.submit(tenant);
        task.id = next_task_id_++;

        // The wait bound, when any applicable policy is block_with_timeout:
        // the tighter of the timeouts that can put this request to sleep.
        std::optional<std::chrono::milliseconds> wait_budget;
        if (options_.admission.mode == AdmissionMode::block_with_timeout)
            wait_budget = options_.admission.block_timeout;
        const AdmissionPolicy& tenant_policy = sched_.quota(tenant).admission;
        if (tenant_policy.mode == AdmissionMode::block_with_timeout)
            wait_budget = std::min(wait_budget.value_or(tenant_policy.block_timeout),
                                   tenant_policy.block_timeout);
        std::optional<Clock::time_point> wait_until;
        if (wait_budget) wait_until = Clock::now() + *wait_budget;

        // Combined admission: the global scaled policy (degradation-aware:
        // limits shrink with the healthy-shard fraction) AND the tenant's
        // own quota, strictest outcome wins. A flooding tenant trips its
        // quota while everyone else's admission never sees it.
        auto decide = [&](Refusal& refusal) {
            const int healthy = health_.healthy_count(Clock::now());
            const AdmissionController global(
                scaled_policy(options_.admission, healthy, num_shards()));
            const AdmissionDecision g = global.decide(snapshot_locked(), priority, task.cost);
            const AdmissionDecision t = sched_.decide(tenant, priority, task.cost);
            if (t == AdmissionDecision::reject)
                refusal.error = std::make_exception_ptr(
                    QueueFull(std::string("tenant quota rejected ") + priority_name(priority) +
                              "-class request for tenant '" + tenant + "'"));
            else if (g == AdmissionDecision::reject)
                refusal.error = std::make_exception_ptr(QueueFull(
                    std::string("tier admission rejected ") + priority_name(priority) +
                    "-class request (" + std::to_string(healthy) + "/" +
                    std::to_string(num_shards()) + " shards healthy)"));
            if (g == AdmissionDecision::reject || t == AdmissionDecision::reject)
                return AdmissionDecision::reject;
            if (g == AdmissionDecision::wait || t == AdmissionDecision::wait)
                return AdmissionDecision::wait;
            return AdmissionDecision::admit;
        };
        auto refuse = [&task](std::exception_ptr error) {
            task.promise.set_exception(std::move(error));
        };
        if (!admit(lock, tenant_stats, priority, task.request.deadline, wait_until, decide,
                   refuse))
            return future;

        // Lockstep commit: the scheduler books the cost, the task deque
        // holds the object — same tenant, same class, FIFO on both sides.
        sched_.push(tenant, priority, task.cost);
        task_queues_[tenant][band_index(priority)].push_back(std::move(task));
    }
    cv_work_.notify_one();
    return future;
}

std::future<LayerResult> ShardedSession::submit(CompiledPlanPtr plan, Tensor3<float> q,
                                                Tensor3<float> k, Tensor3<float> v,
                                                float scale) {
    return submit(
        make_request(std::move(plan), std::move(q), std::move(k), std::move(v), scale));
}

std::future<LayerResult> ShardedSession::submit(const HybridPattern& pattern,
                                                Tensor3<float> q, Tensor3<float> k,
                                                Tensor3<float> v, float scale) {
    return submit(make_request(pattern, std::move(q), std::move(k), std::move(v), scale));
}

void ShardedSession::worker_main() {
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(m_);
            cv_work_.wait(lock, [this] { return closed_ || !sched_.empty(); });
            if (sched_.empty()) {
                if (closed_) return;
                continue;
            }
            // The DWRR pick names a (tenant, class); the matching Task is
            // the front of that queue by the lockstep-commit invariant.
            const std::optional<FairScheduler::Pick> pick = sched_.pop();
            SALO_ASSERT(pick.has_value());
            auto queues_it = task_queues_.find(pick->tenant);
            SALO_ASSERT(queues_it != task_queues_.end());
            std::deque<Task>& q = queues_it->second[band_index(pick->priority)];
            SALO_ASSERT(!q.empty() && q.front().cost == pick->cost);
            task = std::move(q.front());
            q.pop_front();
            if (queues_it->second[0].empty() && queues_it->second[1].empty())
                task_queues_.erase(queues_it);
            in_flight_cost_ += task.cost;
            ++in_flight_;
        }
        cv_space_.notify_all();
        serve_task(task);
        {
            std::lock_guard<std::mutex> lock(m_);
            in_flight_cost_ -= task.cost;
            --in_flight_;
            sched_.release(task.request.tenant_id, task.cost);
        }
        cv_space_.notify_all();
        cv_idle_.notify_all();
    }
}

void ShardedSession::finish(Task& task, Resolution resolution, std::exception_ptr error) {
    if (error != nullptr) task.promise.set_exception(std::move(error));
    std::lock_guard<std::mutex> lock(m_);
    ledger_.resolve(task.request.tenant_id, resolution);
}

int ShardedSession::pick_shard(const Task& task, Clock::time_point now) {
    for (;;) {
        std::vector<int> candidates = health_.acquirable(now);
        if (candidates.empty()) {
            // Every breaker refused: degrade to a forced probe of the shard
            // whose cooldown expires soonest rather than failing the tier.
            return health_.force_acquire_soonest(now);
        }
        // A retry prefers any shard other than the one that just failed it.
        if (task.last_shard >= 0 && candidates.size() > 1)
            candidates.erase(
                std::remove(candidates.begin(), candidates.end(), task.last_shard),
                candidates.end());

        // Least outstanding cost: the shard with the least queued+running
        // work; ties go to the lowest index.
        int chosen = candidates.front();
        std::uint64_t best = ~0ull;
        for (int s : candidates) {
            const std::uint64_t cost =
                shards_[static_cast<std::size_t>(s)]->outstanding_cost.load(
                    std::memory_order_relaxed);
            if (cost < best) {
                best = cost;
                chosen = s;
            }
        }
        if (health_.try_acquire(chosen, now)) return chosen;
        // Lost a race with a quarantine or a probe slot; re-evaluate.
    }
}

ShardedSession::Clock::duration ShardedSession::backoff_for(const Task& task) const {
    const RetryPolicy& p = options_.retry;
    const int shift = std::min(task.attempts - 1, 20);
    const std::int64_t base_us = std::min<std::int64_t>(
        p.max_backoff.count(), p.base_backoff.count() << shift);
    Fnv1a h;
    h.mix(p.jitter_seed);
    h.mix(task.id);
    h.mix(task.attempts);
    const double u = static_cast<double>(h.digest() >> 11) *
                     (1.0 / 9007199254740992.0);  // [0, 1)
    return std::chrono::microseconds(
        static_cast<std::int64_t>(static_cast<double>(base_us) * (0.5 + 0.5 * u)));
}

ShardedSession::WaitOutcome ShardedSession::backoff_wait(
    Clock::duration d, const CancellationToken& cancel,
    const std::optional<Clock::time_point>& deadline) const {
    const Clock::time_point until = Clock::now() + d;
    for (;;) {
        // Token first: a cancel that fired between attempts aborts the
        // backoff immediately — the request must resolve RequestCancelled,
        // never burn another attempt.
        if (cancel.cancelled()) return WaitOutcome::cancelled;
        const Clock::time_point now = Clock::now();
        if (deadline && now >= *deadline) return WaitOutcome::deadline;
        if (now >= until) return WaitOutcome::elapsed;
        Clock::time_point next = std::min(until, now + std::chrono::microseconds(200));
        if (deadline && *deadline < next) next = *deadline;
        std::this_thread::sleep_until(next);
    }
}

void ShardedSession::serve_task(Task& task) {
    const AttentionRequest& request = task.request;
    // Shed without touching any shard.
    if (request.cancel.cancelled())
        return finish(task, Resolution::cancelled,
                      std::make_exception_ptr(RequestCancelled(
                          "request cancelled while queued; shed before dispatch")));
    if (request.deadline && Clock::now() > *request.deadline)
        return finish(task, Resolution::shed_expired,
                      std::make_exception_ptr(DeadlineExceeded(
                          "request deadline expired while queued; shed before dispatch")));

    for (;;) {
        ++task.attempts;
        const Clock::time_point attempt_start = Clock::now();
        const int shard_index = pick_shard(task, attempt_start);
        if (task.attempts > 1 && shard_index != task.last_shard) {
            std::lock_guard<std::mutex> lock(m_);
            ledger_.failed_over(request.tenant_id);
        }
        Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
        shard.outstanding_cost.fetch_add(task.cost, std::memory_order_relaxed);
        const int active_here = shard.active.fetch_add(1, std::memory_order_relaxed) + 1;

        RunOptions run_options;
        run_options.fidelity = request.fidelity;
        // Alone on the shard: its heads run one per lane of the shard's pool.
        // Sharing it: the heads run in turn on this worker. Either way the
        // result is bit-identical (engine guarantee).
        run_options.thread_budget = active_here == 1 ? 0 : 1;
        run_options.cancel = request.cancel;
        std::optional<Clock::time_point> attempt_deadline = request.deadline;
        if (options_.stall_timeout.count() > 0) {
            const Clock::time_point stall_bound = attempt_start + options_.stall_timeout;
            attempt_deadline = attempt_deadline ? std::min(*attempt_deadline, stall_bound)
                                                : stall_bound;
        }
        run_options.deadline = attempt_deadline;
        run_options.fault_injector = request.fault_injector.get();

        auto release = [&](CircuitBreaker::Outcome outcome) {
            shard.outstanding_cost.fetch_sub(task.cost, std::memory_order_relaxed);
            shard.active.fetch_sub(1, std::memory_order_relaxed);
            health_.record(shard_index, outcome, Clock::now());
        };

        FailedAttempt failure;
        try {
            const CompiledPlanPtr plan =
                request.plan != nullptr
                    ? request.plan
                    : shard.engine.compile(*request.pattern, request.q.cols());
            LayerResult result = shard.engine.run(*plan, request.q, request.k, request.v,
                                                  request.scale, run_options);
            release(CircuitBreaker::Outcome::success);
            task.promise.set_value(std::move(result));
            return finish(task, Resolution::completed);
        } catch (...) {
            failure = classify_failure(request.deadline);
        }
        release(failure.breaker);
        if (!failure.retryable) return finish(task, failure.resolution, failure.error);

        // Retryable failure (EngineFault or a shard stall).
        task.last_shard = shard_index;
        if (task.attempts >= options_.retry.max_attempts) {
            // Without retry (a plain SaloSession) the failure itself is the
            // answer; otherwise say that the budget ran out.
            if (task.attempts > 1)
                failure.error = std::make_exception_ptr(EngineFault(
                    "retry budget exhausted after " + std::to_string(task.attempts) +
                    " attempts; last failure on shard " + std::to_string(shard_index) +
                    ": " + what_of(failure.error)));
            return finish(task, Resolution::failed, failure.error);
        }

        switch (backoff_wait(backoff_for(task), request.cancel, request.deadline)) {
            case WaitOutcome::cancelled:
                return finish(task, Resolution::cancelled,
                              std::make_exception_ptr(RequestCancelled(
                                  "request cancelled during retry backoff; not retried")));
            case WaitOutcome::deadline:
                return finish(task, Resolution::timed_out,
                              std::make_exception_ptr(DeadlineExceeded(
                                  "request deadline expired during retry backoff; not "
                                  "retried")));
            case WaitOutcome::elapsed:
                break;
        }
        {
            // Fairness survives retries: the extra attempt is billed to the
            // tenant's DWRR deficit (the request itself stays with this
            // worker — it never re-enters a queue or jumps any line).
            std::lock_guard<std::mutex> lock(m_);
            ledger_.retried(request.tenant_id);
            sched_.charge(request.tenant_id, task.cost);
        }
    }
}

void ShardedSession::drain() {
    std::unique_lock<std::mutex> lock(m_);
    cv_idle_.wait(lock, [this] { return sched_.empty() && in_flight_ == 0; });
}

std::optional<TenantQueueSnapshot> ShardedSession::tenant_queue(
    const std::string& tenant) const {
    std::lock_guard<std::mutex> lock(m_);
    return sched_.tenant_snapshot(tenant);
}

}  // namespace salo
