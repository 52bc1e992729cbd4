#include "core/decode_session.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace salo {

namespace {

/// The prefix pattern a stream sees at length L: same bands, globals
/// clipped to [0, L). Scheduler inputs depend on n, so each prefix length
/// is its own full plan + micro-plan (both cached by fingerprint).
HybridPattern prefix_pattern(const HybridPattern& full, int length) {
    std::vector<int> globals;
    for (int g : full.global_tokens()) {
        if (g >= length) break;  // sorted ascending
        globals.push_back(g);
    }
    return HybridPattern(length, full.bands(), std::move(globals));
}

}  // namespace

DecodeSession::DecodeSession(const SaloConfig& config, DecodeSessionOptions options)
    : ServingTier(config, options.num_shards, options.shard_fault_injectors,
                  options.health, /*steps=*/true),
      admission_(options.admission),
      ready_(shards_.size()) {
    for (int s = 0; s < num_shards(); ++s)
        start(config.effective_threads(), [this, s] { lane_loop(s); });
}

DecodeSession::~DecodeSession() { close(); }

AdmissionSnapshot DecodeSession::snapshot_locked() const {
    AdmissionSnapshot s;
    s.queued_interactive = queued_steps_;
    s.queued_batch = 0;  // steps are interactive-class by construction
    s.outstanding_cost = queued_cost_ + in_flight_cost_;
    return s;
}

int DecodeSession::pick_shard(StreamId id, Clock::time_point now) {
    // Rendezvous hash over the shards that would currently grant a slot, so
    // placement is stable per stream id yet avoids shards already known
    // sick at open time. With every shard refusing, hash over all of them —
    // the stream will evict on its first step if the shard stays down.
    std::vector<int> eligible = health_.acquirable(now);
    if (eligible.empty()) {
        eligible.resize(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s)
            eligible[s] = static_cast<int>(s);
    }
    int best = -1;
    std::uint64_t best_weight = 0;
    for (int s : eligible) {
        Fnv1a h;
        h.mix(std::uint64_t{0x5A10'0006});  // type tag: stream placement
        h.mix(id);
        h.mix(s);
        const std::uint64_t w = h.digest();
        if (best < 0 || w > best_weight) {
            best_weight = w;
            best = s;
        }
    }
    return best;
}

StreamId DecodeSession::open_stream(const HybridPattern& pattern, int heads,
                                    int head_dim, float scale, std::string tenant_id) {
    SALO_EXPECTS(decode_compatible(pattern));
    SALO_EXPECTS(heads >= 1);
    SALO_EXPECTS(head_dim >= 1);
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(m_);
    if (closed_)
        throw SessionClosed(
            "DecodeSession: open_stream() after close() — the session is closed");
    const StreamId id = next_stream_id_++;
    const int shard = pick_shard(id, now);
    streams_.emplace(id, std::make_unique<Stream>(pattern, heads, head_dim, scale,
                                                  std::move(tenant_id), shard,
                                                  config().fidelity));
    return id;
}

std::future<StepResult> DecodeSession::step(StreamId stream_id, StepRequest request) {
    PendingStep pending;
    std::future<StepResult> future = pending.promise.get_future();

    std::unique_lock<std::mutex> lock(m_);
    if (closed_)
        throw SessionClosed(
            "DecodeSession: step() after close() — the session is closed and no "
            "longer accepts steps");
    const auto it = streams_.find(stream_id);
    SALO_EXPECTS(it != streams_.end());
    Stream& stream = *it->second;
    // Shape and horizon checks are caller bugs, surfaced synchronously.
    SALO_EXPECTS(request.q_row.rows() == stream.heads &&
                 request.q_row.cols() == stream.head_dim);
    SALO_EXPECTS(request.k_row.rows() == stream.heads &&
                 request.k_row.cols() == stream.head_dim);
    SALO_EXPECTS(request.v_row.rows() == stream.heads &&
                 request.v_row.cols() == stream.head_dim);
    SALO_EXPECTS(stream.accepted_steps < static_cast<std::uint64_t>(stream.pattern.n()));

    pending.cost = static_cast<std::uint64_t>(stream.heads);
    pending.request = std::move(request);
    TenantStats& tenant = ledger_.submit(stream.tenant);
    ++stream.accepted_steps;

    if (stream.evicted) {
        // The append log already has a hole; this step can never execute.
        ledger_.resolve(tenant, Resolution::failed);
        pending.promise.set_exception(std::make_exception_ptr(
            StreamEvicted("step() on an evicted stream: an earlier step failed or the "
                          "pinned shard was quarantined — open a new stream and "
                          "re-prefill")));
        return future;
    }

    // Steps are interactive-class. Any refusal also evicts the stream, since
    // the skipped position would break the append order; a stream evicted
    // while this step waited fails it as StreamEvicted.
    const AdmissionPolicy& policy = admission_.policy();
    std::optional<Clock::time_point> wait_until;
    if (policy.mode == AdmissionMode::block_with_timeout)
        wait_until = Clock::now() + policy.block_timeout;
    auto decide = [&](Refusal& refusal) {
        if (stream.evicted) {
            refusal = {Resolution::failed,
                       std::make_exception_ptr(StreamEvicted(
                           "stream evicted while the step waited for admission"))};
            return AdmissionDecision::reject;
        }
        return admission_.decide(snapshot_locked(), Priority::interactive, pending.cost);
    };
    auto refuse = [&](std::exception_ptr error) {
        evict_locked(stream, "the step was refused admission");
        pending.promise.set_exception(std::move(error));
    };
    if (!admit(lock, tenant, Priority::interactive, pending.request.deadline, wait_until,
               decide, refuse))
        return future;

    ++queued_steps_;
    queued_cost_ += pending.cost;
    stream.pending.push_back(std::move(pending));
    if (stream.executing || stream.queued) return future;  // its lane re-queues it
    const auto shard = static_cast<std::size_t>(stream.shard);
    stream.queued = true;
    ready_[shard].push_back(stream_id);
    lock.unlock();
    shards_[shard]->cv_work.notify_one();
    return future;
}

void DecodeSession::evict_locked(Stream& stream, const std::string& reason) {
    if (!stream.evicted) {
        stream.evicted = true;
        ledger_.evicted_stream();
    }
    while (!stream.pending.empty()) {
        PendingStep p = std::move(stream.pending.front());
        stream.pending.pop_front();
        --queued_steps_;
        queued_cost_ -= p.cost;
        ledger_.resolve(stream.tenant, Resolution::failed);
        p.promise.set_exception(std::make_exception_ptr(StreamEvicted(
            "stream evicted (" + reason + "); this queued step cannot execute")));
    }
    stream.queued = false;
}

Resolution DecodeSession::execute(ExecItem& item) {
    Stream& stream = *item.stream;
    StepRequest& request = item.step.request;
    std::promise<StepResult>& promise = item.step.promise;
    SaloEngine& engine = shards_[static_cast<std::size_t>(stream.shard)]->engine;
    const Clock::time_point now = Clock::now();

    // Shed without touching the shard: these never acquire a health slot.
    if (request.cancel.cancelled()) {
        promise.set_exception(std::make_exception_ptr(RequestCancelled(
            "step cancelled while queued; shed before dispatch (stream evicted)")));
        return Resolution::cancelled;
    }
    if (request.deadline && now > *request.deadline) {
        promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
            "step deadline expired while queued; shed before dispatch (stream evicted)")));
        return Resolution::shed_expired;
    }

    // Stream-sticky routing: the state lives here and only here. A shard
    // that refuses (quarantined, probe slots exhausted) evicts the stream —
    // the state is never rebuilt elsewhere behind the caller's back.
    if (!health_.try_acquire(stream.shard, now)) {
        promise.set_exception(std::make_exception_ptr(
            StreamEvicted("pinned shard " + std::to_string(stream.shard) +
                          " is quarantined; stream state is lost — open a new stream "
                          "and re-prefill")));
        return Resolution::failed;
    }

    FailedAttempt failure;
    try {
        RunOptions run_options;
        run_options.thread_budget = 1;
        run_options.cancel = request.cancel;
        run_options.deadline = request.deadline;
        // Shard-level injectors were folded into the shard's SaloConfig at
        // construction; this only carries a per-step override.
        run_options.fault_injector = request.fault_injector.get();

        StepResult result = std::visit(
            [&](auto& state) {
                // Commit the position to the append log first: whatever
                // happens below, position t is spoken for (a failure evicts
                // the stream, so the log never serves a later step with a
                // hole in it).
                state.append(request.k_row, request.v_row);
                const HybridPattern prefix = prefix_pattern(stream.pattern, state.length());
                const CompiledPlanPtr micro = engine.compile_step(prefix, stream.head_dim);
                const auto [k_compact, v_compact] = state.assemble();
                return engine.run_step(*micro, request.q_row, k_compact, v_compact,
                                       stream.scale, run_options);
            },
            stream.state);
        // The breaker records every outcome before the caller can see it,
        // so a step submitted after this future resolves, on any lane,
        // meets the shard health this step left behind.
        health_.record(stream.shard, CircuitBreaker::Outcome::success, Clock::now());
        promise.set_value(std::move(result));
        return Resolution::completed;
    } catch (...) {
        failure = classify_failure(request.deadline);
    }
    // No retry: the position is committed, so any failure evicts the stream.
    health_.record(stream.shard, failure.breaker, Clock::now());
    promise.set_exception(failure.error);
    return failure.resolution;
}

void DecodeSession::lane_loop(int shard) {
    std::deque<StreamId>& ready = ready_[static_cast<std::size_t>(shard)];
    std::condition_variable& cv_work = shards_[static_cast<std::size_t>(shard)]->cv_work;
    const int lanes = config().effective_threads();
    std::vector<ExecItem> chunk;
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        if (!chunk.empty()) {
            for (ExecItem& item : chunk) {
                Stream& stream = *item.stream;
                stream.executing = false;
                in_flight_cost_ -= item.step.cost;
                ledger_.resolve(stream.tenant, item.outcome);
                if (item.outcome != Resolution::completed) {
                    // Uniform eviction contract: any non-success outcome
                    // leaves a hole in the append log.
                    evict_locked(stream, "a step failed to complete");
                } else if (!stream.pending.empty()) {
                    stream.queued = true;
                    ready.push_back(item.id);
                }
            }
            in_flight_ -= chunk.size();
            chunk.clear();
            cv_space_.notify_all();
            cv_idle_.notify_all();
        }
        cv_work.wait(lock, [&] { return closed_ || !ready.empty(); });
        // A stream with queued steps is in its shard's queue unless a lane
        // of that shard is running it, and that lane re-queues it before it
        // waits: so a closed tier with an empty queue has nothing left here.
        if (ready.empty()) return;
        // An even share of the queue, capped so a lane never holds more
        // than kChunkCap streams behind one slow step.
        const std::size_t share = (ready.size() + static_cast<std::size_t>(lanes) - 1) /
                                  static_cast<std::size_t>(lanes);
        const std::size_t take = std::min(kChunkCap, share);
        while (chunk.size() < take && !ready.empty()) {
            const StreamId id = ready.front();
            ready.pop_front();
            const auto sit = streams_.find(id);
            if (sit == streams_.end()) continue;  // closed while queued
            Stream& stream = *sit->second;
            stream.queued = false;
            // An eviction while the id sat in the queue drains pending but
            // leaves this stale entry behind; just skip it.
            if (stream.pending.empty()) continue;
            ExecItem item;
            item.id = id;
            item.stream = &stream;
            item.step = std::move(stream.pending.front());
            stream.pending.pop_front();
            stream.executing = true;
            --queued_steps_;
            queued_cost_ -= item.step.cost;
            in_flight_cost_ += item.step.cost;
            chunk.push_back(std::move(item));
        }
        if (chunk.empty()) continue;
        in_flight_ += chunk.size();
        ledger_.chunk(chunk.size());
        const bool more = !ready.empty();
        lock.unlock();
        cv_space_.notify_all();
        // Work left behind: wake one more lane, which does the same.
        if (more) cv_work.notify_one();
        for (ExecItem& item : chunk) item.outcome = execute(item);
        lock.lock();
    }
}

void DecodeSession::close_stream(StreamId stream_id) {
    std::unique_lock<std::mutex> lock(m_);
    auto it = streams_.find(stream_id);
    SALO_EXPECTS(it != streams_.end());
    Stream* stream = it->second.get();
    cv_idle_.wait(lock, [stream] {
        return stream->pending.empty() && !stream->executing;
    });
    streams_.erase(stream_id);
}

void DecodeSession::drain() {
    std::unique_lock<std::mutex> lock(m_);
    cv_idle_.wait(lock, [this] { return queued_steps_ == 0 && in_flight_ == 0; });
}

int DecodeSession::stream_shard(StreamId stream_id) const {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = streams_.find(stream_id);
    SALO_EXPECTS(it != streams_.end());
    return it->second->shard;
}

}  // namespace salo
