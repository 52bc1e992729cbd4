// DecodeSession: streaming autoregressive decode over persistent per-stream
// K/V state.
//
// Where ShardedSession serves whole sequences, a DecodeSession serves *steps*:
// a caller opens a stream (a fixed decode-compatible pattern, head count,
// head dimension), then submits one query row at a time; every step appends
// that position's K/V rows to the stream's decode state (ring window +
// pinned globals, attention/streaming.hpp) and computes only the new row's
// tiles through the engine's micro-plan path (SaloEngine::run_step) — the
// full-pattern schedule is compiled once per shape and each step derivation
// is cached, so steady-state decode runs no scheduler work at all. Outside
// golden fidelity the state holds int8 Q3.4 rows, quantized once at append.
//
//   DecodeSession session(config, options);
//   StreamId s = session.open_stream(pattern, heads, head_dim, scale);
//   std::future<StepResult> f = session.step(s, {q_row, k_row, v_row});
//   ...
//   session.close_stream(s);
//
// Step lanes: each shard has a FIFO queue of ready streams and as many lane
// threads as its engine has lanes (SaloConfig::effective_threads()). A lane
// pulls work continuously: under one lock per turn it resolves the chunk it
// just ran and claims the front step of the next few ready streams, then
// runs them outside the lock, one after another, each on one lane
// (thread_budget 1: a step's heads run in order). No lane waits for
// another, so a slow or stalled step holds only the rest of its own chunk.
// A stream is either queued or executing on one lane, never both, so its
// steps execute strictly in submission order (the K/V append log is
// strictly ordered). Every completed step is bit-identical to row t of the
// full-prefix encode.
//
// Shards, admission, accounting and close() are the shared serving core
// (core/tier.hpp); only the stream table and the step lanes live here.
//
// State affinity (the contract docs/API.md "Decode lifecycle" documents):
// a stream's DecodeState lives on exactly one engine shard, picked by
// rendezvous hash at open_stream() and never moved. If the shard is
// quarantined by health supervision — or any step of the stream fails for
// any reason (fault, deadline, cancellation, admission shed): a hole in a
// strictly-ordered append log cannot be papered over — the stream is
// *evicted*: the failing step's future and every later step() on the
// stream fail with StreamEvicted, and the caller must open a new stream
// and re-prefill. No retry, no silent migration, ever.
//
// Deadlines, cancellation, admission control and tenant accounting compose
// unchanged: each step is one admission unit (cost = heads) with its own
// deadline/token, and SessionStats/TenantStats obey the conservation law
// with steps == submitted (a pure decode tier).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "attention/streaming.hpp"
#include "core/tier.hpp"

namespace salo {

using StreamId = std::uint64_t;

/// One decode step: the new position's query/key/value rows, one row per
/// head (all heads x head_dim), plus the per-step robustness knobs of
/// AttentionRequest. The tenant is the stream's, fixed at open_stream();
/// the fidelity is the session's (SaloConfig::fidelity), fixed with the
/// stream's K/V storage format.
struct StepRequest {
    Matrix<float> q_row;
    Matrix<float> k_row;
    Matrix<float> v_row;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    CancellationToken cancel;
    std::shared_ptr<const FaultInjector> fault_injector;
};

struct DecodeSessionOptions {
    /// Engine shards (own pool each, one tier-wide PlanCache). Streams are
    /// pinned to a shard at open_stream() and never migrate.
    int num_shards = 1;
    /// Admission policy over queued steps (cost unit = heads).
    AdmissionPolicy admission;
    /// Shard circuit breakers; a quarantined shard evicts its streams.
    HealthPolicy health;
    /// Chaos/testing hook: engine-level fault injector for shard i
    /// (missing/null entries leave that shard clean). Overridden per step
    /// by StepRequest::fault_injector.
    std::vector<std::shared_ptr<const FaultInjector>> shard_fault_injectors;
};

class DecodeSession : public ServingTier {
public:
    /// Most steps one lane claims per turn (SessionStats::max_batch never
    /// exceeds it).
    static constexpr std::size_t kChunkCap = 32;

    explicit DecodeSession(const SaloConfig& config = {},
                           DecodeSessionOptions options = {});
    ~DecodeSession();  // close()

    /// Open a stream for up to pattern.n() steps of `pattern` (which must
    /// be decode_compatible: causal bands, 1D, globals inside the window
    /// span). Pins the stream's state to a shard. Throws SessionClosed
    /// after close() and ContractViolation on an incompatible pattern.
    StreamId open_stream(const HybridPattern& pattern, int heads, int head_dim,
                         float scale, std::string tenant_id = std::string());

    /// Submit the stream's next step. The future resolves with the step's
    /// attention row, or with a typed SaloError; after any failed step the
    /// stream is evicted and every later step() future fails with
    /// StreamEvicted. Throws SessionClosed / ContractViolation (unknown
    /// stream, shape mismatch, more steps than pattern.n()) synchronously.
    /// Blocking under a full queue follows the admission policy.
    std::future<StepResult> step(StreamId stream, StepRequest request);

    /// Block until the stream's submitted steps have resolved, then drop
    /// its state. Idempotent per id (a second call throws — the id is
    /// gone). Streams not closed explicitly are dropped by close().
    void close_stream(StreamId stream);

    /// Block until every submitted step has resolved.
    void drain();

    /// The shard a live stream is pinned to (tests/benches).
    int stream_shard(StreamId stream) const;

private:
    struct PendingStep {
        StepRequest request;
        std::promise<StepResult> promise;
        std::uint64_t cost = 0;  ///< admission cost units (= heads)
    };

    struct Stream {
        HybridPattern pattern;  ///< full-horizon pattern (max length n)
        int heads = 0;
        int head_dim = 0;
        float scale = 1.0f;
        std::string tenant;
        int shard = 0;
        /// K/V storage, chosen once at open_stream() from the session's
        /// fidelity: float rows for the golden oracle, InputFx int8 rows
        /// (quantized at append) for the hardware fidelities.
        std::variant<DecodeState, QuantizedDecodeState> state;
        std::deque<PendingStep> pending;
        std::uint64_t accepted_steps = 0;  ///< total step() calls admitted
        bool executing = false;  ///< a lane is running its front step
        bool queued = false;     ///< stream id is in its shard's ready queue
        bool evicted = false;

        Stream(HybridPattern p, int h, int d, float sc, std::string t, int sh,
               Fidelity fidelity)
            : pattern(std::move(p)), heads(h), head_dim(d), scale(sc),
              tenant(std::move(t)), shard(sh), state(make_state(fidelity)) {}

        std::variant<DecodeState, QuantizedDecodeState> make_state(Fidelity fidelity) const {
            const int span = decode_window_span(pattern.bands());
            if (fidelity == Fidelity::kGolden)
                return DecodeState(heads, head_dim, span, pattern.global_tokens());
            return QuantizedDecodeState(heads, head_dim, span, pattern.global_tokens());
        }
    };

    /// One stream's step lifted out of the queues for execution.
    struct ExecItem {
        StreamId id = 0;
        Stream* stream = nullptr;
        PendingStep step;
        Resolution outcome = Resolution::completed;
    };

    /// One step lane of `shard`: resolve the last chunk and claim the next
    /// under m_, run it outside.
    void lane_loop(int shard);
    Resolution execute(ExecItem& item);
    /// Mark the stream evicted and fail everything still queued on it.
    /// Caller holds m_.
    void evict_locked(Stream& stream, const std::string& reason);
    int pick_shard(StreamId id, Clock::time_point now);
    AdmissionSnapshot snapshot_locked() const;

    AdmissionController admission_;

    // Guarded by m_.
    std::unordered_map<StreamId, std::unique_ptr<Stream>> streams_;
    /// Per shard: streams with a dispatchable front step, in FIFO order.
    std::vector<std::deque<StreamId>> ready_;
    std::uint64_t next_stream_id_ = 1;
    std::size_t queued_steps_ = 0;
    std::uint64_t queued_cost_ = 0;
    std::uint64_t in_flight_cost_ = 0;
    std::size_t in_flight_ = 0;
};

}  // namespace salo
