// SaloSession: the single-engine request-serving front end.
//
// A plain session is the one-shard ShardedSession (core/shard_router.hpp)
// without retry: callers submit AttentionRequests and receive a
// std::future<LayerResult>; router workers (one per engine lane) carry
// each request end to end. A request alone on the engine runs its heads
// one per pool lane; concurrent requests each run their heads one after
// another on their own worker. Every completed result is
// bit-identical to the sequential SaloEngine::run of the same request.
//
// Robustness is the tier's (docs/API.md "Failure semantics"): typed
// SaloErrors through the future, deadlines and cancellation shed before
// dispatch and checked at tile boundaries, admission control
// (core/admission.hpp), and fault isolation — one faulted request fails
// only its own future.
//
// Plans are resolved through the engine's PlanCache: a request that carries
// only a pattern compiles it on first sight and hits the cache afterwards,
// and concurrent first sights of one shape run the scheduler exactly once.
#pragma once

#include "core/shard_router.hpp"

namespace salo {

struct SessionOptions {
    /// Admission control policy (depth/cost/per-class limits and what to
    /// do when they are hit). Default: unbounded, block mode.
    AdmissionPolicy admission;
};

class SaloSession : public ShardedSession {
public:
    explicit SaloSession(const SaloConfig& config = {}, SessionOptions options = {});

    const SaloEngine& engine() const { return shard_engine(0); }
};

}  // namespace salo
