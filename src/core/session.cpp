#include "core/session.hpp"

namespace salo {

namespace {

ShardedSessionOptions plain_session_options(const SaloConfig& config,
                                            const SessionOptions& options) {
    ShardedSessionOptions o;
    o.num_shards = 1;
    // One worker per engine lane: enough to keep the pool busy with
    // request-level parallelism, and a 1-lane session still queues behind
    // a wedged request.
    o.router_workers = config.effective_threads();
    o.retry.max_attempts = 1;  // one engine: there is nowhere to fail over to
    o.admission = options.admission;
    return o;
}

}  // namespace

SaloSession::SaloSession(const SaloConfig& config, SessionOptions options)
    : ShardedSession(config, plain_session_options(config, options)) {}

}  // namespace salo
