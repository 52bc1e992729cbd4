// SaloError: the typed failure taxonomy of the serving layer.
//
// Every way a request can fail to produce a result maps to one concrete
// exception type, so callers can branch on *what happened* instead of
// string-matching a bare std::runtime_error:
//
//   SessionClosed     submit() on a session that stopped accepting work
//   QueueFull         admission control rejected the request (shed load)
//   DeadlineExceeded  the request's absolute deadline passed before or
//                     during execution
//   RequestCancelled  the request's CancellationToken fired
//   EngineFault       an execution-side failure (a worker lane threw); the
//                     original exception's message is preserved
//
// All of these derive from SaloError, which derives from
// std::runtime_error, so legacy catch sites keep working. Caller bugs —
// malformed configurations, shape mismatches — stay ContractViolation
// (common/assert.hpp): a contract violation is a programming error, not a
// serving outcome, and is never wrapped in EngineFault.
//
// Delivery: lifecycle bugs (SessionClosed) throw synchronously from
// submit(); per-request outcomes (QueueFull, DeadlineExceeded,
// RequestCancelled, EngineFault) resolve the request's future, so one
// uniform `future.get()` sees every asynchronous failure. SessionStats
// counts each outcome class (see core/tier.hpp).
#pragma once

#include <stdexcept>
#include <string>

namespace salo {

/// Root of the serving-failure taxonomy.
class SaloError : public std::runtime_error {
public:
    explicit SaloError(const std::string& what) : std::runtime_error(what) {}
};

/// submit() after close(): the session no longer accepts work.
class SessionClosed : public SaloError {
public:
    explicit SessionClosed(const std::string& what) : SaloError(what) {}
};

/// Admission control shed the request (queue depth / cost / per-class
/// limit, or a block-with-timeout admission wait expired).
class QueueFull : public SaloError {
public:
    explicit QueueFull(const std::string& what) : SaloError(what) {}
};

/// The request's absolute deadline passed before a result was produced.
class DeadlineExceeded : public SaloError {
public:
    explicit DeadlineExceeded(const std::string& what) : SaloError(what) {}
};

/// The request's CancellationToken fired before a result was produced.
class RequestCancelled : public SaloError {
public:
    explicit RequestCancelled(const std::string& what) : SaloError(what) {}
};

/// An execution-side fault: a worker lane threw while running the request
/// (including injected faults, see common/fault_injector.hpp). The wrapped
/// exception's message is embedded in what().
class EngineFault : public SaloError {
public:
    explicit EngineFault(const std::string& what) : SaloError(what) {}
};

/// A decode stream lost its per-stream K/V state (core/decode_session.hpp):
/// its pinned shard was quarantined, or an earlier step of the stream failed
/// and broke the strictly-ordered append log. The state never migrates
/// silently — the caller must open a new stream and re-prefill. Delivered
/// through the failing step's future and through every later step() on the
/// same stream.
class StreamEvicted : public SaloError {
public:
    explicit StreamEvicted(const std::string& what) : SaloError(what) {}
};

}  // namespace salo
