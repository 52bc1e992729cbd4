// The seeded traffic of the serve-mixed-open workload: a Poisson arrival
// schedule over a fixed shape mix, and the input pools requests are cut
// from. Both are pure functions of the seed (the self-tests check that).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/salo.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

/// Request shapes. The three main ones repeat (plan-cache hits); every
/// tail request has a Longformer length no other request in the run has
/// (plan-cache miss -> scheduler -> insert).
enum Kind : int { kLongformer1024 = 0, kVil28 = 1, kVil14 = 2, kTail = 3 };
constexpr int kMainKinds = 3;

/// The mix follows bench/bench_serving.cpp rather than inventing shares:
/// its mixed stream cycles the three main shapes equally (so they split
/// the non-tail traffic in thirds), its overload mix sends about half the
/// requests batch class, and its paced well-behaved tenants send equal
/// traffic. Only the tail share is this workload's own (~10% distinct
/// lengths, enough to keep the miss path busy).
constexpr double kTailShare = 0.10;
constexpr double kBatchShare = 0.5;

constexpr int kInputClasses = 4;  ///< input pools per main shape
constexpr int kTailMinN = 600;    ///< tail lengths are distinct values in
constexpr int kTailMaxN = 1600;   ///< [kTailMinN, kTailMaxN)
constexpr int kTenants = 2;
inline const char* tenant_name(int t) { return t == 0 ? "gold" : "silver"; }

struct Arrival {
    double due_ms = 0.0;  ///< offset from the schedule start
    int kind = kLongformer1024;
    int n = 0;            ///< sequence length
    int input_class = 0;  ///< which input pool entry the request is cut from
    int tenant = 0;       ///< 0 = gold (weight 2), 1 = silver (weight 1)
    bool batch = false;   ///< batch priority class (else interactive)

    bool operator==(const Arrival&) const = default;
};

/// Poisson arrivals at `rate_per_s` for `seconds`, each with a seeded
/// shape, input class, tenant and priority.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s, double seconds);

/// Seeded Q/K/V pools: kInputClasses entries per main shape. The
/// Longformer pool has kTailMaxN rows; a request of length n uses the
/// first n rows, so tail requests need no inputs of their own.
struct ServeInputs {
    std::array<std::vector<salo::QkvSet>, kMainKinds> pools;
};
ServeInputs make_inputs(std::uint64_t seed);

int heads_of(int kind);
constexpr int kHeadDim = 64;
salo::HybridPattern pattern_of(const Arrival& a);

/// The request an arrival submits (pattern-carrying: the tier resolves the
/// plan through its caches).
salo::AttentionRequest build_request(const Arrival& a, const ServeInputs& inputs);

}  // namespace perfbench
