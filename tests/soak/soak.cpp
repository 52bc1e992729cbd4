// Seeded soaks of the serving tiers, each gated by its exit code.
//
//   soak <chaos|noisy|decode> --seed S
//
// Exit code 0 when every gate holds, 1 when one fails, 2 on bad usage. The
// sizes are fixed so a soak finishes in seconds on a small host, also under
// the sanitizers; ctest runs each kind as `chaos_soak`,
// `noisy_neighbor_soak` and `decode_soak` with --seed 7.
//
// chaos: a 16-request Longformer-1024 + ViL-28x28 + ViL-14x14 mix through a
// 4-shard ShardedSession, healthy and then under the seeded fault mix: one
// seeded shard faults ~5% of its tiles until it heals (quarantine, half-open
// probing, reintegration), 1 in 10 requests faults its first attempt once
// (retry and failover), 1 in 20 stalls 5 ms at a tile boundary. Gates, on
// both runs: zero lost futures, the conservation law, every completed
// result bit-identical to the sequential engine; on the chaos run also at
// least one retry and completed p99 under 3x the healthy p99 (floored at
// 10 ms).
//
// noisy: 4 well-behaved tenants send paced interactive ViL-28x28 requests
// (6 each) through a 1-shard, 1-lane tier, while
// an aggressor floods 10x as many batch-class ViL-14x14 requests against
// its own {weight 1, reject_fast, max_queue 4} quota. Gates:
//   (a) every well-behaved tenant's p99 is under 2x the solo run's p99
//       (one tenant, same pacing, empty tier; floored at 10 ms);
//   (b) the well-behaved tenants see zero QueueFull, the aggressor at least
//       one;
//   (c) the conservation law holds per tenant and globally, and the tenant
//       counters sum to the global ones;
//   (d) every completed result is bit-identical to the sequential engine.
// (b)-(d) and zero lost futures also gate the solo run, and the 16-request
// mix served through a SaloSession must be bit-identical as well.
//
// decode: 64 streams of 4..8 steps (band span 64 + 2 globals, 2 heads,
// d 32) over 4 tenants on a 2-shard DecodeSession whose shard 0 faults its
// first 6 head-runs and stalls 32 more. Gates: no lost futures, typed
// SaloErrors only, every completed step bit-identical to row t of the
// full encode of its length-(t+1) prefix, steps == submitted and the
// conservation law globally and per tenant, and at least one evicted
// stream.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/salo.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace salo;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

bool identical(const LayerResult& a, const LayerResult& b) {
    if (a.stats.cycles != b.stats.cycles || a.stats.tiles != b.stats.tiles) return false;
    if (a.output.count() != b.output.count()) return false;
    for (int h = 0; h < a.output.count(); ++h)
        if (max_abs_diff(a.output[h], b.output[h]) != 0.0) return false;
    return true;
}

/// Prints one gate and passes its verdict through.
bool gate(const char* what, bool ok) {
    std::printf("  %-56s %s\n", what, ok ? "ok" : "FAIL");
    return ok;
}

/// Polls the futures until all are ready or a 120 s budget expires, and
/// returns each one's submit -> ready latency in ms. A future still unready
/// at the end is lost and reads -1. Stamping readiness rather than waiting
/// in order keeps head-of-line waits out of early finishers' latency.
std::vector<double> await_ready(std::vector<std::future<LayerResult>>& futures,
                                const std::vector<Clock::time_point>& submit_at) {
    std::vector<double> latency_ms(futures.size(), -1.0);
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(120);
    std::size_t remaining = futures.size();
    while (remaining > 0 && Clock::now() < deadline) {
        for (std::size_t i = 0; i < futures.size(); ++i) {
            if (latency_ms[i] >= 0.0) continue;
            if (futures[i].wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
                latency_ms[i] = ms_between(submit_at[i], Clock::now());
                --remaining;
            }
        }
        if (remaining > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return latency_ms;
}

int count_lost(const std::vector<double>& latency_ms) {
    return static_cast<int>(std::count(latency_ms.begin(), latency_ms.end(), -1.0));
}

/// The conservation law globally and per tenant, with the tenant counters
/// summing to the global ones. On a decode tier every submission is also
/// a step.
bool conserved(const SessionStats& stats, const std::map<std::string, TenantStats>& tenants,
               bool decode) {
    bool ok = stats.accounted() == stats.submitted &&
              stats.steps == (decode ? stats.submitted : 0);
    std::uint64_t submitted = 0, accounted = 0;
    for (const auto& [name, ts] : tenants) {
        (void)name;
        if (ts.accounted() != ts.submitted || ts.steps != (decode ? ts.submitted : 0))
            ok = false;
        submitted += ts.submitted;
        accounted += ts.accounted();
    }
    return ok && submitted == stats.submitted && accounted == stats.accounted();
}

AttentionWorkload vil_grid(int side, int window, const char* name) {
    AttentionWorkload vil = vil_stage2();
    vil.pattern = vil_2d(side, side, window, window, 1);
    vil.heads = 2;
    vil.window = window * window;
    vil.name = name;
    return vil;
}

/// The 16-request mix, cycling through three shapes (paper Table 2
/// families, scaled to run in seconds), with every input pre-generated and
/// every expected result computed by the synchronous engine.
struct MixedStream {
    std::vector<AttentionWorkload> shapes{longformer_small(1024, 128, 4, 64, 1),
                                          vil_grid(28, 9, "ViL-28x28"),
                                          vil_grid(14, 7, "ViL-14x14")};
    std::vector<QkvSet> qkv;
    std::vector<LayerResult> expected;

    const AttentionWorkload& shape(std::size_t i) const { return shapes[i % shapes.size()]; }
    AttentionRequest request(std::size_t i) const {
        return make_request(shape(i).pattern, qkv[i].q, qkv[i].k, qkv[i].v, shape(i).scale());
    }
};

MixedStream make_stream(const SaloConfig& config) {
    constexpr std::size_t kRequests = 16;
    MixedStream s;
    const SaloEngine sequential(config);
    for (std::size_t i = 0; i < kRequests; ++i) {
        const AttentionWorkload& w = s.shape(i);
        s.qkv.push_back(make_qkv(w, 7000 + i));
        s.expected.push_back(
            sequential.run(*sequential.compile(w.pattern, w.head_dim), s.qkv[i].q, s.qkv[i].k,
                           s.qkv[i].v, w.scale()));
    }
    return s;
}

// -------------------------------------------------------------------------
// chaos
// -------------------------------------------------------------------------

struct TierRun {
    SessionStats stats;
    int lost = 0;
    bool identical_ok = true;
    double p99_ms = 0.0;
};

TierRun run_tier(const SaloConfig& config, const MixedStream& stream, bool chaos,
                 std::uint64_t seed) {
    constexpr int kShards = 4;
    ShardedSessionOptions options;
    options.num_shards = kShards;
    options.retry.max_attempts = 4;
    options.retry.jitter_seed = seed;
    options.stall_timeout = std::chrono::milliseconds(250);
    options.health.window = 8;
    options.health.min_samples = 4;
    options.health.failure_threshold = 0.5;
    options.health.cooldown = std::chrono::milliseconds(25);
    options.health.reintegrate_after = 2;

    // One seeded shard faults ~5% of its tile indices for its first 20
    // faults, then heals: long enough to trip its breaker, short enough that
    // half-open probes find it clean and reintegrate it mid-run.
    int bad_shard = -1;
    if (chaos) {
        Rng pick(seed ^ 0xC4A05EEDull);
        bad_shard = static_cast<int>(pick.uniform_index(kShards));
        FaultInjector::Config fc;
        fc.seed = seed;
        fc.tile_fault_rate = 0.05;
        fc.max_faults = 20;
        options.shard_fault_injectors.assign(kShards, nullptr);
        options.shard_fault_injectors[static_cast<std::size_t>(bad_shard)] =
            std::make_shared<FaultInjector>(fc);
    }
    ShardedSession tier(config, options);

    // The stall phase is offset by one so it never lands on the fault phase
    // mod 10, and both kinds of chaos occur.
    const std::size_t n = stream.qkv.size();
    const std::size_t fault_phase = seed % 10, stall_phase = (seed + 1) % 20;
    std::vector<std::future<LayerResult>> futures;
    std::vector<Clock::time_point> submit_at;
    for (std::size_t i = 0; i < n; ++i) {
        AttentionRequest r = stream.request(i);
        if (chaos) {
            FaultInjector::Config fc;
            if (i % 10 == fault_phase) {
                fc.fault_tiles = {0};
                fc.max_faults = 1;
                r.fault_injector = std::make_shared<FaultInjector>(fc);
            } else if (i % 20 == stall_phase) {
                fc.stall_tiles = {0};
                fc.stall_for = std::chrono::milliseconds(5);
                fc.max_stalls = 1;
                r.fault_injector = std::make_shared<FaultInjector>(fc);
            }
        }
        submit_at.push_back(Clock::now());
        futures.push_back(tier.submit(std::move(r)));
    }
    const std::vector<double> latency_ms = await_ready(futures, submit_at);

    TierRun out;
    out.lost = count_lost(latency_ms);
    std::vector<double> completed_ms;
    for (std::size_t i = 0; i < n; ++i) {
        if (latency_ms[i] < 0.0) continue;
        try {
            if (!identical(stream.expected[i], futures[i].get())) out.identical_ok = false;
            completed_ms.push_back(latency_ms[i]);
        } catch (const SaloError&) {
            // Failed, timed out, cancelled or rejected: the tier's own
            // counters classify it.
        }
    }
    tier.close();
    out.stats = tier.stats();
    out.p99_ms = percentile(completed_ms, 0.99);
    const std::string label =
        chaos ? "chaos tier, bad shard " + std::to_string(bad_shard) : "healthy tier";
    std::printf("%s: completed %llu/%llu, failed %llu, retried %llu, failed over %llu, "
                "quarantined %llu, reintegrated %llu, p99 %.1f ms\n",
                label.c_str(),
                static_cast<unsigned long long>(out.stats.completed),
                static_cast<unsigned long long>(out.stats.submitted),
                static_cast<unsigned long long>(out.stats.failed),
                static_cast<unsigned long long>(out.stats.retried),
                static_cast<unsigned long long>(out.stats.failed_over),
                static_cast<unsigned long long>(out.stats.quarantined_shard_events),
                static_cast<unsigned long long>(out.stats.reintegrated_shard_events),
                out.p99_ms);
    return out;
}

bool tier_gates(const TierRun& run) {
    bool ok = gate("zero lost futures", run.lost == 0);
    ok = gate("conservation law", run.stats.accounted() == run.stats.submitted) && ok;
    return gate("completed results bit-identical to sequential", run.identical_ok) && ok;
}

int run_chaos(std::uint64_t seed) {
    const SaloConfig config;
    const MixedStream stream = make_stream(config);
    const TierRun healthy = run_tier(config, stream, /*chaos=*/false, seed);
    bool ok = tier_gates(healthy);
    const TierRun chaos = run_tier(config, stream, /*chaos=*/true, seed);
    ok = tier_gates(chaos) && ok;
    ok = gate("retry exercised (retried >= 1)", chaos.stats.retried >= 1) && ok;
    // The floor keeps a sub-millisecond healthy tier from turning
    // scheduling noise into a failure.
    const double ratio = chaos.p99_ms / std::max(healthy.p99_ms, 10.0);
    std::printf("chaos p99 / healthy p99 (floored at 10 ms): %.2fx\n", ratio);
    return gate("chaos p99 < 3x healthy p99", ratio < 3.0) && ok ? 0 : 1;
}

// -------------------------------------------------------------------------
// noisy
// -------------------------------------------------------------------------

/// Well-behaved tenants send the large vision shape, the aggressor the
/// small one. Inputs come from small per-role pools, so the sequential
/// baseline stays cheap while every request is still checked.
struct TenantMix {
    AttentionWorkload wb_shape = vil_grid(28, 9, "ViL-28x28");
    AttentionWorkload ag_shape = vil_grid(14, 7, "ViL-14x14");
    std::vector<QkvSet> wb_qkv, ag_qkv;
    std::vector<LayerResult> wb_expected, ag_expected;
    double wb_service_ms = 1.0;  ///< measured sequential service time
};

TenantMix make_tenant_mix(const SaloConfig& config, std::uint64_t seed) {
    constexpr int kPool = 3;
    TenantMix mix;
    const SaloEngine sequential(config);
    for (std::uint64_t i = 0; i < kPool; ++i) {
        mix.wb_qkv.push_back(make_qkv(mix.wb_shape, seed + 100 + i));
        mix.ag_qkv.push_back(make_qkv(mix.ag_shape, seed + 200 + i));
    }
    auto run = [&](const AttentionWorkload& w, const QkvSet& x) {
        return sequential.run(*sequential.compile(w.pattern, w.head_dim), x.q, x.k, x.v,
                              w.scale());
    };
    const auto t0 = Clock::now();
    for (const QkvSet& x : mix.wb_qkv) mix.wb_expected.push_back(run(mix.wb_shape, x));
    mix.wb_service_ms = std::max(ms_between(t0, Clock::now()) / kPool, 0.2);
    for (const QkvSet& x : mix.ag_qkv) mix.ag_expected.push_back(run(mix.ag_shape, x));
    return mix;
}

struct TenantRun {
    std::vector<double> wb_p99_ms;
    std::uint64_t wb_rejected = 0, aggressor_rejected = 0;
    int lost = 0;
    bool identical_ok = true;
    bool conserved = true;
};

/// `wb_tenants` tenants each send `per_wb` requests paced one per
/// `interval_ms` (starts staggered across the interval); with `noisy` the
/// aggressor floods 10x a tenant's count without pacing.
TenantRun run_tenants(const SaloConfig& config, const TenantMix& mix, int wb_tenants,
                      bool noisy, int per_wb, double interval_ms, std::uint64_t seed) {
    ShardedSessionOptions options;
    // One shard and one router lane: the isolation signal is the
    // scheduler's pick order, which more lanes would let the OS blur.
    options.num_shards = 1;
    options.router_workers = 1;
    options.retry.max_attempts = 2;
    options.retry.jitter_seed = seed;
    if (noisy) {
        TenantQuota quota;
        quota.weight = 1.0;
        quota.admission.mode = AdmissionMode::reject_fast;
        quota.admission.max_queue = 4;
        options.fairness.tenants["aggressor"] = quota;
    }
    ShardedSession tier(config, options);

    const int wb_total = wb_tenants * per_wb;
    const int total = wb_total + (noisy ? 10 * per_wb : 0);
    std::vector<std::future<LayerResult>> futures(static_cast<std::size_t>(total));
    std::vector<Clock::time_point> submit_at(static_cast<std::size_t>(total));
    std::vector<const LayerResult*> expect_of(static_cast<std::size_t>(total), nullptr);

    // Each sender owns a disjoint slot range; the joins publish its writes.
    auto submit = [&](int slot, const LayerResult& expected, AttentionRequest r) {
        const auto idx = static_cast<std::size_t>(slot);
        expect_of[idx] = &expected;
        submit_at[idx] = Clock::now();
        futures[idx] = tier.submit(std::move(r));
    };
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> senders;
    for (int t = 0; t < wb_tenants; ++t) {
        senders.emplace_back([&, t] {
            const double stagger = interval_ms * t / wb_tenants;
            for (int j = 0; j < per_wb; ++j) {
                std::this_thread::sleep_until(
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    stagger + interval_ms * j)));
                const std::size_t pool = static_cast<std::size_t>(t + j) % mix.wb_qkv.size();
                const QkvSet& x = mix.wb_qkv[pool];
                AttentionRequest r = make_request(mix.wb_shape.pattern, x.q, x.k, x.v,
                                                  mix.wb_shape.scale());
                r.tenant_id = "wb-" + std::to_string(t);
                submit(t * per_wb + j, mix.wb_expected[pool], std::move(r));
            }
        });
    }
    if (noisy) {
        senders.emplace_back([&] {
            std::this_thread::sleep_until(start);
            for (int j = wb_total; j < total; ++j) {
                const std::size_t pool = static_cast<std::size_t>(j - wb_total) %
                                         mix.ag_qkv.size();
                const QkvSet& x = mix.ag_qkv[pool];
                AttentionRequest r = make_request(mix.ag_shape.pattern, x.q, x.k, x.v,
                                                  mix.ag_shape.scale());
                r.tenant_id = "aggressor";
                r.priority = Priority::batch;
                submit(j, mix.ag_expected[pool], std::move(r));
            }
        });
    }
    for (auto& s : senders) s.join();
    const std::vector<double> latency_ms = await_ready(futures, submit_at);

    TenantRun out;
    out.lost = count_lost(latency_ms);
    std::vector<std::vector<double>> wb_ms(static_cast<std::size_t>(wb_tenants));
    for (int i = 0; i < total; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        if (latency_ms[idx] < 0.0) continue;
        const bool is_wb = i < wb_total;
        try {
            if (!identical(*expect_of[idx], futures[idx].get())) out.identical_ok = false;
            if (is_wb) wb_ms[static_cast<std::size_t>(i / per_wb)].push_back(latency_ms[idx]);
        } catch (const QueueFull&) {
            ++(is_wb ? out.wb_rejected : out.aggressor_rejected);
        } catch (const std::exception&) {
            // Any other failure: counted by the conservation gate.
        }
    }
    for (const auto& ms : wb_ms) out.wb_p99_ms.push_back(percentile(ms, 0.99));
    tier.close();
    out.conserved = conserved(tier.stats(), tier.tenant_stats(), /*decode=*/false);

    const SessionStats st = tier.stats();
    std::printf("%d well-behaved tenant%s%s: completed %llu/%llu, well-behaved rejected "
                "%llu, aggressor rejected %llu, worst well-behaved p99 %.1f ms\n",
                wb_tenants, wb_tenants == 1 ? "" : "s", noisy ? " + aggressor" : "",
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.submitted),
                static_cast<unsigned long long>(out.wb_rejected),
                static_cast<unsigned long long>(out.aggressor_rejected),
                *std::max_element(out.wb_p99_ms.begin(), out.wb_p99_ms.end()));
    return out;
}

bool tenant_gates(const TenantRun& run) {
    bool ok = gate("zero lost futures", run.lost == 0);
    ok = gate("(b) well-behaved tenants never shed", run.wb_rejected == 0) && ok;
    ok = gate("(c) conservation per tenant and globally", run.conserved) && ok;
    return gate("(d) completed results bit-identical", run.identical_ok) && ok;
}

/// The 16-request mix through a SaloSession, burst-submitted with patterns
/// so every request resolves through the plan cache.
bool session_identical(const SaloConfig& config) {
    const MixedStream stream = make_stream(config);
    SaloSession session(config);
    std::vector<std::future<LayerResult>> futures;
    std::vector<Clock::time_point> submit_at;
    for (std::size_t i = 0; i < stream.qkv.size(); ++i) {
        submit_at.push_back(Clock::now());
        futures.push_back(session.submit(stream.request(i)));
    }
    const std::vector<double> latency_ms = await_ready(futures, submit_at);
    bool ok = count_lost(latency_ms) == 0;
    for (std::size_t i = 0; ok && i < futures.size(); ++i)
        ok = identical(stream.expected[i], futures[i].get());
    session.close();
    return ok;
}

int run_noisy(std::uint64_t seed) {
    constexpr int kTenants = 4, kPerTenant = 6;
    const SaloConfig config;
    bool ok = gate("16-request session bit-identical to sequential",
                   session_identical(config));

    const TenantMix mix = make_tenant_mix(config, seed);
    // The interval keeps the combined well-behaved load near half of the one
    // lane's capacity, so the gate measures isolation rather than overload.
    const double interval_ms =
        std::max(2.0 * kTenants * mix.wb_service_ms, 2.0 * kTenants);
    const TenantRun solo =
        run_tenants(config, mix, 1, /*noisy=*/false, kPerTenant, interval_ms, seed);
    ok = tenant_gates(solo) && ok;
    const TenantRun contested =
        run_tenants(config, mix, kTenants, /*noisy=*/true, kPerTenant, interval_ms, seed);
    ok = tenant_gates(contested) && ok;
    ok = gate("(b) aggressor shed against its own quota",
              contested.aggressor_rejected >= 1) && ok;
    // The floor keeps a sub-millisecond solo run from turning scheduling
    // noise into a failure.
    const double floor_p99 = std::max(solo.wb_p99_ms[0], 10.0);
    double worst = 0.0;
    for (double p99 : contested.wb_p99_ms) worst = std::max(worst, p99 / floor_p99);
    std::printf("worst well-behaved p99 / solo p99 (floored at 10 ms): %.2fx\n", worst);
    return gate("(a) every well-behaved p99 < 2x solo p99", worst < 2.0) && ok ? 0 : 1;
}

// -------------------------------------------------------------------------
// decode
// -------------------------------------------------------------------------

struct DecodeShape {
    std::vector<Band> bands = {Band{-63, 64, 1, 0}};
    std::vector<int> globals = {0, 1};
    int heads = 2;
    int head_dim = 32;
    float scale = 0.176777f;  // ~ 1/sqrt(32)

    HybridPattern pattern(int steps) const {
        std::vector<int> g;
        for (int x : globals)
            if (x < steps) g.push_back(x);
        return HybridPattern(steps, bands, g);
    }
};

/// Position t's row of every head.
Matrix<float> row_of(const Tensor3<float>& all, int t) {
    Matrix<float> row(all.count(), all[0].cols(), 0.0f);
    for (int h = 0; h < row.rows(); ++h)
        for (int x = 0; x < row.cols(); ++x) row(h, x) = all[h](t, x);
    return row;
}

/// One input class and its reference chain: expected[t] is row t of the
/// full encode of the length-(t+1) prefix. That is the only valid
/// reference, because a global row attends later keys, so row t of a
/// longer encode differs.
struct InputClass {
    Tensor3<float> q, k, v;  // [heads][steps][d]
    std::vector<Matrix<float>> expected;
};

InputClass make_class(const SaloEngine& engine, const DecodeShape& shape, int steps,
                      std::uint64_t seed) {
    Rng rng(seed);
    InputClass c;
    c.q = random_tensor3(shape.heads, steps, shape.head_dim, rng);
    c.k = random_tensor3(shape.heads, steps, shape.head_dim, rng);
    c.v = random_tensor3(shape.heads, steps, shape.head_dim, rng);
    for (int t = 0; t < steps; ++t) {
        auto prefix = [&](const Tensor3<float>& all) {
            Tensor3<float> p(shape.heads, t + 1, shape.head_dim);
            for (int h = 0; h < shape.heads; ++h)
                for (int r = 0; r <= t; ++r)
                    for (int x = 0; x < shape.head_dim; ++x) p[h](r, x) = all[h](r, x);
            return p;
        };
        const LayerResult full =
            engine.run(*engine.compile(shape.pattern(t + 1), shape.head_dim), prefix(c.q),
                       prefix(c.k), prefix(c.v), shape.scale);
        c.expected.push_back(row_of(full.output, t));
    }
    return c;
}

int run_decode(std::uint64_t seed) {
    constexpr int kStreams = 64, kMaxSteps = 8;
    const DecodeShape shape;
    SaloConfig config;
    config.plan_cache_capacity = 4 * kMaxSteps;  // full + micro plan per position

    const SaloEngine ref(config);
    std::vector<InputClass> classes;
    for (std::uint64_t c = 0; c < kStreams; ++c)
        classes.push_back(make_class(ref, shape, kMaxSteps, seed * 1000 + c));

    DecodeSessionOptions options;
    options.num_shards = 2;
    // Micro-plans have only a couple of tiles, so a seeded per-tile rate
    // either always fires or never does. The deterministic triggers are
    // used instead: the first 6 shard-0 head-runs fault (evicting their
    // streams), and early runs stall briefly for timing jitter.
    FaultInjector::Config chaos;
    chaos.seed = seed;
    chaos.fault_tiles = {0};
    chaos.max_faults = 6;
    chaos.stall_tiles = {1};
    chaos.stall_for = std::chrono::microseconds(200);
    chaos.max_stalls = 32;
    options.shard_fault_injectors = {std::make_shared<FaultInjector>(chaos), nullptr};
    // Quarantine aggressively so shard refusal is exercised too.
    options.health.window = 16;
    options.health.min_samples = 4;
    options.health.failure_threshold = 0.5;
    options.health.cooldown = std::chrono::milliseconds(20);
    DecodeSession session(config, options);

    const char* tenants[] = {"ant", "bee", "cricket", "dragonfly"};
    std::vector<StreamId> ids;
    std::vector<int> stream_steps;
    for (int i = 0; i < kStreams; ++i) {
        stream_steps.push_back(4 + (i * 7) % (kMaxSteps - 3));
        ids.push_back(session.open_stream(shape.pattern(stream_steps.back()), shape.heads,
                                          shape.head_dim, shape.scale, tenants[i % 4]));
    }

    // A step future still unready when the budget expires is lost.
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(120);
    std::uint64_t submitted = 0, resolved = 0, completed = 0;
    bool typed_only = true, identical_ok = true;
    for (int t = 0; t < kMaxSteps; ++t) {
        std::vector<std::future<StepResult>> futures;
        std::vector<const InputClass*> class_of;
        for (int i = 0; i < kStreams; ++i) {
            if (t >= stream_steps[static_cast<std::size_t>(i)]) continue;
            const InputClass& cls = classes[static_cast<std::size_t>(i)];
            StepRequest req;
            req.q_row = row_of(cls.q, t);
            req.k_row = row_of(cls.k, t);
            req.v_row = row_of(cls.v, t);
            futures.push_back(session.step(ids[static_cast<std::size_t>(i)], std::move(req)));
            class_of.push_back(&cls);
            ++submitted;
        }
        for (std::size_t f = 0; f < futures.size(); ++f) {
            if (futures[f].wait_until(deadline) != std::future_status::ready) continue;
            ++resolved;
            try {
                const StepResult step = futures[f].get();
                ++completed;
                if (row_of(step.output, 0) !=
                    class_of[f]->expected[static_cast<std::size_t>(t)])
                    identical_ok = false;
            } catch (const SaloError&) {
                // A typed failure is the contract under chaos.
            } catch (...) {
                typed_only = false;
            }
        }
    }
    session.close();

    const SessionStats st = session.stats();
    std::printf("decode: %d streams of 4..%d steps, 2 shards, chaos on shard 0: "
                "submitted %llu, completed %llu, failed %llu, evicted streams %llu\n",
                kStreams, kMaxSteps, static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.evicted_streams));
    bool ok = gate("no lost futures", resolved == submitted);
    ok = gate("typed SaloErrors only", typed_only) && ok;
    ok = gate("completed steps bit-identical to prefix encodes", identical_ok) && ok;
    ok = gate("steps == submitted, conserved globally and per tenant",
              st.submitted == submitted &&
                  conserved(st, session.tenant_stats(), /*decode=*/true)) && ok;
    return gate("chaos evicted a stream", st.evicted_streams >= 1 && st.failed >= 1) && ok
               ? 0
               : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const std::map<std::string, int (*)(std::uint64_t)> soaks = {
        {"chaos", run_chaos}, {"noisy", run_noisy}, {"decode", run_decode}};
    if (argc != 4 || soaks.count(argv[1]) == 0 || std::strcmp(argv[2], "--seed") != 0) {
        std::fputs("usage: soak <chaos|noisy|decode> --seed S\n", stderr);
        return 2;
    }
    const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
    std::printf("soak %s, seed %llu\n", argv[1], static_cast<unsigned long long>(seed));
    return soaks.at(argv[1])(seed);
}
