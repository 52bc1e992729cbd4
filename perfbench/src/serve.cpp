// serve-mixed-open: an open loop feeding a 2-shard ShardedSession with two
// tenants weighted 2:1 and an interactive/batch mix. Requests are small,
// so queue wait, admission, DWRR, routing and plan-cache lookup are a
// visible share of latency, and the distinct-length tail keeps the
// cache-miss -> scheduler -> insert path in the mix beside the hit path.
//
// Latency runs from each request's due time (not its submit time, so a
// stalled generator is charged to the requests it delayed) to the moment a
// poller thread sees its future ready.
#include <sys/prctl.h>

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common.hpp"
#include "serve_mix.hpp"

namespace perfbench {

namespace {

using namespace salo;

/// Fixed arrival rate: about a quarter of what 2 shards x 2 lanes sustain
/// on the mix (380-420 req/s on a 4-vCPU x86-64 VM with AVX-512BW
/// kernels). At half, a spell of the shared host running at half speed
/// pushed the tier to saturation and the run's latency up fivefold.
constexpr double kRatePerS = 100.0;
/// Goodput latency limit (from the due time).
constexpr double kLatencyLimitMs = 100.0;
/// Modeled cycles of one request of each main shape, summed; cycle
/// accounting depends only on the schedule, so this holds for every seed.
constexpr std::int64_t kMixCycles = 183222;
/// Requests due in the first kWarmupS seconds are served and checked but
/// left out of every latency and goodput figure: on a fresh VM the first
/// seconds of traffic first-touch heap memory, and a page-fault stall
/// there could snowball into a backlog that says nothing about the tier.
constexpr double kWarmupS = 2.0;
/// The tail is the median over the run's windows of this many seconds (by
/// due time) of each window's p99. Runs on a shared host see spells of a
/// few seconds in which the whole VM slows; one whole-run p99 takes the
/// worst spell's latencies as its tail, the median over windows does not.
/// Twelve 30 s runs on a 4-vCPU VM spread 0.116 (IQR/median) on the
/// whole-run p99 and 0.084 on this one.
constexpr double kTailWindowS = 2.0;

/// One reference result per distinct (shape, input) pair.
struct Reference {
    std::uint64_t digest = 0;
    double service_ms = 0.0;  ///< standalone run at thread budget 1
    std::int64_t cycles = 0;
};

std::int64_t reference_key(const Arrival& a) {
    return (static_cast<std::int64_t>(a.kind) << 40) |
           (static_cast<std::int64_t>(a.n) << 8) | a.input_class;
}

enum class Outcome { pending, ok, wrong, error };

struct Slot {
    Clock::time_point due;
    Clock::time_point ready;
    std::future<LayerResult> future;
    Outcome outcome = Outcome::pending;
};

/// Hand-off of slot indices from one bench thread to the next.
class Inbox {
public:
    void push(const std::vector<std::size_t>& items) {
        {
            const std::lock_guard<std::mutex> lock(m_);
            items_.insert(items_.end(), items.begin(), items.end());
        }
        cv_.notify_one();
    }
    void close() {
        {
            const std::lock_guard<std::mutex> lock(m_);
            closed_ = true;
        }
        cv_.notify_one();
    }
    /// Append everything queued to `out`; with `block`, first wait for an
    /// item or close(). False once closed and nothing was left to move.
    bool take(std::vector<std::size_t>& out, bool block) {
        std::unique_lock<std::mutex> lock(m_);
        if (block) cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
        const bool moved = !items_.empty();
        out.insert(out.end(), items_.begin(), items_.end());
        items_.clear();
        return moved || !closed_;
    }

private:
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<std::size_t> items_;  // guarded by m_
    bool closed_ = false;             // guarded by m_
};

}  // namespace

RunResult run_serve(const WorkloadArgs& args) {
    RunResult out;
    Tracer tracer(args.trace);
    const int lanes = bench_lanes();
    const int shards = std::min(2, lanes);
    SaloConfig config;
    config.num_threads = std::max(1, lanes / shards);

    ShardedSessionOptions options;
    options.num_shards = shards;
    options.admission.mode = AdmissionMode::reject_fast;
    options.admission.max_queue = 512;
    TenantQuota gold, silver;
    gold.weight = 2.0;
    silver.weight = 1.0;
    gold.admission.mode = silver.admission.mode = AdmissionMode::reject_fast;
    gold.admission.max_queue = silver.admission.max_queue = 256;
    options.fairness.tenants[tenant_name(0)] = gold;
    options.fairness.tenants[tenant_name(1)] = silver;

    // Set-up: inputs, schedule, a fresh tier with the main shapes compiled
    // on every shard, and a warm-up burst of every main (shape, input) pair
    // four times over. The burst grows the allocator's heaps to what a
    // short backlog needs; without it the first seconds of the open loop
    // page-fault fresh heap memory, which can snowball into a backlog that
    // says nothing about the tier.
    ServeInputs inputs;
    std::vector<Arrival> schedule;
    std::unique_ptr<ShardedSession> tier;
    const double setup_s = median_setup_s([&] {
        tier.reset();
        inputs = make_inputs(args.seed);
        schedule = make_schedule(args.seed, kRatePerS, kWarmupS + args.seconds);
        tier = std::make_unique<ShardedSession>(config, options);
        std::vector<std::future<LayerResult>> warm;
        for (int kind = 0; kind < kMainKinds; ++kind) {
            Arrival a;
            a.kind = kind;
            a.n = pattern_of(a).n();
            for (int s = 0; s < shards; ++s)
                (void)tier->shard_engine(s).compile(pattern_of(a), kHeadDim);
            for (int rep = 0; rep < 4; ++rep)
                for (a.input_class = 0; a.input_class < kInputClasses; ++a.input_class)
                    warm.push_back(tier->submit(build_request(a, inputs)));
        }
        for (auto& f : warm) f.get();
    });
    tier->drain();  // the books settle after the futures resolve
    const SessionStats base = tier->stats();
    const std::map<std::string, TenantStats> tenant_base = tier->tenant_stats();

    // References: every distinct (shape, input) pair run standalone through
    // the one-shot sequential engine. Their times are the service times.
    SaloConfig ref_config = config;
    ref_config.num_threads = 1;
    const SaloEngine ref(ref_config);
    std::map<std::int64_t, Reference> refs;
    std::int64_t mix_cycles = 0;
    for (const Arrival& a : schedule) {
        const std::int64_t key = reference_key(a);
        if (refs.count(key) != 0) continue;
        const AttentionRequest r = build_request(a, inputs);
        Reference entry;
        std::vector<double> times;
        for (int rep = 0; rep < (a.kind == kTail ? 1 : 3); ++rep) {
            const Clock::time_point t0 = Clock::now();
            const LayerResult result = ref.run(*r.pattern, r.q, r.k, r.v, r.scale);
            times.push_back(ms_between(t0, Clock::now()));
            entry.digest = result_digest(result.output, result.stats.cycles);
            entry.cycles = result.stats.cycles;
        }
        entry.service_ms = percentile(times, 0.5);
        if (a.kind != kTail && a.input_class == 0) mix_cycles += entry.cycles;
        refs.emplace(key, entry);
    }

    // Timed open loop. This thread generates. A poller thread sweeps the
    // in-flight futures every ~10 us (a thread that sleeps 10 us at a time
    // keeps its claim on a CPU); the gaps between sweeps are the stamp
    // resolution. A checker thread takes the stamped futures, compares each
    // result with its reference and frees it.
    const std::size_t total = schedule.size();
    std::vector<Slot> slots(total);
    Inbox to_poller, to_checker;
    std::vector<double> gen_lag_ms(total, 0.0);

    ReadyStamper stamper;  // used by the poller thread only
    std::thread poller([&] {
        prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 us sleeps, not 50 us
        std::vector<std::size_t> arrived, ready;
        bool open = true;
        while (open || !stamper.idle()) {
            open = to_poller.take(arrived, false) && open;
            for (std::size_t i : arrived) stamper.watch(i);
            arrived.clear();
            stamper.sweep([&](std::size_t i) { return is_ready(slots[i].future); },
                          [&](std::size_t i, Clock::time_point stamp) {
                              slots[i].ready = stamp;
                              if (args.trace && i % 2 == 1)
                                  tracer.record("serve.request", slots[i].due, stamp,
                                                static_cast<std::int64_t>(i));
                              ready.push_back(i);
                          });
            if (!ready.empty()) to_checker.push(ready);
            ready.clear();
            std::this_thread::sleep_for(std::chrono::microseconds(10));
        }
        to_checker.close();
    });

    std::thread checker([&] {
        std::vector<std::size_t> batch;
        while (to_checker.take(batch, true)) {
            for (std::size_t i : batch) {
                Slot& s = slots[i];
                try {
                    const LayerResult r = s.future.get();
                    const Reference& expect = refs.at(reference_key(schedule[i]));
                    s.outcome = result_digest(r.output, r.stats.cycles) == expect.digest
                                    ? Outcome::ok
                                    : Outcome::wrong;
                } catch (const std::exception&) {
                    s.outcome = Outcome::error;
                }
            }
            batch.clear();
        }
    });

    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // wake at the due time, not 50 us late
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    const Clock::time_point measured_from =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(kWarmupS));
    {
        bool warm = true;
        AttentionRequest next = build_request(schedule.front(), inputs);
        for (std::size_t i = 0; i < total; ++i) {
            Slot& s = slots[i];
            s.due = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(schedule[i].due_ms));
            std::this_thread::sleep_until(s.due);
            if (warm && s.due >= measured_from) {
                reset_peak_rss();
                warm = false;
            }
            const Clock::time_point submit = Clock::now();
            s.future = tier->submit(std::move(next));
            if (args.trace && i % 2 == 1)
                tracer.record("serve.submit", submit, Clock::now(), static_cast<std::int64_t>(i));
            gen_lag_ms[i] = ms_between(s.due, submit);
            to_poller.push({i});
            // Build the next request while waiting for its due time.
            if (i + 1 < total) next = build_request(schedule[i + 1], inputs);
        }
    }
    to_poller.close();
    poller.join();
    checker.join();
    tier->drain();

    // Tally.
    std::vector<double> latency, goodput_latency, traced_ms, untraced_ms, service, wait;
    std::vector<std::pair<double, double>> latency_at;  // (due offset in s, ms)
    std::array<std::vector<double>, kTenants> tenant_latency;
    Clock::time_point last_ready = measured_from;
    std::uint64_t wrong = 0, errors = 0;
    double gen_lag_max_ms = 0.0;
    for (std::size_t i = 0; i < total; ++i) {
        const Slot& s = slots[i];
        ++out.attempted;
        const bool measured = s.due >= measured_from;
        if (s.outcome != Outcome::ok) {
            (s.outcome == Outcome::wrong ? wrong : errors) += 1;
            if (measured) goodput_latency.push_back(-1.0);
            continue;
        }
        if (!measured) continue;
        gen_lag_max_ms = std::max(gen_lag_max_ms, gen_lag_ms[i]);
        const double ms = ms_between(s.due, s.ready);
        const double service_ms = refs.at(reference_key(schedule[i])).service_ms;
        latency.push_back(ms);
        latency_at.emplace_back(ms_between(measured_from, s.due) / 1000.0, ms);
        goodput_latency.push_back(ms);
        (i % 2 == 1 ? traced_ms : untraced_ms).push_back(ms);
        tenant_latency[static_cast<std::size_t>(schedule[i].tenant)].push_back(ms);
        service.push_back(service_ms);
        wait.push_back(ms - service_ms);
        last_ready = std::max(last_ready, s.ready);
    }
    out.failed = wrong + errors;

    // The tier's own books must balance over the timed requests, globally
    // and per tenant.
    const SessionStats st = tier->stats();
    const std::uint64_t submitted = st.submitted - base.submitted;
    const std::uint64_t accounted = st.accounted() - base.accounted();
    if (wrong != 0 || submitted != total || accounted != total ||
        st.completed - base.completed != total - errors || mix_cycles != kMixCycles)
        out.correct = false;
    for (const auto& [name, ts] : tier->tenant_stats()) {
        const auto it = tenant_base.find(name);
        const TenantStats before = it == tenant_base.end() ? TenantStats{} : it->second;
        if (ts.accounted() - before.accounted() != ts.submitted - before.submitted)
            out.correct = false;
    }

    const double span_s = ms_between(measured_from, last_ready) / 1000.0;
    const double p50 = percentile(latency, 0.5);
    out.end_to_end["setup_s"] = {setup_s, "s"};
    out.end_to_end["latency_ms_p50"] = {p50, "ms"};
    const int tail_windows = std::max(1, static_cast<int>(args.seconds / kTailWindowS));
    out.end_to_end["latency_ms_tail"] = {
        windowed_percentile(latency_at, args.seconds, tail_windows, 0.99), "ms"};
    out.end_to_end["throughput_per_s"] = {
        goodput_per_s(goodput_latency, kLatencyLimitMs, span_s), "1/s"};
    out.end_to_end["sim_cycles"] = {static_cast<double>(mix_cycles), "cycles"};
    out.aliases = {{"latency_ms_p99", "latency_ms_tail"}, {"goodput_rps", "throughput_per_s"}};
    out.notes["latency_unit"] = "one request, due time -> future ready, open loop at " +
                                std::to_string(static_cast<int>(kRatePerS)) + " req/s";
    out.notes["throughput_is"] = "goodput: requests within " +
                                 std::to_string(static_cast<int>(kLatencyLimitMs)) +
                                 " ms per second";
    out.notes["tail_percentile"] = "p99 in each of " + std::to_string(tail_windows) +
                                   " windows of due times, median over them";
    out.notes["samples"] = std::to_string(latency.size());
    out.notes["latency_ms_p99_whole_run"] = std::to_string(percentile(latency, 0.99));
    out.notes["samples_beyond_p99_whole_run"] = std::to_string(samples_beyond(latency, 0.99));
    out.notes["engine_lanes"] = std::to_string(shards) + " shards x " +
                                std::to_string(config.num_threads) + " lanes";
    out.notes["stamp_resolution_us_max"] = std::to_string(percentile(stamper.gaps_us(), 1.0));

    out.per_layer["engine.lanes"] = {static_cast<double>(shards * config.num_threads), "count"};
    add_plan_cache_metrics(out, base.plan_cache, st.plan_cache);
    out.per_layer["serve.service_ms_p50"] = {percentile(service, 0.5), "ms"};
    out.per_layer["serve.wait_ms_p50"] = {percentile(wait, 0.5), "ms"};
    out.per_layer["serve.wait_ms_p99"] = {percentile(wait, 0.99), "ms"};
    for (int t = 0; t < kTenants; ++t)
        out.per_layer[std::string("tenant.") + tenant_name(t) + ".latency_ms_p99"] = {
            percentile(tenant_latency[static_cast<std::size_t>(t)], 0.99), "ms"};
    out.per_layer["serve.retried"] = {static_cast<double>(st.retried - base.retried), "count"};
    out.per_layer["serve.rejected"] = {static_cast<double>(st.rejected - base.rejected),
                                       "count"};
    out.per_layer["serve.gen_lag_ms_max"] = {gen_lag_max_ms, "ms"};
    out.per_layer["serve.stamp_resolution_us"] = {percentile(stamper.gaps_us(), 0.99), "us"};

    if (args.trace) {
        out.per_layer["trace.overhead_share"] = {
            percentile(traced_ms, 0.5) / percentile(untraced_ms, 0.5) - 1.0, "share"};
        // Scheduler cost of every distinct shape the run compiled (warm-up
        // included: its misses are part of plan_cache.misses too).
        double compile_ms = 0.0, tiles = 0.0;
        std::set<std::pair<int, int>> seen;
        for (const Arrival& a : schedule) {
            if (!seen.emplace(a.kind, a.n).second) continue;
            const HybridPattern pattern = pattern_of(a);
            const Clock::time_point c0 = Clock::now();
            const CompiledPlanPtr plan = compile_shared(pattern, kHeadDim, config);
            compile_ms += ms_between(c0, Clock::now());
            tiles += plan->schedule_stats().total_tiles();
        }
        out.per_layer["scheduler.compile_ms"] = {compile_ms, "ms"};
        out.per_layer["scheduler.tiles"] = {tiles, "count"};
        // A hit in a shard's plan cache, the lookup the router makes for
        // every main-shape request.
        std::vector<double> lookup_us;
        const HybridPattern hot = pattern_of(Arrival{});
        for (int i = 0; i < 201; ++i) {
            const Clock::time_point a = Clock::now();
            (void)tier->shard_engine(0).compile(hot, kHeadDim);
            lookup_us.push_back(us_between(a, Clock::now()));
        }
        out.per_layer["plan_cache.lookup_us"] = {percentile(lookup_us, 0.5), "us"};
        if (!tracer.write(args.out_dir + "/trace-serve-mixed-open-seed" +
                          std::to_string(args.seed) + ".json"))
            out.notes["trace_file"] = "not written";
    }
    tier->close();
    out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return out;
}

}  // namespace perfbench
