// Shared pieces of the repository benchmark: clocks, order statistics,
// the in-memory span tracer, the host fingerprint and the result record.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/salo.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Percentile `q` in [0, 1] of `v` by linear interpolation between closest
/// ranks (the same rule as numpy's default and Python's
/// statistics.quantiles(method="inclusive")). Empty input gives 0.
double percentile(std::vector<double> v, double q);

/// Samples strictly above the percentile-`q` value: how well a tail
/// percentile is supported (printed beside every tail; each workload's
/// tail percentile is chosen so this is at least 10).
std::size_t samples_beyond(const std::vector<double>& v, double q);

/// Median over `windows` equal slices of [0, span) of each slice's
/// percentile-`q` value. `samples` are (offset, value) pairs; a sample
/// whose offset lies outside [0, span) is left out, and so is a slice that
/// holds no sample. A slow spell of a shared host raises the tail of the
/// slices it falls in, not the median over the slices. Empty input gives 0.
double windowed_percentile(const std::vector<std::pair<double, double>>& samples,
                           double span, int windows, double q);

/// Operations per second that completed correctly within `limit_ms`. A
/// failed operation is passed as a negative latency and never counts.
double goodput_per_s(const std::vector<double>& latency_ms, double limit_ms,
                     double span_s);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Restart the VmHWM peak from the current RSS, so peak_rss_mb() covers
/// only what follows (the timed region, not set-up's transients).
void reset_peak_rss();

/// 64-bit digest of a layer or step result: every output float bit plus
/// the modeled cycle count, so two results hash equal iff they are
/// bit-identical (up to 64-bit collisions).
std::uint64_t result_digest(const salo::Tensor3<float>& output, std::int64_t cycles);

/// Engine lanes the benchmark may use: never more than the host has
/// hardware threads, and at most 4.
int bench_lanes();

/// Readiness stamps by polling. The caller sweeps the futures it still
/// waits for whenever it has nothing else to do; each one is stamped with
/// the time the first sweep finds it ready. The gap between two sweeps
/// bounds a stamp's error, so the gaps are recorded (a thread blocked on a
/// future would stamp later: on a busy host a woken thread can wait
/// milliseconds for a CPU).
class ReadyStamper {
public:
    /// Start waiting for operation `id`.
    void watch(std::size_t id) {
        if (pending_.empty()) last_ = Clock::now();  // no gap while idle
        pending_.push_back(id);
    }
    bool idle() const { return pending_.empty(); }

    /// One sweep: `on_ready(id, stamp)` for every watched operation whose
    /// future `is_ready(id)` reports ready; those are no longer watched.
    template <typename IsReady, typename OnReady>
    void sweep(IsReady&& is_ready, OnReady&& on_ready) {
        const Clock::time_point now = Clock::now();
        if (!pending_.empty()) gaps_us_.push_back(us_between(last_, now));
        last_ = now;
        std::size_t kept = 0;
        for (std::size_t id : pending_) {
            if (is_ready(id)) on_ready(id, Clock::now());
            else pending_[kept++] = id;
        }
        pending_.resize(kept);
    }

    /// Gaps between consecutive sweeps while something was watched.
    const std::vector<double>& gaps_us() const { return gaps_us_; }

private:
    std::vector<std::size_t> pending_;
    std::vector<double> gaps_us_;
    Clock::time_point last_ = Clock::now();
};

/// True once `f` holds its result (never blocks).
template <typename T>
bool is_ready(const std::future<T>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// In-memory span recorder. Spans are kept until write() dumps them in the
/// Chrome trace-event format (chrome://tracing, Perfetto). Thread-safe.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    /// Record [start, end] as `name`; `request` groups the spans of one
    /// operation (-1 for none), `parent` names the causing span (-1 for a
    /// root). Returns the span id.
    std::int64_t record(const char* name, Clock::time_point start, Clock::time_point end,
                        std::int64_t request = -1, std::int64_t parent = -1);

    /// Write every recorded span; false if the file cannot be written.
    bool write(const std::string& path) const;

private:
    struct Span {
        const char* name;
        std::int64_t start_ns, end_ns, request, parent;
    };
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex m_;
    std::vector<Span> spans_;  // guarded by m_
};

/// What one run produced: every metric the workload measures, by name.
struct Metric {
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;  ///< failed + rejected + timed out + wrong output
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> per_layer;
    std::map<std::string, std::string> notes;  ///< host fingerprint, sample counts
    /// The workload-specific name of a generic end-to-end metric
    /// (layer_ms_p50 -> latency_ms_p50 on encode), printed beside it.
    std::map<std::string, std::string> aliases;
};

struct WorkloadArgs {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;  ///< a traced run writes its spans here
};

/// plan_cache.hits / misses / hit_ratio / step_derives for the work done
/// between two snapshots of one cache (set-up excluded).
void add_plan_cache_metrics(RunResult& out, const salo::PlanCacheStats& before,
                            const salo::PlanCacheStats& after);

RunResult run_encode(const WorkloadArgs& args);
RunResult run_serve(const WorkloadArgs& args);
RunResult run_decode(const WorkloadArgs& args);

/// Digests of the inputs a workload generates from `seed` (self-tests).
std::uint64_t encode_inputs_digest(std::uint64_t seed);
std::uint64_t decode_inputs_digest(std::uint64_t seed);

/// Median time of repeated calls of `setup`, in seconds: at least 7 calls
/// and at least 1 s of them, so a short set-up is sampled often enough
/// for its median to hold still. The last call's product is kept by the
/// caller through the lambda's captures.
template <typename Fn>
double median_setup_s(Fn&& setup) {
    std::vector<double> s;
    double total_s = 0.0;
    while (s.size() < 7 || total_s < 1.0) {
        const Clock::time_point t0 = Clock::now();
        setup();
        s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        total_s += s.back();
    }
    return percentile(s, 0.5);
}

}  // namespace perfbench
