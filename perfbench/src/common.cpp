#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::size_t samples_beyond(const std::vector<double>& v, double q) {
    const double cut = percentile(v, q);
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

double windowed_percentile(const std::vector<std::pair<double, double>>& samples,
                           double span, int windows, double q) {
    if (span <= 0.0 || windows < 1) return 0.0;
    std::vector<std::vector<double>> slices(static_cast<std::size_t>(windows));
    for (const auto& [at, value] : samples) {
        if (at < 0.0 || at >= span) continue;
        const auto w = static_cast<std::size_t>(at / span * windows);
        slices[std::min(w, slices.size() - 1)].push_back(value);
    }
    std::vector<double> tails;
    for (const auto& slice : slices)
        if (!slice.empty()) tails.push_back(percentile(slice, q));
    return percentile(tails, 0.5);
}

double goodput_per_s(const std::vector<double>& latency_ms, double limit_ms,
                     double span_s) {
    if (span_s <= 0.0) return 0.0;
    const auto good = std::count_if(latency_ms.begin(), latency_ms.end(),
                                    [limit_ms](double l) { return l >= 0.0 && l <= limit_ms; });
    return static_cast<double>(good) / span_s;
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

void reset_peak_rss() {
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5";  // 5 = reset the peak RSS (proc(5))
}

std::uint64_t result_digest(const salo::Tensor3<float>& output, std::int64_t cycles) {
    // Word-wise multiply-xorshift: a byte-wise FNV pass over a megabyte of
    // output would cost a millisecond per request.
    std::uint64_t h = 0x243f6a8885a308d3ull ^ static_cast<std::uint64_t>(cycles);
    auto mix = [&h](std::uint64_t w) {
        h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 0xbf58476d1ce4e5b9ull;
        h ^= h >> 31;
    };
    for (int i = 0; i < output.count(); ++i) {
        const auto data = output[i].data();
        std::size_t j = 0;
        for (; j + 2 <= data.size(); j += 2) {
            std::uint64_t w = 0;
            std::memcpy(&w, data.data() + j, sizeof w);
            mix(w);
        }
        if (j < data.size()) {
            std::uint32_t w = 0;
            std::memcpy(&w, data.data() + j, sizeof w);
            mix(w);
        }
        mix(data.size());
    }
    return h;
}

int bench_lanes() { return std::min(salo::default_num_threads(), 4); }

void add_plan_cache_metrics(RunResult& out, const salo::PlanCacheStats& before,
                            const salo::PlanCacheStats& after) {
    const auto hits = static_cast<double>(after.hits - before.hits);
    const auto misses = static_cast<double>(after.misses - before.misses);
    out.per_layer["plan_cache.hits"] = {hits, "count"};
    out.per_layer["plan_cache.misses"] = {misses, "count"};
    out.per_layer["plan_cache.hit_ratio"] = {
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "share"};
    out.per_layer["plan_cache.step_derives"] = {
        static_cast<double>(after.step_derives - before.step_derives), "count"};
}

std::int64_t Tracer::record(const char* name, Clock::time_point start, Clock::time_point end,
                            std::int64_t request, std::int64_t parent) {
    if (!enabled_) return -1;
    const auto ns = [this](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
    };
    const std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(Span{name, ns(start), ns(end), request, parent});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

bool Tracer::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::lock_guard<std::mutex> lock(m_);
    std::fprintf(f, "{\"traceEvents\": [\n");
    // tid only spreads operations over 64 display rows; "request" is the id.
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %lld, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                     "\"parent\": %lld, \"request\": %lld}}%s\n",
                     s.name, static_cast<long long>(s.request < 0 ? 0 : s.request % 64),
                     static_cast<double>(s.start_ns) / 1000.0,
                     static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i,
                     static_cast<long long>(s.parent), static_cast<long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
