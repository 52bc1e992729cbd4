// Self-tests of the benchmark's own machinery: seeded inputs and schedules
// are reproducible and seed-dependent, and the order statistics and
// goodput arithmetic are right on synthetic samples. Exit code 0 = pass.
//
//   perfbench_selftest
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "serve_mix.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::uint64_t serve_inputs_digest(std::uint64_t seed) {
    const ServeInputs in = make_inputs(seed);
    std::uint64_t h = 0;
    for (const auto& pool : in.pools)
        for (const salo::QkvSet& s : pool)
            h = h * 31 + (result_digest(s.q, 0) ^ result_digest(s.k, 1) ^
                          result_digest(s.v, 2));
    return h;
}

void test_seeded_inputs() {
    const auto a = make_schedule(7, 300.0, 3.0);
    const auto b = make_schedule(7, 300.0, 3.0);
    const auto c = make_schedule(8, 300.0, 3.0);
    check(!a.empty() && a == b, "serve: same seed -> identical arrivals, shapes, tenants");
    check(a != c, "serve: another seed -> a different schedule");
    bool kinds_differ = false;
    for (std::size_t i = 0; i < std::min(a.size(), c.size()); ++i)
        kinds_differ = kinds_differ || a[i].kind != c[i].kind;
    check(kinds_differ, "serve: another seed -> a different shape sequence");

    check(serve_inputs_digest(7) == serve_inputs_digest(7), "serve: same seed -> same inputs");
    check(serve_inputs_digest(7) != serve_inputs_digest(8), "serve: another seed -> other inputs");
    check(encode_inputs_digest(7) == encode_inputs_digest(7), "encode: same seed -> same inputs");
    check(encode_inputs_digest(7) != encode_inputs_digest(8),
          "encode: another seed -> other inputs");
    check(decode_inputs_digest(7) == decode_inputs_digest(7), "decode: same seed -> same inputs");
    check(decode_inputs_digest(7) != decode_inputs_digest(8),
          "decode: another seed -> other inputs");
}

void test_schedule_shape() {
    const double rate = 300.0, seconds = 20.0;
    const auto s = make_schedule(3, rate, seconds);
    const double expected = rate * seconds;
    check(std::fabs(static_cast<double>(s.size()) - expected) < 0.05 * expected,
          "serve: arrival count within 5% of rate x seconds");
    bool ordered = true, in_window = true;
    std::vector<int> tails;
    std::size_t tail = 0, batch = 0;
    std::array<std::size_t, kMainKinds> per_kind{};
    for (std::size_t i = 0; i < s.size(); ++i) {
        ordered = ordered && (i == 0 || s[i].due_ms >= s[i - 1].due_ms);
        in_window = in_window && s[i].due_ms >= 0.0 && s[i].due_ms < seconds * 1000.0;
        batch += s[i].batch ? 1 : 0;
        if (s[i].kind == kTail) {
            ++tail;
            tails.push_back(s[i].n);
        } else {
            ++per_kind[static_cast<std::size_t>(s[i].kind)];
        }
    }
    const double third = static_cast<double>(s.size() - tail) / kMainKinds;
    bool thirds = true;
    for (std::size_t n : per_kind)
        thirds = thirds && std::fabs(static_cast<double>(n) - third) < 0.05 * third;
    check(thirds, "serve: the main shapes split the non-tail requests in thirds");
    const double batch_share = static_cast<double>(batch) / static_cast<double>(s.size());
    check(batch_share > 0.46 && batch_share < 0.54, "serve: about half the requests are batch");
    check(ordered && in_window, "serve: due times ascending inside the window");
    std::sort(tails.begin(), tails.end());
    check(std::adjacent_find(tails.begin(), tails.end()) == tails.end(),
          "serve: tail lengths are distinct");
    const double share = static_cast<double>(tail) / static_cast<double>(s.size());
    check(share > 0.08 && share < 0.12, "serve: tail is ~10% of requests");
}

void test_order_statistics() {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(i);
    check(near(percentile(v, 0.5), 50.5), "percentile: median of 1..100 is 50.5");
    check(near(percentile(v, 0.99), 99.01), "percentile: p99 of 1..100 is 99.01");
    check(near(percentile(v, 0.0), 1.0) && near(percentile(v, 1.0), 100.0),
          "percentile: p0 and p100 are the extremes");
    check(near(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5), "percentile: unsorted input");
    check(near(percentile({}, 0.5), 0.0), "percentile: empty sample is 0");
    std::vector<double> w;
    for (int i = 1; i <= 1000; ++i) w.push_back(i);
    check(samples_beyond(w, 0.99) == 10, "samples_beyond: 10 of 1000 above p99");

    // Three 1 s windows of 1..100; the middle one also holds a spell of ten
    // 1000 ms samples, and one sample lies past the span.
    std::vector<std::pair<double, double>> at;
    for (int win = 0; win < 3; ++win)
        for (int i = 1; i <= 100; ++i) at.emplace_back(win + i / 101.0, i);
    for (int i = 0; i < 10; ++i) at.emplace_back(1.5, 1000.0);
    at.emplace_back(3.0, 5000.0);
    check(near(windowed_percentile(at, 3.0, 3, 0.99), 99.01),
          "windowed_percentile: one slow window does not move the median of window p99s");
    // One window: the median of 3 x (1..100) and the ten 1000s is 52.
    check(near(windowed_percentile(at, 3.0, 1, 0.5), 52.0),
          "windowed_percentile: one window is the plain percentile of the span");
    check(near(windowed_percentile({}, 3.0, 3, 0.99), 0.0), "windowed_percentile: empty is 0");

    // 4 requests over 2 s: two within the limit, one too slow, one failed.
    check(near(goodput_per_s({10.0, 20.0, 200.0, -1.0}, 100.0, 2.0), 1.0),
          "goodput: only correct requests within the limit count");
    check(near(goodput_per_s({100.0}, 100.0, 0.5), 2.0), "goodput: the limit is inclusive");
}

}  // namespace

int main() {
    test_seeded_inputs();
    test_schedule_shape();
    test_order_statistics();
    std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
                failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}
