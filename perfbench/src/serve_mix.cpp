#include "serve_mix.hpp"

#include <cmath>
#include <cstring>
#include <unordered_set>

namespace perfbench {

using namespace salo;

namespace {

/// Rows [0, n) of every head of `pool`.
Tensor3<float> prefix_rows(const Tensor3<float>& pool, int n) {
    Tensor3<float> t(pool.count(), n, pool.cols());
    for (int h = 0; h < pool.count(); ++h)
        std::memcpy(t[h].data().data(), pool[h].data().data(),
                    static_cast<std::size_t>(n) * static_cast<std::size_t>(pool.cols()) *
                        sizeof(float));
    return t;
}

HybridPattern main_pattern(int kind) {
    switch (kind) {
        case kVil28: return vil_2d(28, 28, 9, 9, 1);
        case kVil14: return vil_2d(14, 14, 7, 7, 1);
        default: return longformer(1024, 128, 1);
    }
}

}  // namespace

int heads_of(int kind) { return kind == kVil28 || kind == kVil14 ? 2 : 4; }

HybridPattern pattern_of(const Arrival& a) {
    return a.kind == kTail ? longformer(a.n, 128, 1) : main_pattern(a.kind);
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s, double seconds) {
    Rng rng(seed ^ 0x5e7e5c4ed01eull);
    std::unordered_set<int> tail_used;
    std::vector<Arrival> out;
    double t_ms = 0.0;
    for (;;) {
        // Exponential inter-arrival gap: a Poisson process at rate_per_s.
        t_ms += -std::log(1.0 - rng.uniform()) * 1000.0 / rate_per_s;
        if (t_ms >= seconds * 1000.0) break;
        Arrival a;
        a.due_ms = t_ms;
        a.kind = rng.uniform() < kTailShare ? kTail
                                            : static_cast<int>(rng.uniform_index(kMainKinds));
        a.input_class = static_cast<int>(rng.uniform_index(kInputClasses));
        a.tenant = static_cast<int>(rng.uniform_index(kTenants));
        a.batch = rng.uniform() < kBatchShare;
        if (a.kind == kTail) {
            // Distinct lengths while any are left (runs far longer than the
            // benchmark's own would start repeating them).
            const int span = kTailMaxN - kTailMinN;
            int n = kTailMinN + static_cast<int>(rng.uniform_index(span));
            for (int tries = 0; tail_used.count(n) != 0 && tries < span; ++tries)
                n = kTailMinN + (n - kTailMinN + 1) % span;
            tail_used.insert(n);
            a.n = n;
        } else {
            a.n = main_pattern(a.kind).n();
        }
        out.push_back(a);
    }
    return out;
}

ServeInputs make_inputs(std::uint64_t seed) {
    ServeInputs in;
    Rng rng(seed ^ 0x1a9075eedull);
    for (int kind = 0; kind < kMainKinds; ++kind) {
        const int rows = kind == kLongformer1024 ? kTailMaxN : main_pattern(kind).n();
        for (int c = 0; c < kInputClasses; ++c) {
            QkvSet s;
            s.q = random_tensor3(heads_of(kind), rows, kHeadDim, rng, 0.5);
            s.k = random_tensor3(heads_of(kind), rows, kHeadDim, rng, 0.5);
            s.v = random_tensor3(heads_of(kind), rows, kHeadDim, rng, 0.5);
            in.pools[static_cast<std::size_t>(kind)].push_back(std::move(s));
        }
    }
    return in;
}

AttentionRequest build_request(const Arrival& a, const ServeInputs& inputs) {
    const int pool_kind = a.kind == kTail ? kLongformer1024 : a.kind;
    const QkvSet& src = inputs.pools[static_cast<std::size_t>(pool_kind)]
                                    [static_cast<std::size_t>(a.input_class)];
    AttentionRequest r = make_request(pattern_of(a), prefix_rows(src.q, a.n),
                                      prefix_rows(src.k, a.n), prefix_rows(src.v, a.n),
                                      1.0f / std::sqrt(static_cast<float>(kHeadDim)));
    r.tenant_id = tenant_name(a.tenant);
    r.priority = a.batch ? Priority::batch : Priority::interactive;
    return r;
}

}  // namespace perfbench
