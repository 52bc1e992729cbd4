// The attention-layer workloads evaluated in the paper (Table 2) plus the
// BERT-base layer used for the §2.1 quadratic-latency experiment, and
// seeded synthetic Q/K/V generators.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "core/compiled_plan.hpp"
#include "pattern/pattern.hpp"
#include "tensor/tensor3.hpp"

namespace salo {

struct AttentionWorkload {
    std::string name;
    HybridPattern pattern;
    int heads;
    int head_dim;         ///< d per head
    int window;           ///< total window size (w, or win_h*win_w for 2D)
    double paper_sparsity;///< the sparsity column of Table 2

    int n() const { return pattern.n(); }
    int hidden() const { return heads * head_dim; }
    float scale() const { return 1.0f / std::sqrt(static_cast<float>(head_dim)); }
};

/// Longformer-Base-4096: n=4096, w=512, hidden 768 (12 heads x 64), 1 global.
AttentionWorkload longformer_base_4096();

/// ViL-Medium-Wide stage 1: 56x56 patches, 15x15 window, hidden 192, 1 global.
AttentionWorkload vil_stage1();

/// ViL-Medium-Wide stage 2: 28x28 patches, 15x15 window, hidden 384, 1 global.
AttentionWorkload vil_stage2();

/// The three workloads of Figure 7 / Table 2, in paper order.
std::vector<AttentionWorkload> paper_workloads();

/// BERT-base attention layer with full (dense) attention at length n —
/// the §2.1 scaling study workload.
AttentionWorkload bert_base(int n);

/// Scaled-down version of a workload (same pattern structure, smaller n/w)
/// for fast functional-simulation tests and benches.
AttentionWorkload longformer_small(int n, int w, int heads, int head_dim, int num_global);

/// Seeded Gaussian Q/K/V for every head of a workload. `stddev` is chosen
/// so scaled scores stay within the Q3.4 input format's useful range.
struct QkvSet {
    Tensor3<float> q, k, v;
};
QkvSet make_qkv(const AttentionWorkload& workload, std::uint64_t seed,
                double stddev = 0.5);

/// Compile a workload's pattern for its head dimension under `config` —
/// the shareable artifact the serving API (SaloSession, ShardedSession)
/// submits requests against.
CompiledPlanPtr compile_workload(const AttentionWorkload& workload,
                                 const SaloConfig& config);

}  // namespace salo
