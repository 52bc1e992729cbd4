#include "model/baseline.hpp"

#include "common/assert.hpp"

namespace salo {

namespace {
/// SALO's synthesized power (paper Table 1), used to invert the paper's
/// energy-saving figures into effective device powers.
constexpr double kSaloPowerW = 0.53266;

/// MAC-pair FLOPs of an attention layer over `pairs` (query, key) pairs:
/// Q*K^T and S'*V each cost pairs*hidden MACs = 2*pairs*hidden FLOPs.
double attention_flops(double pairs, int hidden) { return 4.0 * pairs * hidden; }
}  // namespace

DeviceSpec gtx_1080ti() {
    return DeviceSpec{
        .name = "GTX-1080Ti",
        .peak_gflops = 11340.0,
        .mem_bw_gbs = 484.0,
        // Fitted to the paper's BERT measurement: 9.20 ms at n=2048
        // (12.9 GFLOP) -> 1.40 effective TFLOPS -> 12.4 % of peak.
        .dense_gemm_efficiency = 0.124,
        // 1D banded (HF Longformer-style chunked) kernels: many small
        // batched GEMMs, masking and softmax elementwise traffic.
        .banded_efficiency = 0.035,
        // 2D (ViL-style unfold) kernels: better-shaped GEMMs but heavy
        // gather/scatter; both fitted to Figure 7a.
        .unfold_efficiency = 0.024,
        .bw_efficiency = 0.70,
        .chunk_redundancy = 3.0,      // 2w-chunks recompute window overlaps
        .unfold_traffic_factor = 2.0, // unfolded K/V written + read once
    };
}

DeviceSpec xeon_e5_2630_v3() {
    return DeviceSpec{
        .name = "Xeon-E5-2630v3",
        // 8 cores x 2.4 GHz x 32 fp32 FLOPs/cycle (2 AVX2 FMA ports).
        .peak_gflops = 614.0,
        .mem_bw_gbs = 59.0,  // 4-channel DDR4-1866
        // Chosen so the CPU/GPU dense-throughput ratio (~11.4x) matches the
        // ratio between the paper's CPU and GPU speedups (89.33/17.66).
        .dense_gemm_efficiency = 0.20,
        .banded_efficiency = 0.060,
        .unfold_efficiency = 0.085,
        .bw_efficiency = 0.50,
        .chunk_redundancy = 3.0,
        // MKL's cache-blocked unfold rematerializes far less DRAM traffic
        // than the GPU's global-memory version.
        .unfold_traffic_factor = 0.5,
    };
}

double dense_attention_ms(const DeviceSpec& device, int n, int hidden) {
    SALO_EXPECTS(n >= 1 && hidden >= 1);
    const double pairs = static_cast<double>(n) * static_cast<double>(n);
    const double flops = attention_flops(pairs, hidden);
    const double compute_ms =
        flops / (device.peak_gflops * device.dense_gemm_efficiency) * 1e-6;
    // Softmax over the n x n score matrix: ~4 passes over 4-byte scores.
    const double softmax_bytes = pairs * 4.0 * 4.0;
    const double memory_ms =
        softmax_bytes / (device.mem_bw_gbs * device.bw_efficiency) * 1e-6;
    return compute_ms + memory_ms;
}

BaselineBreakdown sparse_attention_ms(const DeviceSpec& device,
                                      const AttentionWorkload& workload) {
    const double n = workload.n();
    const double w = workload.window;
    const double hidden = workload.hidden();
    const double heads = workload.heads;
    const bool is_2d = workload.pattern.grid_width() > 0;

    BaselineBreakdown out;
    const double efficiency =
        is_2d ? device.unfold_efficiency : device.banded_efficiency;
    const double flops = attention_flops(n * w, static_cast<int>(hidden)) *
                         device.chunk_redundancy;
    out.compute_ms = flops / (device.peak_gflops * efficiency) * 1e-6;

    // Materialized intermediates: banded score tensors (always), plus the
    // full K/V unfold that 2D window implementations perform (ViL).
    double bytes = n * w * heads * 4.0 * 4.0;  // scores: write + 3 reads
    if (is_2d)
        bytes += 2.0 * n * w * hidden * 4.0 * device.unfold_traffic_factor;
    out.memory_ms = bytes / (device.mem_bw_gbs * device.bw_efficiency) * 1e-6;
    return out;
}

double implied_power_w(const DeviceSpec& device, const std::string& workload_name) {
    // P_device = saving / speedup * P_SALO, from the paper's Figure 7a/7b
    // pairs (see docs/REPRODUCTION.md, calibrations). Values in watts.
    struct Entry {
        const char* workload;
        double saving;
        double speedup;
    };
    const bool is_gpu = device.name == "GTX-1080Ti";
    const Entry gpu[] = {{"Longformer", 336.05, 7.38},
                         {"ViL-stage1", 281.29, 20.10},
                         {"ViL-stage2", 198.78, 25.51}};
    const Entry cpu[] = {{"Longformer", 196.90, 83.57},
                         {"ViL-stage1", 187.53, 83.12},
                         {"ViL-stage2", 167.15, 101.31}};
    for (const Entry& e : is_gpu ? gpu : cpu)
        if (workload_name == e.workload) return e.saving / e.speedup * kSaloPowerW;
    // Unknown workload: average of the known implied powers.
    double sum = 0.0;
    for (const Entry& e : is_gpu ? gpu : cpu) sum += e.saving / e.speedup * kSaloPowerW;
    return sum / 3.0;
}

}  // namespace salo
