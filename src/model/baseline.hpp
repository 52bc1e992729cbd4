// CPU/GPU baseline latency and power models (substitute for the paper's
// measured Xeon E5-2630 v3 / GTX 1080Ti numbers — see docs/REPRODUCTION.md).
//
// Structure: an attention layer on a general-purpose device costs a compute
// term (FLOPs over achievable throughput) plus a memory term (materialized
// tensors over achievable bandwidth). Dense attention uses large GEMMs and
// runs near the device's calibrated GEMM efficiency; hybrid sparse
// attention is NOT directly supported by GEMM libraries (paper §1/§6.2):
// frameworks fall back to chunked/unfolded implementations that recompute
// overlapping windows and materialize big intermediate tensors, which is
// what the chunk_redundancy / unfold traffic terms model.
//
// Calibration anchors (documented in docs/REPRODUCTION.md):
//   * GPU dense efficiency is fitted to the paper's own measurement of
//     BERT attention on a 1080Ti (9.20 ms at n=2048, 145.70 ms at n=8192);
//   * CPU/GPU throughput ratio (~11.3x) matches the ratio between the
//     paper's CPU and GPU speedups;
//   * sparse-attention efficiencies are fitted so that the three Figure 7
//     workloads land near the paper's measured speedups;
//   * per-workload effective powers are the values implied by the paper's
//     Figure 7a/7b pair (power = saving / speedup * P_SALO).
#pragma once

#include <string>

#include "workload/workloads.hpp"

namespace salo {

struct DeviceSpec {
    std::string name;
    double peak_gflops;            ///< theoretical fp32 throughput
    double mem_bw_gbs;             ///< theoretical DRAM bandwidth
    double dense_gemm_efficiency;  ///< achievable fraction for big GEMMs
    double banded_efficiency;      ///< 1D chunked sliding-window kernels
    double unfold_efficiency;      ///< 2D unfold (ViL-style) kernels
    double bw_efficiency;          ///< achievable fraction of peak bandwidth
    double chunk_redundancy;       ///< recomputation factor of chunked windows
    double unfold_traffic_factor;  ///< DRAM passes over the unfolded K/V
};

/// NVIDIA GTX 1080Ti (the paper's GPU baseline, PyTorch 1.5 + cuDNN).
DeviceSpec gtx_1080ti();

/// Intel Xeon E5-2630 v3 (the paper's CPU baseline, PyTorch 1.5 + MKL).
DeviceSpec xeon_e5_2630_v3();

/// Dense (full) attention layer latency: two n x n x hidden GEMMs + softmax.
double dense_attention_ms(const DeviceSpec& device, int n, int hidden);

/// Hybrid sparse attention layer latency on a general-purpose device.
struct BaselineBreakdown {
    double compute_ms = 0.0;
    double memory_ms = 0.0;
    double total_ms() const { return compute_ms + memory_ms; }
};
BaselineBreakdown sparse_attention_ms(const DeviceSpec& device,
                                      const AttentionWorkload& workload);

/// Effective power (W) the paper's measurements imply for this device on
/// this workload (saving / speedup * P_SALO); used by the Figure 7b bench.
double implied_power_w(const DeviceSpec& device, const std::string& workload_name);

}  // namespace salo
