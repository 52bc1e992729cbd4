// End-to-end functional-simulation throughput: the seed's sequential scalar
// path vs the overhauled engine (SIMD kernels, arena parts, persistent
// worker pool running one head per lane).
//
// The baseline configuration (`seed_reference_1t`) runs the original
// datapath loops preserved behind SaloConfig::reference_datapath on one
// thread — the seed's execution path. Every configuration is verified to
// produce bit-identical outputs and identical simulation statistics before
// any number is reported.
//
//   bench_throughput [--quick] [--heads N] [--json <path>]
//
// --json writes a machine-readable snapshot (the BENCH_throughput.json
// trajectory at the repo root); wired up as the CMake target
// `bench_throughput_json`.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/salo.hpp"
#include "sim/kernels.hpp"
#include "workload/workloads.hpp"

namespace {

using salo::AttentionWorkload;
using salo::LayerResult;
using salo::QkvSet;
using salo::SaloConfig;
using salo::SaloEngine;

double median_ms(const SaloConfig& config, const AttentionWorkload& w, const QkvSet& qkv,
                 int reps, LayerResult* out) {
    // One engine for all reps: the persistent pool and its arenas are
    // steady-state across calls, which is exactly what we want to measure.
    const SaloEngine engine(config);
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        LayerResult r = engine.run(w.pattern, qkv.q, qkv.k, qkv.v, w.scale());
        const auto t1 = std::chrono::steady_clock::now();
        times.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        if (out) *out = std::move(r);
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

bool identical(const LayerResult& a, const LayerResult& b) {
    if (a.stats.cycles != b.stats.cycles || a.stats.tiles != b.stats.tiles)
        return false;
    for (int s = 0; s < 5; ++s)
        if (a.stats.stage_totals.stage[s] != b.stats.stage_totals.stage[s]) return false;
    const salo::ActivityStats& aa = a.stats.activity;
    const salo::ActivityStats& ba = b.stats.activity;
    if (aa.mac_ops != ba.mac_ops || aa.exp_ops != ba.exp_ops ||
        aa.valid_slots != ba.valid_slots || aa.array_slots != ba.array_slots ||
        aa.pe_cycles != ba.pe_cycles)
        return false;
    for (int h = 0; h < a.output.count(); ++h)
        if (salo::max_abs_diff(a.output[h], b.output[h]) != 0.0) return false;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    int heads_override = 0;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
        else if (std::strcmp(argv[i], "--heads") == 0 && i + 1 < argc)
            heads_override = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::cerr << "usage: bench_throughput [--quick] [--heads N] [--json path]\n";
            return 2;
        }
    }

    AttentionWorkload w = salo::longformer_base_4096();
    if (heads_override > 0) w.heads = heads_override;
    else if (quick) w.heads = 2;
    const int reps = quick ? 1 : 3;
    const QkvSet qkv = salo::make_qkv(w, 42);

    SaloConfig seed_cfg;
    seed_cfg.num_threads = 1;
    seed_cfg.reference_datapath = true;
    SaloConfig opt1_cfg;
    opt1_cfg.num_threads = 1;
    SaloConfig opt8_cfg;
    opt8_cfg.num_threads = 8;

    std::printf("workload: Longformer-4096, %d heads, d=%d (functional fidelity)\n",
                w.heads, w.head_dim);
    std::printf("kernel ISA: %s, hardware threads: %d, reps: %d (median)\n\n",
                salo::kernels::isa_name(), salo::default_num_threads(), reps);

    LayerResult r_seed, r_opt1, r_opt8;
    const double seed_ms = median_ms(seed_cfg, w, qkv, reps, &r_seed);
    std::printf("%-24s %9.1f ms\n", "seed_reference_1t", seed_ms);
    const double opt1_ms = median_ms(opt1_cfg, w, qkv, reps, &r_opt1);
    std::printf("%-24s %9.1f ms   (%.2fx)\n", "optimized_1t", opt1_ms, seed_ms / opt1_ms);
    const double opt8_ms = median_ms(opt8_cfg, w, qkv, reps, &r_opt8);
    std::printf("%-24s %9.1f ms   (%.2fx)\n", "optimized_8t", opt8_ms, seed_ms / opt8_ms);

    const bool bit_identical = identical(r_seed, r_opt1) && identical(r_seed, r_opt8);
    std::printf("\nbit-identical outputs + stats across all configs: %s\n",
                bit_identical ? "yes" : "NO — BUG");
    std::printf("layer cycles: %lld, tiles: %lld\n",
                static_cast<long long>(r_seed.stats.cycles),
                static_cast<long long>(r_seed.stats.tiles));

    if (!json_path.empty()) {
        char date[32] = "unknown";
        const std::time_t now = std::time(nullptr);
        std::strftime(date, sizeof date, "%Y-%m-%d", std::gmtime(&now));
        std::ofstream os(json_path);
        os << "{\n"
           << "  \"bench\": \"throughput\",\n"
           << "  \"schema_version\": 1,\n"
           << "  \"date\": \"" << date << "\",\n"
           << "  \"workload\": \"longformer-base-4096\",\n"
           << "  \"n\": " << w.n() << ",\n"
           << "  \"heads\": " << w.heads << ",\n"
           << "  \"head_dim\": " << w.head_dim << ",\n"
           << "  \"fidelity\": \"functional\",\n"
           << "  \"kernel_isa\": \"" << salo::kernels::isa_name() << "\",\n"
           << "  \"hardware_threads\": " << salo::default_num_threads() << ",\n"
           << "  \"reps\": " << reps << ",\n"
           << "  \"seed_reference_1t_ms\": " << seed_ms << ",\n"
           << "  \"optimized_1t_ms\": " << opt1_ms << ",\n"
           << "  \"optimized_8t_ms\": " << opt8_ms << ",\n"
           << "  \"speedup_1t_vs_seed\": " << seed_ms / opt1_ms << ",\n"
           << "  \"speedup_8t_vs_seed\": " << seed_ms / opt8_ms << ",\n"
           << "  \"bit_identical\": " << (bit_identical ? "true" : "false") << ",\n"
           << "  \"layer_cycles\": " << r_seed.stats.cycles << "\n"
           << "}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }
    return bit_identical ? 0 : 1;
}
