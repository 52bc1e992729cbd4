// The paper-claims ledger: every number of the SALO paper (DAC 2022) this
// reproduction computes, and every conclusion its sweeps draw, as one row
// of one table. A row holds when our value lies within its tolerance of
// the paper's value (or inside the stated bound), and each row commits
// whether it holds; rows that do not say why.
//
// Provenance: *derived* rows come from the cycle model, the scheduler, the
// engine, the co-simulation or the datapath; *calibrated* rows compare a
// model that was fitted or set to that very number; *substituted* rows run
// a stand-in (synthetic datasets, an analytic Sanger). Only derived rows
// count as reproduced. docs/REPRODUCTION.md documents the substitutions,
// the calibrations and every row that does not reproduce.
//
//   paper_claims          (no arguments; the `paper_claims` ctest)
//
// Prints every row and "reproduced N of M derived rows". Exits 1 when the
// status computed for any row differs from its committed status, so a
// number that drifts in either direction fails.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "attention/golden.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "cosim/system.hpp"
#include "model/energy.hpp"
#include "model/sanger.hpp"
#include "numeric/error_stats.hpp"
#include "numeric/fake_quant.hpp"
#include "workload/quant_study.hpp"

namespace {

using namespace salo;

enum class Provenance { kDerived, kCalibrated, kSubstituted };

const char* name(Provenance p) {
    switch (p) {
        case Provenance::kDerived: return "derived";
        case Provenance::kCalibrated: return "calibrated";
        case Provenance::kSubstituted: return "substituted";
    }
    return "?";
}

/// A modeled number against a paper measurement holds within this share.
constexpr double kRelTol = 0.05;

struct Row {
    std::string section;
    std::string claim;
    std::string paper;      ///< the paper's value or bound, as printed
    std::string tolerance;
    double lo = 0.0, hi = 0.0;  ///< the row holds iff lo <= ours <= hi
    double ours = 0.0;
    int digits = 2;         ///< decimals printed for ours
    Provenance provenance = Provenance::kDerived;
    std::string not_reproduced;  ///< committed status: empty = holds, else why not

    bool holds() const { return lo <= ours && ours <= hi; }
};

class Ledger {
public:
    /// The paper section of the rows added next.
    void section(std::string s) { section_ = std::move(s); }

    /// Ours within kRelTol of the paper's value.
    Row& near(std::string claim, double paper, double ours, int digits, Provenance p) {
        return add({section_, std::move(claim), fmt(paper, digits),
                    fmt(kRelTol * 100.0, 0) + " %", paper * (1.0 - kRelTol),
                    paper * (1.0 + kRelTol), ours, digits, p, {}});
    }

    /// Ours within the paper's own rounding of a value it prints to `digits`.
    Row& rounded(std::string claim, double paper, double ours, int digits) {
        double half = 0.5;
        for (int i = 0; i < digits; ++i) half /= 10.0;
        return add({section_, std::move(claim), fmt(paper, digits),
                    "+/-" + fmt(half, digits + 1), paper - half, paper + half, ours,
                    digits + 1, Provenance::kDerived, {}});
    }

    /// Ours equal to an exact count (cycles, tiles).
    Row& exact(std::string claim, std::int64_t expected, std::int64_t ours) {
        const double e = static_cast<double>(expected);
        return add({section_, std::move(claim), fmt(e, 0), "exact", e, e,
                    static_cast<double>(ours), 0, Provenance::kDerived, {}});
    }

    /// Ours inside [lo, hi]; `bound` prints the bound.
    Row& bounded(std::string claim, std::string bound, double lo, double hi, double ours,
                 int digits, Provenance p = Provenance::kDerived) {
        return add({section_, std::move(claim), std::move(bound), "bound", lo, hi, ours,
                    digits, p, {}});
    }

    /// Prints every row; returns the number of rows whose computed status
    /// differs from the committed one.
    int print() const {
        AsciiTable table({"sec", "claim", "paper", "ours", "tolerance", "provenance",
                          "status"});
        int drift = 0, derived = 0, reproduced = 0;
        for (const Row& r : rows_) {
            const bool committed = r.not_reproduced.empty();
            const bool derived_row = r.provenance == Provenance::kDerived;
            std::string status = r.holds() ? (derived_row ? "reproduced" : "agrees")
                                           : (derived_row ? "not reproduced" : "differs");
            if (r.holds() != committed) {
                status = "DRIFT: committed " +
                         std::string(committed ? "holds" : "does not hold");
                ++drift;
            }
            if (derived_row) {
                ++derived;
                if (r.holds()) ++reproduced;
            }
            table.add_row({r.section, r.claim, r.paper, fmt(r.ours, r.digits), r.tolerance,
                           name(r.provenance), status});
        }
        table.print();
        std::cout << "\nRows that do not hold, and why:\n";
        std::vector<std::string> reasons;
        for (const Row& r : rows_)
            if (!r.not_reproduced.empty() &&
                std::find(reasons.begin(), reasons.end(), r.not_reproduced) == reasons.end())
                reasons.push_back(r.not_reproduced);
        for (const std::string& reason : reasons) {
            std::cout << "  " << reason << ":\n";
            for (const Row& r : rows_)
                if (r.not_reproduced == reason)
                    std::cout << "    " << r.section << "  " << r.claim << "\n";
        }
        std::cout << "\nreproduced " << reproduced << " of " << derived << " derived rows\n";
        return drift;
    }

private:
    Row& add(Row row) {
        rows_.push_back(std::move(row));
        return rows_.back();
    }

    std::string section_;
    std::deque<Row> rows_;  // a deque: the references add() hands out stay valid
};

/// Layer cycles of the three independent SALO latency sources.
struct ThreeWay {
    std::int64_t model, engine, cosim;
};

ThreeWay salo_cycles(const AttentionWorkload& w, const SaloConfig& config) {
    ThreeWay t{};
    t.model = estimate_layer(w, config).stats.cycles;

    const SaloEngine engine(config);
    const QkvSet qkv = make_qkv(w, 7);
    t.engine = engine.run(*engine.compile(w.pattern, w.head_dim), qkv.q, qkv.k, qkv.v,
                          w.scale())
                   .stats.cycles;

    // Heads run as separate passes over one schedule (as in the engine), so
    // one head on a one-array system times the head count is the layer.
    cosim::CosimConfig cosim_config;
    cosim_config.costs = config.tile_cost_params(w.head_dim);
    cosim::MultiArraySystem system(cosim_config);
    const SchedulePlan plan =
        schedule(w.pattern, config.geometry, w.head_dim, config.schedule_options);
    for (const TileCost& cost : plan_tile_costs(plan, cosim_config.costs))
        system.enqueue(0, cost);
    t.cosim = system.run().arrays[0].total_cycles * w.heads;
    return t;
}

QuantStudyConfig stand_in(const char* name, int n, int window, int classes,
                          double confuser_prob, std::uint64_t seed) {
    QuantStudyConfig s;
    s.name = name;
    s.n = n;
    s.window = window;
    s.head_dim = 32;
    s.num_classes = classes;
    s.confuser_prob = confuser_prob;
    s.num_samples = 400;
    s.seed = seed;
    return s;
}

}  // namespace

int main() {
    const SaloConfig config;
    const auto cpu = xeon_e5_2630_v3();
    const auto gpu = gtx_1080ti();
    const auto workloads = paper_workloads();
    constexpr auto kCal = Provenance::kCalibrated;
    constexpr auto kSub = Provenance::kSubstituted;
    Ledger ledger;

    // --- §6.2, Figure 7: speedup and energy saving over CPU and GPU --------
    ledger.section("6.2");
    // Paper values for Longformer, ViL stage 1 and ViL stage 2, and each
    // row's committed status: only the Longformer rows vs CPU hold.
    struct Fig7 {
        const char* claim;
        const DeviceSpec& device;
        bool energy;  ///< Figure 7b's energy saving, else 7a's speedup
        double paper[3];
        bool holds[3];
        double paper_average;
    };
    const Fig7 fig7[] = {
        {"Fig. 7a speedup vs CPU", cpu, false, {83.57, 83.12, 101.31}, {true, false, false},
         89.33},
        {"Fig. 7a speedup vs GPU", gpu, false, {7.38, 20.10, 25.51}, {false, false, false},
         17.66},
        {"Fig. 7b energy saving vs CPU", cpu, true, {196.90, 187.53, 167.15},
         {true, false, false}, 183.86},
        {"Fig. 7b energy saving vs GPU", gpu, true, {336.05, 281.29, 198.78},
         {false, false, false}, 272.04},
    };
    for (const Fig7& f : fig7) {
        double sum = 0.0;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const auto vs = compare_energy(workloads[i], f.device, config);
            const double ours = f.energy ? vs.energy_saving() : vs.speedup();
            sum += ours;
            Row& r = ledger.near(std::string(f.claim) + ", " + workloads[i].name + " (x)",
                                 f.paper[i], ours, 2, kCal);
            if (!f.holds[i])
                r.not_reproduced =
                    "the CPU/GPU models fit one efficiency per device and kernel kind "
                    "(1D banded, 2D unfold), so both ViL stages share one; single rows "
                    "miss by up to 11 %";
        }
        ledger.near(std::string(f.claim) + ", average (x)", f.paper_average,
                    sum / static_cast<double>(workloads.size()), 2, kCal);
    }

    // SALO's side of Figure 7: the layer latency, three ways. The committed
    // cycles are the ones every Figure 7 row above divides by.
    const std::int64_t kCommittedCycles[] = {6384288, 567414, 273588};
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const auto& w = workloads[i];
        const ThreeWay t = salo_cycles(w, config);
        ledger.exact("SALO layer cycles, " + w.name + ": estimate_layer (committed)",
                     kCommittedCycles[i], t.model);
        ledger.exact("SALO layer cycles, " + w.name + ": engine SimStats = estimate_layer",
                     t.model, t.engine);
        ledger.exact("SALO layer cycles, " + w.name + ": 1-array cosim = estimate_layer",
                     t.model, t.cosim);
    }

    // --- Table 1: synthesis ---------------------------------------------------
    ledger.section("T1");
    const auto synth = synthesize(config.geometry);
    ledger.near("frequency (GHz)", 1.0, synth.frequency_ghz, 1, kCal);
    ledger.near("power (mW)", 532.66, synth.total_power_mw(), 2, kCal);
    ledger.near("area (mm^2)", 4.56, synth.total_area_mm2(), 2, kCal);

    // --- Table 2: workload sparsity -------------------------------------------
    ledger.section("T2");
    for (const auto& w : workloads) {
        const double ng = static_cast<double>(w.pattern.global_tokens().size());
        ledger.rounded("sparsity, " + w.name + ": (window + globals) / n", w.paper_sparsity,
                       (w.window + ng) / w.n(), 3);
        ledger.rounded("sparsity, " + w.name + ": exact, of the pattern", w.paper_sparsity,
                       w.pattern.sparsity(), 3)
            .not_reproduced =
            "the paper counts full windows; the pattern clips them at the sequence "
            "(image) edges";
    }

    // --- Table 3: quantization vs accuracy (synthetic stand-in datasets) -------
    ledger.section("T3");
    {
        SaloConfig small = config;
        small.geometry.rows = 16;
        small.geometry.cols = 16;
        struct Dataset {
            QuantStudyConfig study;
            double original, quantized;
        };
        const Dataset datasets[] = {
            {stand_in("IMDB", 192, 32, 2, 0.84, 101), 95.34, 95.20},
            {stand_in("Hyperpartisan", 256, 32, 2, 0.87, 202), 93.42, 93.46},
            {stand_in("ImageNet-1K", 144, 24, 8, 0.78, 303), 82.87, 82.80},
        };
        double max_delta = 0.0, paper_max_delta = 0.0;
        for (const Dataset& ds : datasets) {
            const auto result = run_quant_study(ds.study, small);
            ledger.near("accuracy, " + ds.study.name + " stand-in: original (%)", ds.original,
                        result.accuracy_original, 2, kCal);
            ledger.near("accuracy, " + ds.study.name + " stand-in: quantized (%)",
                        ds.quantized, result.accuracy_quantized, 2, kSub);
            max_delta = std::max(max_delta, std::abs(result.delta()));
            paper_max_delta = std::max(paper_max_delta, std::abs(ds.quantized - ds.original));
        }
        ledger.bounded("quantization moves accuracy by at most 0.5 points (max |delta|, paper " +
                           fmt(paper_max_delta, 2) + ")",
                       "<= 0.50", 0.0, 0.5, max_delta, 2, kSub);
    }

    // --- §2.1: dense attention grows quadratically ------------------------------
    ledger.section("2.1");
    ledger.bounded("dense BERT layer on SALO's cycle model, n = 1024 over n = 512 (x)", "4 (quadratic)", 3.4,
                   4.6, estimate_layer(bert_base(1024), config).latency_ms /
                            estimate_layer(bert_base(512), config).latency_ms,
                   2);
    ledger.near("dense BERT layer on the GPU model, n = 2048 (ms)", 9.20,
                dense_attention_ms(gpu, 2048, 768), 2, kCal);
    ledger.near("dense BERT layer on the GPU model, n = 8192 (ms)", 145.70,
                dense_attention_ms(gpu, 8192, 768), 2, kCal);
    ledger.near("GPU model, n = 8192 over n = 2048 (x)", 16.0,
                dense_attention_ms(gpu, 8192, 768) / dense_attention_ms(gpu, 2048, 768), 2,
                kCal);

    // --- §1: SALO keeps hybrid attention linear in n -----------------------------
    ledger.section("1");
    {
        double worst = 0.0, prev = 0.0;
        for (int n : {1024, 2048, 4096, 8192, 16384}) {
            const double ms = estimate_layer(longformer_small(n, 512, 12, 64, 1), config)
                                  .latency_ms;
            if (prev > 0.0) worst = std::max(worst, ms / prev);
            prev = ms;
        }
        ledger.bounded("SALO latency per doubling of n, w = 512, n = 1k..16k (largest x)",
                       "~2 (linear)", 1.8, 2.2, worst, 2);
    }

    // --- §5.2: the global PE row and column absorb global work -------------------
    ledger.section("5.2");
    {
        std::int64_t catchup = 0;
        for (const auto& w : workloads)
            catchup += estimate_layer(w, config).schedule.catchup_tiles;
        ledger.exact("catch-up tiles on the three Figure 7 workloads (n_g = 1)", 0, catchup);
        auto with_globals = [&](int ng) {
            return estimate_layer(longformer_small(4096, 512, 12, 64, ng), config);
        };
        const auto ng0 = with_globals(0), ng8 = with_globals(8), ng16 = with_globals(16);
        ledger.exact("catch-up tiles, Longformer-4096, n_g = 8", 0, ng8.schedule.catchup_tiles);
        ledger.bounded("n_g = 8 leaves latency unchanged: cycles added over n_g = 0 (%)",
                       "~0", 0.0, 0.01,
                       (static_cast<double>(ng8.stats.cycles) / ng0.stats.cycles - 1.0) * 100.0,
                       4);
        ledger.exact("catch-up tiles, Longformer-4096, n_g = 16 = min{n/rows, w/cols}", 0,
                     ng16.schedule.catchup_tiles)
            .not_reproduced =
            "edge row blocks get fewer window tiles than the bound assumes; catch-up "
            "tiles appear from n_g = 9 (1 at 9, 28 at 12, 91 at 15, 120 at 16)";
    }

    // --- §6.3: SALO vs Sanger, and PE utilization ---------------------------------
    ledger.section("6.3");
    {
        const SangerConfig sanger_config;
        const auto& lf = workloads[0];
        ledger.near("speedup over Sanger, Longformer (x)", 1.33,
                    sanger_estimate(sanger_config, lf).latency_ms(1.0) /
                        estimate_layer(lf, config).latency_ms,
                    2, kSub);
        for (const auto& w : workloads) {
            const double occupancy = estimate_layer(w, config).schedule.slot_occupancy();
            Row& r = ledger.bounded("SALO PE slot occupancy, " + w.name + " (%)", "> 75",
                                    75.0, 100.0, occupancy * 100.0, 1);
            if (w.name == "ViL-stage2")
                r.not_reproduced =
                    "the 15x15 window is clipped at the edges of the 28x28 image, and "
                    "the clipped slots stay empty in the packed tiles";
            ledger.bounded("Sanger PE utilization, " + w.name + " (%)", "55-75", 55.0, 75.0,
                           sanger_utilization(w.pattern.sparsity()) * 100.0, 1, kCal);
        }
    }

    // --- Ablations (ours): each conclusion the sweeps drew ------------------------
    ledger.section("abl");
    {
        SaloConfig per_band = config;
        per_band.schedule_options.packing = PackingMode::kPerBand;
        const auto& lf = workloads[0];
        ledger.exact("packing leaves Longformer's 512-wide window alone: per-band tiles",
                     estimate_layer(lf, config).schedule.total_tiles(),
                     estimate_layer(lf, per_band).schedule.total_tiles());

        auto pwl_error = [](int seg_bits) {
            PwlExp::Config cfg;
            cfg.seg_bits = seg_bits;
            return PwlExp(cfg).max_rel_error(-4.0, 8.0);
        };
        ledger.bounded("8 PWL exp segments reach the error floor: max rel error over "
                       "64 segments' on [-4, 8] (x)",
                       "<= 1.25", 0.0, 1.25, pwl_error(3) / pwl_error(6), 2);

        auto recip_error = [](int nr_iters) {
            Reciprocal::Config cfg;
            cfg.nr_iters = nr_iters;
            return Reciprocal(cfg).max_rel_error(0.01, 1000.0);
        };
        const int iters = config.recip_config.nr_iters;
        ledger.bounded(std::to_string(iters) +
                           " Newton-Raphson iterations (default) reach the reciprocal's "
                           "error floor: max rel error over one more iteration's (x)",
                       "<= 1.01", 0.0, 1.01, recip_error(iters) / recip_error(iters + 1), 3);

        const auto energy_mj = [&](int rows, int cols) {
            SaloConfig c = config;
            c.geometry.rows = rows;
            c.geometry.cols = cols;
            return synthesize(c.geometry).total_power_w() * estimate_layer(lf, c).latency_ms;
        };
        const double best_other = std::min({energy_mj(16, 16), energy_mj(16, 32),
                                            energy_mj(32, 64), energy_mj(64, 64)});
        ledger.bounded("32x32 is the energy sweet spot: least energy of 16x16..64x64 over "
                       "32x32's, Longformer (x)",
                       ">= 1", 1.0, 1e9, best_other / energy_mj(32, 32), 3);

        SaloConfig wide_bus = config;
        wide_bus.bus_bytes_per_cycle = 128;
        ledger.bounded("double buffering hides loads at 64 B/cycle: a 128 B/cycle bus saves "
                       "(%, Longformer)",
                       "< 0.1", 0.0, 0.1,
                       (estimate_layer(lf, config).latency_ms /
                            estimate_layer(lf, wide_bus).latency_ms -
                        1.0) * 100.0,
                       3);

        SaloConfig pipelined = config;
        pipelined.tile_pipelining = true;
        const LayerEstimate off = estimate_layer(lf, config);
        const LayerEstimate on = estimate_layer(lf, pipelined);
        ledger.bounded("pipelining runs the next tile's systolic pass under stage 3: cycles "
                       "saved over stage-3 cycles, Longformer (x)",
                       "~1", 0.98, 1.0,
                       static_cast<double>(off.stats.cycles - on.stats.cycles) /
                           static_cast<double>(off.stats.stage_totals.stage[2]),
                       3);
    }

    // --- Input bit-width sweep (ours; supplements Table 3) --------------------------
    ledger.section("bits");
    {
        Rng rng(31);
        const int n = 128, d = 32;
        const auto pattern = sliding_window(n, 16, {0});
        const auto q = random_matrix(n, d, rng, 0.0, 0.8);
        const auto k = random_matrix(n, d, rng, 0.0, 0.8);
        const auto v = random_matrix(n, d, rng, 0.0, 0.8);
        const float scale = 1.0f / std::sqrt(static_cast<float>(d));
        const auto reference = masked_attention(q, k, v, scale, pattern.attend_fn());
        auto error = [&](int frac_bits) {
            const auto out = masked_attention(fake_quantize(q, 3, frac_bits),
                                              fake_quantize(k, 3, frac_bits),
                                              fake_quantize(v, 3, frac_bits), scale,
                                              pattern.attend_fn());
            return compare(reference, out);
        };
        ledger.bounded("Q3.4 (8-bit) inputs: attention SNR vs float (dB)", "> 25", 25.0, 1e9,
                       error(4).snr_db, 1);
        ledger.bounded("below 6 bits fidelity falls sharply: Q3.1 (5-bit) SNR (dB)", "< 15",
                       -1e9, 15.0, error(1).snr_db, 1);
        const double lsb = 1.0 / (1 << Datapath::out_frac);
        ledger.bounded("beyond 8 bits the gain is marginal: max |err| Q3.4 minus Q3.6, in "
                       "Q7.8 output LSBs",
                       "<= 1", 0.0, 1.0, (error(4).max_abs - error(6).max_abs) / lsb, 2)
            .not_reproduced =
            "going from 8 to 10 input bits cuts the max error from 7.2 to 2.1 Q7.8 "
            "output LSBs, a gain the 16-bit output resolves";
    }

    const int drift = ledger.print();
    if (drift > 0) {
        std::cout << drift << " row(s) drifted from their committed status\n";
        return 1;
    }
    return 0;
}
