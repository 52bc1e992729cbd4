// SaloEngine: the execution back end of the SALO reproduction.
//
// Drives the full pipeline of the paper's Figure 3: the hybrid sparse
// attention pattern and hardware metadata go to the data scheduler; the
// quantized Query/Key/Value stream through the spatial accelerator
// (functional or cycle-accurate model); per-part outputs are merged by the
// weighted-sum module (Eq. 2); the result is dequantized back to float.
//
// API lifecycle (see docs/API.md):
//
//   compile(pattern, head_dim, config)          -> CompiledPlan  // once per shape
//   engine.run(plan, q, k, v, scale[, options]) -> LayerResult   // many times
//   engine.run_step(micro, q_row, k, v, scale)  -> StepResult    // one decode step
//
// compile() goes through the engine's PlanCache (its own, or the one a
// serving tier gives every shard), so repeated shapes never re-run the
// scheduler. For request-level serving (many in-flight
// layers sharing the engines) use ShardedSession / DecodeSession
// (core/shard_router.hpp, core/decode_session.hpp).
//
// Fidelity levels:
//   kGolden        — float masked attention, no hardware at all (oracle);
//   kFunctional    — bit-accurate fixed-point datapath, analytic cycles;
//   kCycleAccurate — bit-accurate datapath driven cycle-by-cycle (slow;
//                    validates the analytic cycle model).
//
// Execution: the engine owns a persistent worker pool, and a head is the only
// parallel work quantum. Each lane runs whole heads through the sequential
// tile loop, merging every part into the head's weighted-sum module the
// moment it is made, in schedule order — the order one lane uses — so
// results are bit-identical for every thread count, and finalizes the
// head's output slice on the lane. A single-head call always runs on the
// caller.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>

#include "common/assert.hpp"
#include "common/fault_injector.hpp"
#include "common/thread_pool.hpp"
#include "core/cancellation.hpp"
#include "core/config.hpp"
#include "core/errors.hpp"
#include "core/plan_cache.hpp"
#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "pattern/pattern.hpp"
#include "scheduler/scheduler.hpp"
#include "sim/cycle_formulas.hpp"
#include "sim/parts.hpp"
#include "tensor/tensor3.hpp"

namespace salo {

struct HeadResult {
    Matrix<float> output;  ///< n x d attention output
    SimStats stats;
};

struct LayerResult {
    Tensor3<float> output;  ///< per-head n x d attention outputs
    SimStats stats;         ///< summed over heads
    ScheduleStats schedule; ///< the (head-independent) schedule statistics
};

/// One decode step's output: the attention row of the newly appended
/// position, per head (run_step).
struct StepResult {
    Tensor3<float> output;  ///< [heads][1][head_dim]
    SimStats stats;         ///< summed over heads
    int position = 0;       ///< query row in the full sequence
};

/// Per-run execution controls (all optional; the zero value runs at the
/// configured fidelity on the configured lanes with no robustness hooks).
/// The hooks are checked at tile boundaries, so an in-flight
/// run stops early on cancellation or deadline expiry by throwing the
/// typed error — results that do complete are untouched and keep the
/// bit-identity guarantee.
struct RunOptions {
    /// Execution fidelity; defaults to the engine's configured fidelity.
    std::optional<Fidelity> fidelity;
    /// Lanes for a multi-head layer. 1 runs the heads one after another on
    /// the caller with no pool involvement, so many such calls can run
    /// concurrently. <= 0 (the configured thread count) or > 1 runs one head
    /// per pool task; values > 1 are NOT a lane bound: the region always
    /// runs on the engine's full pool, and concurrent regions serialize on
    /// it. Callers running requests concurrently should pass 1 per request
    /// (as the serving tiers do) and parallelize across calls. Results are
    /// bit-identical for every value.
    int thread_budget = 0;
    /// Checked at every tile boundary; fires RequestCancelled.
    CancellationToken cancel;
    /// Absolute deadline; past-due tile boundaries fire DeadlineExceeded.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Fault/stall injection hook (tests, overload experiments). Not
    /// owned; must outlive the run. Overrides SaloConfig::fault_injector.
    const FaultInjector* fault_injector = nullptr;
};

class SaloEngine {
public:
    SaloEngine();  // default configuration
    /// `plan_cache` null (the default): the engine builds its own of
    /// config.plan_cache_capacity. A serving tier passes its one cache to
    /// every shard engine.
    explicit SaloEngine(const SaloConfig& config,
                        std::shared_ptr<PlanCache> plan_cache = nullptr);

    const SaloConfig& config() const { return config_; }

    // --- Compiled-plan API -------------------------------------------------

    /// Compile `pattern` for `head_dim` through the engine's PlanCache:
    /// repeated shapes return the shared cached artifact without re-running
    /// the scheduler. Thread-safe.
    CompiledPlanPtr compile(const HybridPattern& pattern, int head_dim) const;

    /// Run one attention head on a compiled plan. `scale` (typically
    /// 1/sqrt(d)) is folded into Q before quantization, as the hardware
    /// driver would do. The plan must have been compiled for this engine's
    /// geometry and schedule options. Runs at the configured fidelity with
    /// the engine-level fault injector, like run() with default options.
    HeadResult run_head(const CompiledPlan& plan, const Matrix<float>& q,
                        const Matrix<float>& k, const Matrix<float>& v,
                        float scale) const;

    /// Run a multi-head attention layer on a compiled plan; the schedule is
    /// shared across heads. `options` selects the fidelity and thread budget
    /// and carries the robustness hooks (cancellation, deadline, fault
    /// injection) checked at tile boundaries: RequestCancelled /
    /// DeadlineExceeded / EngineFault are thrown from the calling thread
    /// when a hook fires mid-run.
    LayerResult run(const CompiledPlan& plan, const Tensor3<float>& q,
                    const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                    const RunOptions& options = {}) const;

    /// Shim: perfbench only, removed by ROADMAP item 9.
    LayerResult run(const CompiledPlan& plan, const Tensor3<float>& q,
                    const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                    Fidelity fidelity, int thread_budget) const {
        RunOptions options;
        options.fidelity = fidelity;
        options.thread_budget = thread_budget;
        return run(plan, q, k, v, scale, options);
    }

    /// Shim: perfbench only, removed by ROADMAP item 9.
    LayerResult run(const HybridPattern& pattern, const Tensor3<float>& q,
                    const Tensor3<float>& k, const Tensor3<float>& v, float scale) const {
        SALO_EXPECTS(q.count() >= 1);
        return run(*compile(pattern, q.cols()), q, k, v, scale);
    }

    // --- Incremental decode API --------------------------------------------

    /// The decode micro-plan for the last row of `pattern` (a prefix
    /// pattern: n = prefix length, step position = n - 1), resolved through
    /// the engine's PlanCache — the full plan is compiled at most once per
    /// shape and every step derivation is cached under its own
    /// step_plan_fingerprint key. Requires decode_compatible(pattern).
    CompiledPlanPtr compile_step(const HybridPattern& pattern, int head_dim) const;

    /// Execute one decode step: query row `position` of the micro-plan's
    /// pattern against the compact K/V layout BasicDecodeState::assemble()
    /// produces. `q_row` is heads x head_dim (one query row per head);
    /// `k`/`v` are [heads][compact_rows][head_dim]. Bit-identical to row
    /// `position` of run() over the full prefix at the same fidelity:
    /// the micro-plan replays exactly the tiles/parts the full schedule
    /// emits for that row, in the same order, through the same integer
    /// datapath. Robustness hooks behave as in run().
    ///
    /// T is the K/V element type (instantiated for float and int8_t).
    /// Float K/V (DecodeState) is quantized here, per step; int8 K/V
    /// (QuantizedDecodeState) already holds the InputFx raw values and
    /// skips that work. The golden oracle needs float K/V, so int8 K/V
    /// under kGolden is a ContractViolation.
    template <typename T>
    StepResult run_step(const CompiledPlan& micro, const Matrix<float>& q_row,
                        const Tensor3<T>& k, const Tensor3<T>& v, float scale,
                        const RunOptions& options = {}) const;

    /// Cumulative statistics of the PlanCache serving compile() and
    /// compile_step(). On a serving tier that is the tier's one cache, so
    /// every shard engine reports the same counters.
    PlanCacheStats plan_cache_stats() const;

    /// Float oracle for the same computation (no quantization, no hardware).
    static Matrix<float> golden(const HybridPattern& pattern, const Matrix<float>& q,
                                const Matrix<float>& k, const Matrix<float>& v, float scale);

private:
    /// Resolved robustness hooks for one run; null pointer = none active,
    /// which keeps the hot path free of per-tile clock reads and atomics.
    struct RunControl {
        const CancellationToken* cancel = nullptr;  ///< non-null iff cancellable
        bool has_deadline = false;
        std::chrono::steady_clock::time_point deadline{};
        const FaultInjector* fault = nullptr;

        bool active() const { return cancel != nullptr || has_deadline || fault != nullptr; }

        /// Called before executing tile `tile` (schedule order; -1 marks a
        /// head boundary on paths without a tile loop).
        void check(int tile) const {
            if (cancel != nullptr && cancel->cancelled())
                throw RequestCancelled("request cancelled at tile boundary " +
                                       std::to_string(tile));
            if (has_deadline && std::chrono::steady_clock::now() > deadline)
                throw DeadlineExceeded("deadline exceeded at tile boundary " +
                                       std::to_string(tile));
            // The injector gets the deadline and token so an injected stall
            // is bounded by them (it throws instead of sleeping past either).
            if (fault != nullptr)
                fault->on_tile(tile,
                               has_deadline ? std::optional<std::chrono::steady_clock::
                                                                time_point>(deadline)
                                            : std::nullopt,
                               cancel);
        }
    };

    /// The plan must match this engine's geometry/options (checked).
    void check_compatible(const CompiledPlan& plan) const;

    /// The robustness hooks of `options`, with the engine-level fault
    /// injector as the fallback.
    RunControl run_control(const RunOptions& options) const;

    /// One head of `plan`: the golden oracle, or quantize at the accelerator
    /// boundary and run the sequential tile loop. q is the plan's query rows
    /// (all n for a layer, the one step row for a micro-plan); float K/V are
    /// quantized here, int8 K/V already hold the InputFx raw values. `ctl`
    /// may be null (no robustness hooks active).
    template <typename T>
    HeadResult run_one_head(const CompiledPlan& plan, const Matrix<float>& q,
                            const Matrix<T>& k, const Matrix<T>& v, float scale,
                            Fidelity fidelity, const RunControl* ctl) const;

    /// Runs `run_one(h) -> HeadResult` for every head — one whole head per
    /// pool task when `thread_budget` allows more than one lane and there
    /// is more than one head, else in order on the caller — builds `out`
    /// from the heads' outputs (slice h is head h's) and returns the summed
    /// stats. Throws, leaving `out` as it was, if any head throws.
    template <typename RunHead>
    SimStats run_heads(int heads, int thread_budget, Tensor3<float>& out,
                       RunHead&& run_one) const;

    /// The persistent worker pool (built on first use, sized num_threads).
    ThreadPool& pool() const;

    SaloConfig config_;
    PwlExp exp_unit_;
    Reciprocal recip_unit_;
    std::shared_ptr<PlanCache> plan_cache_;  ///< own, or the one the constructor was given
    mutable std::once_flag pool_once_;
    mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace salo
