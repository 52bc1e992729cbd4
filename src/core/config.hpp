// Engine configuration: fidelity levels, hardware/bandwidth parameters and
// host-side execution knobs, shared by the compile entry point, SaloEngine
// and SaloSession. Split out of engine.hpp so the compiled-plan and
// plan-cache layers can depend on the configuration without pulling in the
// execution engine.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>

#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "scheduler/geometry.hpp"
#include "scheduler/scheduler.hpp"
#include "sim/cycle_formulas.hpp"
#include "sim/tile_costs.hpp"

namespace salo {

class FaultInjector;  // common/fault_injector.hpp (test/robustness hook)

enum class Fidelity {
    kGolden,
    kFunctional,
    kCycleAccurate,
};

/// One simulation lane per hardware thread (>= 1).
inline int default_num_threads() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
}

struct SaloConfig {
    ArrayGeometry geometry;
    PwlExp::Config exp_config;
    Reciprocal::Config recip_config;
    ScheduleOptions schedule_options;
    Fidelity fidelity = Fidelity::kFunctional;

    /// Off-chip bandwidth model: bytes transferred per cycle into the
    /// double-buffered SRAMs. Tile loads overlap compute; a tile stalls only
    /// when its input load is longer than the previous tile's compute.
    int bus_bytes_per_cycle = 64;
    bool double_buffer = true;

    /// Inter-tile stage overlap: stage 3 (row ripple + reciprocal +
    /// broadcast) uses the adder tree and the shared reciprocal unit, not
    /// the PE MACs, so the next tile's stage-1 systolic pass can run under
    /// it. When enabled, every tile after the first hides its stage-3
    /// latency. Off by default (the paper does not describe the overlap);
    /// its ablation is a row of bench/paper_claims.cpp.
    bool tile_pipelining = false;

    /// Host-side parallelism for simulation speed only: results are
    /// bit-identical for every value. Defaults to all hardware threads; an
    /// explicit 1 forces the plain sequential path (no pool involved), and
    /// values <= 0 mean "auto" (hardware concurrency).
    int num_threads = default_num_threads();

    /// Capacity of the engine's own CompiledPlan LRU cache (distinct
    /// pattern/geometry/head-dim combinations kept hot), and of a serving
    /// tier's one cache. Must be >= 1.
    int plan_cache_capacity = 64;

    /// Deterministic fault/stall injection consulted at every tile boundary
    /// of every run through this engine (see common/fault_injector.hpp).
    /// Null (the default) costs nothing; a per-request injector on an
    /// AttentionRequest overrides this one for that request.
    std::shared_ptr<const FaultInjector> fault_injector;

    /// Reject nonsensical values (zero geometry, non-positive bandwidth,
    /// NaN frequency, ...) with a ContractViolation naming the offending
    /// field, instead of tripping an opaque assertion — or worse — deep in
    /// the scheduler. Called by SaloEngine, compile() and SaloSession.
    void validate() const;

    /// The lane count `num_threads` resolves to (<= 0 means auto).
    int effective_threads() const {
        return num_threads <= 0 ? default_num_threads() : num_threads;
    }

    CycleConfig cycle_config() const {
        CycleConfig c;
        c.recip = recip_config;
        return c;
    }

    /// The sequential cycle-accounting parameters for head dimension `d` —
    /// the contract shared by the engine, the analytic model and the
    /// co-simulation kernel (sim/tile_costs.hpp).
    TileCostParams tile_cost_params(int d) const {
        TileCostParams p;
        p.cycle = cycle_config();
        p.head_dim = d;
        p.bus_bytes_per_cycle = bus_bytes_per_cycle;
        p.double_buffer = double_buffer;
        p.tile_pipelining = tile_pipelining;
        return p;
    }
};

}  // namespace salo
