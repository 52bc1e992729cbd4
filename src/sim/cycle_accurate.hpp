// Cycle-accurate model of the spatial accelerator (paper §5, Fig. 5/6).
//
// Executes one TileTask by marching through the five datapath stages with
// explicit per-cycle loops and per-PE architectural state:
//
//   stage 1 — output-stationary systolic Q*K^T: PE(r,c) fires its MAC in the
//             cycle window [r+c, r+c+d), exactly the skew of diagonal K/V
//             streams meeting horizontally-flowing queries;
//   stage 2 — PWL exponential in every PE (parallel; fixed latency);
//   stage 3 — row-ripple accumulation left->right (one column per cycle),
//             reciprocal-unit latency, one broadcast cycle;
//   stage 4 — S' = exp * (1/W) multiply;
//   stage 5 — weight-stationary S'*V: output element t leaves the row at
//             cycle t + cols_used - 1; weighted-sum pipeline tail.
//
// Numeric results and activity counters are bit-identical to the functional
// TileExecutor, but the array shares none of its kernels: every stage runs
// on the scalar numeric units (PwlExp::exp_raw, Reciprocal::inv_raw,
// normalize_prob, round_shift), so it is the one bit-level oracle the
// production datapath is tested against. It also *measures* cycle counts
// and PE activity, which validate the closed-form formulas in
// cycle_formulas.hpp and feed the utilization comparison of paper §6.3.
#pragma once

#include <cstdint>
#include <vector>

#include "numeric/pwl_exp.hpp"
#include "numeric/reciprocal.hpp"
#include "scheduler/tile.hpp"
#include "sim/cycle_formulas.hpp"
#include "sim/parts.hpp"
#include "tensor/matrix.hpp"

namespace salo {

class CycleAccurateArray {
public:
    CycleAccurateArray(const ArrayGeometry& geometry, const CycleConfig& cycle_config,
                       const PwlExp& exp_unit, const Reciprocal& recip_unit,
                       const Matrix<std::int8_t>& q, const Matrix<std::int8_t>& k,
                       const Matrix<std::int8_t>& v);

    /// Execute one tile cycle-by-cycle. Appends output parts, accumulates
    /// activity (including pe_cycles) and returns the measured breakdown.
    CycleBreakdown run(const TileTask& tile, std::vector<TilePart>& parts,
                       ActivityStats& activity) const;

private:
    ArrayGeometry geometry_;
    CycleConfig cycle_config_;
    const PwlExp* exp_unit_;
    const Reciprocal* recip_unit_;
    const Matrix<std::int8_t>* q_;
    const Matrix<std::int8_t>* k_;
    const Matrix<std::int8_t>* v_;
};

}  // namespace salo
