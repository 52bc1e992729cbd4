// Weighted-sum module (paper §5.3).
//
// Postprocesses the per-part outputs produced by window splitting: given a
// running (W_prev, out_prev) and a new part (W_new, out_new), it computes
//
//   out = W_prev/(W_prev+W_new) * out_prev + W_new/(W_prev+W_new) * out_new
//
// which is exactly Eq. 2 / Appendix A — the renormalization that recovers
// the unsplit softmax. Hardware cost per PE row: two multipliers and an
// adder, plus one reciprocal evaluation shared with the stage-3 unit. The
// running output is held with wsm_frac guard bits; the final emission
// quantizes to the paper's 16-bit output format.
#pragma once

#include <cstdint>
#include <vector>

#include "numeric/fixed.hpp"
#include "numeric/reciprocal.hpp"
#include "sim/kernels.hpp"
#include "sim/parts.hpp"
#include "tensor/matrix.hpp"

namespace salo {

class WeightedSumModule {
public:
    /// n queries, head dimension d. `kernel_set` picks the ISA level of
    /// the vectorized merge (defaults to the widest the host runs; every
    /// level gives the same bits).
    WeightedSumModule(int n, int d, const Reciprocal& recip_unit,
                      const kernels::KernelSet& kernel_set = kernels::dispatched());

    /// Merge one part into the running output of part.query (Eq. 2).
    ///
    /// The merge *order within one query* determines the rounded result;
    /// the engine merges each head's parts in schedule order, on the one
    /// lane that runs the head, so every lane count gives the same bits.
    void merge(const TilePart& part);

    /// Number of parts merged so far (diagnostics).
    std::int64_t merges() const { return merges_; }

    /// finalize(), written into `out` (n x d) in one pass with no
    /// temporaries: each running output is rounded by wsm_frac - out_frac
    /// bits, saturated to Q7.8 and scaled. Queries never merged read 0.
    void finalize_into(Matrix<float>& out) const;

    /// Final outputs as raw 16-bit Q7.8 (the accelerator's output format).
    Matrix<std::int16_t> finalize_raw() const;

    /// Final outputs dequantized to float.
    Matrix<float> finalize() const;

private:
    const Reciprocal* recip_unit_;
    kernels::MixFn mix_;  ///< the kernel set's, resolved once
    int n_;
    int d_;
    std::vector<SumRaw> weight_;                ///< running W per query
    std::vector<std::int32_t> out_q_;           ///< running outputs, Q.wsm_frac
    std::vector<std::uint8_t> initialized_;
    std::int64_t merges_ = 0;
};

}  // namespace salo
