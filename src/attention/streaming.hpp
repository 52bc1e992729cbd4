// Streaming (online-softmax) attention reference, and the per-stream
// running K/V state of autoregressive decode.
//
// streaming_masked_attention computes masked attention in one pass over key
// blocks, maintaining a running (max, weight, output) triple per query and
// renormalizing on the fly — the same mathematics as SALO's window
// splitting + weighted-sum module (paper §4.2/Appendix A), and of
// FlashAttention-style kernels. Serves as an independent float oracle for
// the renormalization identity: for any block size the result must equal
// ordinary masked attention.
//
// DecodeState is the stateful sibling: it holds exactly the K/V rows a
// causal sliding-window + global pattern can still reference — a ring
// buffer of the last `window_span` positions plus pinned copies of the
// global tokens — so one decode step appends one row and assembles a
// compact K/V whose size is bounded by the pattern, not the prefix length.
// QuantizedDecodeState is the same state holding int8 Q3.4 rows.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "attention/golden.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor3.hpp"

namespace salo {

/// Masked attention computed over key blocks of `block_size`, merging each
/// block's partial softmax into the running result via the Eq. 2 / online
/// renormalization. block_size >= 1; block_size >= n reduces to one pass.
Matrix<float> streaming_masked_attention(const Matrix<float>& q, const Matrix<float>& k,
                                         const Matrix<float>& v, float scale,
                                         const AttendFn& attends, int block_size);

/// Per-stream K/V running state for causal streaming decode, storing rows
/// as element type T (float or int8_t). Float (DecodeState) keeps the
/// caller's rows as given; int8 (QuantizedDecodeState) keeps them as
/// InputFx raw values, quantized once when the row is appended — the way
/// the accelerator's on-chip buffer holds K/V. Quantization is elementwise,
/// so the int8 rows are exactly the bits quantize<InputFx> makes of the
/// float rows.
///
/// Retention contract: after append()ing positions 0..L-1, the state can
/// reproduce every key/value row a causal band set with
/// decode_window_span(bands) == window_span, plus the given global tokens,
/// may reference at step L-1 or any later step:
///
///   * the *ring* keeps the last window_span positions; appending position
///     p overwrites slot p % window_span — that overwrite IS the
///     window-boundary eviction, no separate pass;
///   * every global position is additionally *pinned* on append, so it
///     survives ring eviction forever.
///
/// assemble() lays the live rows out compactly as
///   [pinned globals, ascending] [ring window window_lo()..L-1]
/// which is the key-space the step micro-plan (core/compiled_plan.hpp)
/// is rewritten against. A global inside the current window appears in
/// both sections; the copies are bit-identical, so either reference
/// produces the same result.
template <typename T>
class BasicDecodeState {
    static_assert(std::is_same_v<T, float> || std::is_same_v<T, std::int8_t>);

public:
    /// `global_tokens` are absolute positions (sorted + deduplicated here);
    /// they must all be < n of any pattern this state serves, but may be
    /// anywhere relative to window_span — pinning keeps evicted globals.
    BasicDecodeState(int heads, int head_dim, int window_span,
                     std::vector<int> global_tokens);

    int heads() const { return heads_; }
    int head_dim() const { return head_dim_; }
    int window_span() const { return span_; }
    const std::vector<int>& global_tokens() const { return globals_; }

    /// Number of positions appended so far (the prefix length L).
    int length() const { return length_; }
    /// First position still in the ring: max(0, L - window_span).
    int window_lo() const;
    /// Globals already appended: #{g in global_tokens : g < L}.
    int num_pinned() const;
    /// Rows assemble() produces: num_pinned() + (L - window_lo()).
    int compact_rows() const;

    /// Append position L's key/value rows (one row per head; k_row and
    /// v_row are heads x head_dim). Overwrites ring slot L % window_span
    /// and pins the row if L is a global token.
    void append(const Matrix<float>& k_row, const Matrix<float>& v_row);

    /// Compact-row index of absolute key position j as seen by the *latest*
    /// step: ring rows for j >= window_lo(), pinned rows for evicted
    /// globals. j must be a retained position (ContractViolation otherwise).
    int compact_index(int j) const;

    /// Materialize the compact K/V: [heads][compact_rows()][head_dim].
    std::pair<Tensor3<T>, Tensor3<T>> assemble() const;

private:
    int heads_;
    int head_dim_;
    int span_;
    std::vector<int> globals_;
    int length_ = 0;
    Tensor3<T> k_ring_, v_ring_;  ///< [heads][span][d], slot = p % span
    Tensor3<T> k_pin_, v_pin_;    ///< [heads][globals][d], sorted order
};

/// Float rows: golden-fidelity streams and callers that hold float K/V.
using DecodeState = BasicDecodeState<float>;
/// InputFx rows, quantized at append: the hardware-fidelity streams.
using QuantizedDecodeState = BasicDecodeState<std::int8_t>;

}  // namespace salo
