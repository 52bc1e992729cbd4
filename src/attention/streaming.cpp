#include "attention/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "sim/kernels.hpp"

namespace salo {

// ---------------------------------------------------------------------------
// BasicDecodeState
// ---------------------------------------------------------------------------

template <typename T>
BasicDecodeState<T>::BasicDecodeState(int heads, int head_dim, int window_span,
                                      std::vector<int> global_tokens)
    : heads_(heads), head_dim_(head_dim), span_(window_span),
      globals_(std::move(global_tokens)) {
    SALO_EXPECTS(heads_ >= 1);
    SALO_EXPECTS(head_dim_ >= 1);
    SALO_EXPECTS(span_ >= 1);
    std::sort(globals_.begin(), globals_.end());
    globals_.erase(std::unique(globals_.begin(), globals_.end()), globals_.end());
    for (int g : globals_) SALO_EXPECTS(g >= 0);
    k_ring_ = Tensor3<T>(heads_, span_, head_dim_);
    v_ring_ = Tensor3<T>(heads_, span_, head_dim_);
    const int ng = static_cast<int>(globals_.size());
    k_pin_ = Tensor3<T>(heads_, ng, head_dim_);
    v_pin_ = Tensor3<T>(heads_, ng, head_dim_);
}

template <typename T>
int BasicDecodeState<T>::window_lo() const {
    return std::max(0, length_ - span_);
}

template <typename T>
int BasicDecodeState<T>::num_pinned() const {
    return static_cast<int>(std::lower_bound(globals_.begin(), globals_.end(), length_) -
                            globals_.begin());
}

template <typename T>
int BasicDecodeState<T>::compact_rows() const {
    return num_pinned() + (length_ - window_lo());
}

template <typename T>
void BasicDecodeState<T>::append(const Matrix<float>& k_row, const Matrix<float>& v_row) {
    SALO_EXPECTS(k_row.rows() == heads_ && k_row.cols() == head_dim_);
    SALO_EXPECTS(v_row.rows() == heads_ && v_row.cols() == head_dim_);
    const int slot = length_ % span_;  // overwriting = window-boundary eviction
    const auto pin = std::lower_bound(globals_.begin(), globals_.end(), length_);
    const bool is_global = pin != globals_.end() && *pin == length_;
    const int pin_idx = static_cast<int>(pin - globals_.begin());
    const auto d = static_cast<std::size_t>(head_dim_);
    const auto store = [&](const Matrix<float>& src, Tensor3<T>& ring, Tensor3<T>& pinned,
                           int h) {
        T* dst = ring[h].row(slot).data();
        if constexpr (std::is_same_v<T, float>)
            std::copy_n(src.row(h).data(), d, dst);
        else
            kernels::dispatched().quantize(src.row(h).data(), d, 1.0f, dst);
        if (is_global) std::copy_n(dst, d, pinned[h].row(pin_idx).data());
    };
    for (int h = 0; h < heads_; ++h) {
        store(k_row, k_ring_, k_pin_, h);
        store(v_row, v_ring_, v_pin_, h);
    }
    ++length_;
}

template <typename T>
int BasicDecodeState<T>::compact_index(int j) const {
    SALO_EXPECTS(j >= 0 && j < length_);
    if (j >= window_lo()) return num_pinned() + (j - window_lo());
    // Evicted from the ring: only a pinned global survives.
    const auto pin = std::lower_bound(globals_.begin(), globals_.end(), j);
    SALO_EXPECTS(pin != globals_.end() && *pin == j);
    return static_cast<int>(pin - globals_.begin());
}

template <typename T>
std::pair<Tensor3<T>, Tensor3<T>> BasicDecodeState<T>::assemble() const {
    const int np = num_pinned();
    const int lo = window_lo();
    const int rows = compact_rows();
    const auto d = static_cast<std::size_t>(head_dim_);
    Tensor3<T> k(heads_, rows, head_dim_);
    Tensor3<T> v(heads_, rows, head_dim_);
    for (int h = 0; h < heads_; ++h) {
        // Pinned rows are contiguous and already in compact order.
        std::copy_n(k_pin_[h].data().data(), static_cast<std::size_t>(np) * d,
                    k[h].data().data());
        std::copy_n(v_pin_[h].data().data(), static_cast<std::size_t>(np) * d,
                    v[h].data().data());
        for (int j = lo; j < length_; ++j) {
            const int slot = j % span_;
            const int r = np + (j - lo);
            std::copy_n(k_ring_[h].row(slot).data(), d, k[h].row(r).data());
            std::copy_n(v_ring_[h].row(slot).data(), d, v[h].row(r).data());
        }
    }
    return {std::move(k), std::move(v)};
}

template class BasicDecodeState<float>;
template class BasicDecodeState<std::int8_t>;

Matrix<float> streaming_masked_attention(const Matrix<float>& q, const Matrix<float>& k,
                                         const Matrix<float>& v, float scale,
                                         const AttendFn& attends, int block_size) {
    SALO_EXPECTS(q.cols() == k.cols());
    SALO_EXPECTS(k.rows() == v.rows());
    SALO_EXPECTS(block_size >= 1);
    const int n = q.rows();
    const int m = k.rows();
    const int d = v.cols();
    const int dk = q.cols();

    // Running state per query: max score, total weight, unnormalized-by-
    // weight output (i.e. the normalized output of everything seen so far).
    // The outputs live in one flat n*d buffer — one allocation, contiguous
    // per-query rows — instead of n separate heap vectors.
    std::vector<double> run_max(static_cast<std::size_t>(n),
                                -std::numeric_limits<double>::infinity());
    std::vector<double> run_weight(static_cast<std::size_t>(n), 0.0);
    std::vector<double> run_out(static_cast<std::size_t>(n) * static_cast<std::size_t>(d),
                                0.0);

    std::vector<double> scores;
    std::vector<int> cols;
    std::vector<double> out_block(static_cast<std::size_t>(d));
    for (int b0 = 0; b0 < m; b0 += block_size) {
        const int b1 = std::min(m, b0 + block_size);
        for (int i = 0; i < n; ++i) {
            scores.clear();
            cols.clear();
            double block_max = -std::numeric_limits<double>::infinity();
            const float* qi = q.row(i).data();
            for (int j = b0; j < b1; ++j) {
                if (!attends(i, j)) continue;
                const float* kj = k.row(j).data();
                double dot = 0.0;
                for (int t = 0; t < dk; ++t) dot += static_cast<double>(qi[t]) * kj[t];
                dot *= scale;
                scores.push_back(dot);
                cols.push_back(j);
                block_max = std::max(block_max, dot);
            }
            if (cols.empty()) continue;

            // Block-local softmax parts (weight W_b and normalized out_b).
            double w_block = 0.0;
            std::fill(out_block.begin(), out_block.end(), 0.0);
            for (std::size_t s = 0; s < cols.size(); ++s) {
                const double e = std::exp(scores[s] - block_max);
                w_block += e;
                const float* vr = v.row(cols[s]).data();
                for (int t = 0; t < d; ++t)
                    out_block[static_cast<std::size_t>(t)] += e * static_cast<double>(vr[t]);
            }
            for (double& x : out_block) x /= w_block;

            // Merge with the running state (Eq. 2 with max rebasing).
            double* out = run_out.data() + static_cast<std::size_t>(i) *
                                               static_cast<std::size_t>(d);
            double& w_run = run_weight[static_cast<std::size_t>(i)];
            double& m_run = run_max[static_cast<std::size_t>(i)];
            const double new_max = std::max(m_run, block_max);
            const double w_prev = w_run * std::exp(m_run - new_max);
            const double w_new = w_block * std::exp(block_max - new_max);
            const double w_total = w_prev + w_new;
            for (int t = 0; t < d; ++t)
                out[t] = (w_prev * out[t] + w_new * out_block[static_cast<std::size_t>(t)]) /
                         w_total;
            w_run = w_total;
            m_run = new_max;
        }
    }

    Matrix<float> result(n, d, 0.0f);
    for (int i = 0; i < n; ++i) {
        if (run_weight[static_cast<std::size_t>(i)] <= 0.0) continue;
        const double* out = run_out.data() + static_cast<std::size_t>(i) *
                                                 static_cast<std::size_t>(d);
        for (int t = 0; t < d; ++t) result(i, t) = static_cast<float>(out[t]);
    }
    return result;
}

}  // namespace salo
