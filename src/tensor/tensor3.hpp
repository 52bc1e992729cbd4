// Rank-3 tensor (e.g. [heads][n][d]) built on Matrix slices. Multi-head
// attention inputs and outputs use this shape.
#pragma once

#include <utility>
#include <vector>

#include "tensor/matrix.hpp"

namespace salo {

/// Owning container of `count` equally-shaped matrices; slice h is head h.
template <typename T>
class Tensor3 {
public:
    Tensor3() = default;
    Tensor3(int count, int rows, int cols) {
        SALO_EXPECTS(count >= 0);
        slices_.reserve(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i) slices_.emplace_back(rows, cols);
    }

    /// Takes `slices` as the tensor's matrices (slice i = slices[i]); every
    /// slice must have one shape.
    explicit Tensor3(std::vector<Matrix<T>> slices) : slices_(std::move(slices)) {
        for (const Matrix<T>& s : slices_)
            SALO_EXPECTS(s.rows() == rows() && s.cols() == cols());
    }

    int count() const { return static_cast<int>(slices_.size()); }
    int rows() const { return slices_.empty() ? 0 : slices_.front().rows(); }
    int cols() const { return slices_.empty() ? 0 : slices_.front().cols(); }

    Matrix<T>& operator[](int i) {
        SALO_EXPECTS(i >= 0 && i < count());
        return slices_[static_cast<std::size_t>(i)];
    }
    const Matrix<T>& operator[](int i) const {
        SALO_EXPECTS(i >= 0 && i < count());
        return slices_[static_cast<std::size_t>(i)];
    }

private:
    std::vector<Matrix<T>> slices_;
};

/// Random multi-head inputs: `heads` matrices of n x d.
inline Tensor3<float> random_tensor3(int heads, int n, int d, Rng& rng, double stddev = 1.0) {
    Tensor3<float> t(heads, n, d);
    for (int h = 0; h < heads; ++h)
        for (auto& v : t[h].data()) v = static_cast<float>(rng.normal(0.0, stddev));
    return t;
}

}  // namespace salo
