// Matrix-level quantization helpers: float <-> Q-format conversions used at
// the boundary between the float world (model activations) and the
// accelerator's fixed-point world.
#pragma once

#include <cstdint>
#include <type_traits>

#include "numeric/fixed.hpp"
#include "sim/kernels.hpp"
#include "tensor/matrix.hpp"

namespace salo {

/// InputFx raw values of float(v * scale) for every element v of `m`: the
/// accelerator's input quantizer with the host-side 1/sqrt(d) prescale
/// fused in. Bit-identical to InputFx::from_float(v * scale) per element (the
/// dispatched level's quantize kernel).
inline Matrix<std::int8_t> quantize_input(const Matrix<float>& m, float scale) {
    Matrix<std::int8_t> out(m.rows(), m.cols());
    kernels::dispatched().quantize(m.data().data(), m.size(), scale, out.data().data());
    return out;
}

/// Quantize a float matrix to the raw storage of format Fx (saturating,
/// round-to-nearest). The result holds raw Q-format integers. The paper's
/// input format runs the SIMD quantizer; other formats convert per element.
template <typename Fx>
Matrix<typename Fx::storage_type> quantize(const Matrix<float>& m) {
    if constexpr (std::is_same_v<Fx, InputFx>) {
        return quantize_input(m, 1.0f);
    } else {
        return m.template map<typename Fx::storage_type>(
            [](float v) { return Fx::from_float(v).raw(); });
    }
}

/// Dequantize raw Q-format integers back to float.
template <typename Fx>
Matrix<float> dequantize(const Matrix<typename Fx::storage_type>& m) {
    return m.template map<float>(
        [](typename Fx::storage_type raw) { return Fx::from_raw(raw).to_float(); });
}

/// Round-trip a float matrix through format Fx (quantize + dequantize);
/// models what the accelerator "sees" of a float input.
template <typename Fx>
Matrix<float> quantize_roundtrip(const Matrix<float>& m) {
    return m.template map<float>([](float v) { return Fx::from_float(v).to_float(); });
}

}  // namespace salo
