// Synthetic stand-in for the paper's Table 3 quantization study.
//
// The paper fine-tunes pretrained Longformer/ViL checkpoints on IMDB /
// Hyperpartisan / ImageNet-1K and shows that SALO's Q3.4 inputs + 16-bit
// outputs do not change downstream accuracy. Checkpoints and datasets are
// not available offline, so we build the closest synthetic equivalent that
// exercises the same error path (see docs/REPRODUCTION.md, substitutions):
//
//   * each class has a prototype token distribution;
//   * a sample is a sequence of noisy tokens: each token carries the
//     sample's class prototype, or (with confuser_prob) a uniformly random
//     class prototype — the confusers keep the task genuinely hard, so
//     borderline samples exist for quantization error to flip;
//   * the sequence is used directly as Q/K/V of a hybrid sparse attention
//     layer; the output is mean-pooled and classified by a fixed linear
//     probe (nearest prototype).
//
// Classification accuracy is then compared between the float golden
// attention ("Original") and the bit-accurate fixed-point engine
// ("Quantized") — the same quantized-vs-original delta format as Table 3.
#pragma once

#include <cstdint>
#include <string>

#include "core/engine.hpp"

namespace salo {

struct QuantStudyConfig {
    std::string name = "synthetic";
    int n = 96;           ///< sequence length
    int head_dim = 32;    ///< attention head dimension
    int window = 16;      ///< sliding window width (plus 1 global token)
    int num_classes = 4;
    int num_samples = 200;
    double prototype_scale = 1.0;  ///< class signal strength
    double noise = 0.5;            ///< per-token Gaussian noise stddev
    double confuser_prob = 0.60;   ///< P(token carries a random class instead)
    std::uint64_t seed = 1;
};

struct QuantStudyResult {
    double accuracy_original = 0.0;   ///< float golden attention
    double accuracy_quantized = 0.0;  ///< fixed-point SALO engine
    double delta() const { return accuracy_quantized - accuracy_original; }
};

/// Run the study with the given engine configuration (fidelity is forced to
/// kFunctional for the quantized arm and kGolden for the original arm).
QuantStudyResult run_quant_study(const QuantStudyConfig& study, const SaloConfig& config);

}  // namespace salo
