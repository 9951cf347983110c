#include "src/rl/mlp.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "src/common/rng.h"

namespace watter {
namespace {

// Outputs that share one walk over a layer's non-zero inputs.
constexpr int kBlock = 8;

}  // namespace

Mlp::Mlp(std::vector<int> layer_sizes, uint64_t seed)
    : sizes_(std::move(layer_sizes)) {
  assert(sizes_.size() >= 2 && sizes_.back() == 1);
  size_t total = 0;
  for (size_t layer = 0; layer + 1 < sizes_.size(); ++layer) {
    total += static_cast<size_t>(sizes_[layer]) * sizes_[layer + 1] +
             sizes_[layer + 1];
  }
  params_.resize(total);
  Rng rng(seed);
  size_t cursor = 0;
  for (size_t layer = 0; layer + 1 < sizes_.size(); ++layer) {
    int fan_in = sizes_[layer];
    int fan_out = sizes_[layer + 1];
    double scale = std::sqrt(2.0 / fan_in);  // He initialization.
    for (int i = 0; i < fan_in * fan_out; ++i) {
      params_[cursor++] = static_cast<float>(rng.Normal(0.0, scale));
    }
    for (int i = 0; i < fan_out; ++i) params_[cursor++] = 0.0f;
  }
  activations_.resize(sizes_.size());
  nonzeros_.resize(sizes_.size());
  for (size_t layer = 0; layer < sizes_.size(); ++layer) {
    activations_[layer].resize(static_cast<size_t>(sizes_[layer]));
    nonzeros_[layer].reserve(static_cast<size_t>(sizes_[layer]));
  }
}

// Each output starts at its bias and adds the float products of its weights
// with the layer's non-zero inputs, in ascending input order: the dense sum
// bit for bit. With finite weights a skipped product is +-0, and adding +-0
// leaves a sum unchanged unless the sum is -0. A sum can be -0 only if its
// bias is, and biases start at +0, which Adam's subtractions never turn
// into -0. Blocks of kBlock outputs walk the non-zero list once, with one
// accumulator each. A prepared block's rows hold the same products of the
// highest inputs, widened to double as the sum would widen them, so adding
// them after the lower inputs keeps every operand and its place.
double Mlp::ForwardInternal(std::span<const float> input,
                            const PreparedInputs* prepared) const {
  assert(static_cast<int>(input.size()) == sizes_.front());
  std::copy(input.begin(), input.end(), activations_[0].begin());
  size_t cursor = 0;
  for (size_t layer = 0; layer + 1 < sizes_.size(); ++layer) {
    int fan_in = sizes_[layer];
    int fan_out = sizes_[layer + 1];
    const float* weights = &params_[cursor];
    const float* bias = weights + static_cast<size_t>(fan_in) * fan_out;
    const float* in = activations_[layer].data();
    float* out = activations_[layer + 1].data();
    const PreparedInputs* block = layer == 0 ? prepared : nullptr;
    std::vector<int>& nonzero = nonzeros_[layer];
    nonzero.clear();
    const int own_end = block != nullptr ? block->from : fan_in;
    for (int i = 0; i < own_end; ++i) {
      if (in[i] != 0.0f) nonzero.push_back(i);
    }
    const size_t own = nonzero.size();
    const double* products = nullptr;
    size_t prepared_rows = 0;
    if (block != nullptr) {
      nonzero.insert(nonzero.end(), block->nonzero.begin(),
                     block->nonzero.end());
      products = block->products.data();
      prepared_rows = block->nonzero.size();
    }
    bool is_output = layer + 2 == sizes_.size();
    auto store = [&](int o, double sum) {
      out[o] = is_output ? static_cast<float>(sum)
                         : static_cast<float>(sum > 0.0 ? sum : 0.0);
    };
    int o = 0;
    for (; o + kBlock <= fan_out; o += kBlock) {
      const float* rows = &weights[static_cast<size_t>(o) * fan_in];
      double sums[kBlock];
      for (int k = 0; k < kBlock; ++k) sums[k] = bias[o + k];
      for (size_t n = 0; n < own; ++n) {
        const int i = nonzero[n];
        for (int k = 0; k < kBlock; ++k) {
          sums[k] += rows[static_cast<size_t>(k) * fan_in + i] * in[i];
        }
      }
      for (size_t r = 0; r < prepared_rows; ++r) {
        const double* row = &products[r * fan_out + o];
        for (int k = 0; k < kBlock; ++k) sums[k] += row[k];
      }
      for (int k = 0; k < kBlock; ++k) store(o + k, sums[k]);
    }
    for (; o < fan_out; ++o) {
      const float* row = &weights[static_cast<size_t>(o) * fan_in];
      double sum = bias[o];
      for (size_t n = 0; n < own; ++n) sum += row[nonzero[n]] * in[nonzero[n]];
      for (size_t r = 0; r < prepared_rows; ++r) {
        sum += products[r * fan_out + o];
      }
      store(o, sum);
    }
    cursor += static_cast<size_t>(fan_in) * fan_out + fan_out;
  }
  return activations_.back()[0];
}

double Mlp::Forward(std::span<const float> input) const {
  return ForwardInternal(input, nullptr);
}

void Mlp::Prepare(std::span<const float> input, int from,
                  PreparedInputs* prepared) const {
  const int fan_in = sizes_[0];
  const int fan_out = sizes_[1];
  assert(static_cast<int>(input.size()) == fan_in);
  assert(from >= 0 && from <= fan_in);
  prepared->from = from;
  prepared->inputs.assign(input.begin() + from, input.end());
  prepared->nonzero.clear();
  prepared->products.clear();
  for (int i = from; i < fan_in; ++i) {
    if (input[i] == 0.0f) continue;
    prepared->nonzero.push_back(i);
    for (int o = 0; o < fan_out; ++o) {
      const float product =
          params_[static_cast<size_t>(o) * fan_in + i] * input[i];
      prepared->products.push_back(product);
    }
  }
}

double Mlp::Forward(std::span<const float> input,
                    const PreparedInputs& prepared) const {
  assert(prepared.products.size() ==
         prepared.nonzero.size() * static_cast<size_t>(sizes_[1]));
  assert(prepared.inputs.size() == input.size() - prepared.from &&
         std::memcmp(prepared.inputs.data(), input.data() + prepared.from,
                     prepared.inputs.size() * sizeof(float)) == 0);
  return ForwardInternal(input, &prepared);
}

double Mlp::ForwardBackward(std::span<const float> input, double dloss_dout,
                            std::vector<float>* grads) const {
  double output = ForwardInternal(input, nullptr);
  Backward(dloss_dout, grads);
  return output;
}

void Mlp::Backward(double dloss_dout, std::vector<float>* grads) const {
  assert(grads->size() == params_.size());
  // Delta for the top layer is dLoss/dOutput.
  std::vector<float> delta = {static_cast<float>(dloss_dout)};
  // Parameter offsets per layer (recomputed going backwards).
  std::vector<size_t> offsets(sizes_.size() - 1);
  size_t cursor = 0;
  for (size_t layer = 0; layer + 1 < sizes_.size(); ++layer) {
    offsets[layer] = cursor;
    cursor += static_cast<size_t>(sizes_[layer]) * sizes_[layer + 1] +
              sizes_[layer + 1];
  }
  for (int layer = static_cast<int>(sizes_.size()) - 2; layer >= 0; --layer) {
    int fan_in = sizes_[layer];
    int fan_out = sizes_[layer + 1];
    const float* weights = &params_[offsets[layer]];
    float* weight_grads = &(*grads)[offsets[layer]];
    float* bias_grads =
        &(*grads)[offsets[layer] + static_cast<size_t>(fan_in) * fan_out];
    // Only the non-zero inputs: a zero input's weight gradient adds +-0,
    // and a gradient accumulated from +0 is never -0. Below the first layer
    // a zero input is a post-ReLU zero, whose delta the ReLU derivative
    // zeroes. The first layer's input delta is unused, so it is skipped.
    const float* in = activations_[layer].data();
    const std::vector<int>& nonzero = nonzeros_[layer];
    std::vector<float> next_delta(layer > 0 ? fan_in : 0, 0.0f);
    for (int o = 0; o < fan_out; ++o) {
      float d = delta[o];
      if (d == 0.0f) continue;
      const float* row = &weights[static_cast<size_t>(o) * fan_in];
      float* grad_row = &weight_grads[static_cast<size_t>(o) * fan_in];
      for (int i : nonzero) grad_row[i] += d * in[i];
      if (layer > 0) {
        for (int i : nonzero) next_delta[i] += d * row[i];
      }
      bias_grads[o] += d;
    }
    delta = std::move(next_delta);
  }
}

}  // namespace watter
