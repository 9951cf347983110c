// Minimal multi-layer perceptron used as the value function V(s) of the
// paper's MDP (Section VI-B). Fully-connected ReLU layers with a linear
// scalar head; flat parameter storage so the Adam optimizer and the target-
// network copy are trivial.
#ifndef WATTER_RL_MLP_H_
#define WATTER_RL_MLP_H_

#include <cstdint>
#include <span>
#include <vector>

namespace watter {

/// A feed-forward ReLU network with a scalar linear output.
class Mlp {
 public:
  /// `layer_sizes` = {input, hidden..., 1}. He-initialized from `seed`.
  Mlp(std::vector<int> layer_sizes, uint64_t seed);

  int input_size() const { return sizes_.front(); }
  int param_count() const { return static_cast<int>(params_.size()); }

  /// Evaluates V(input). `input` must have input_size() entries.
  double Forward(std::span<const float> input) const;

  /// Forward pass plus backpropagation of dLoss/dOutput, *accumulating*
  /// parameter gradients into `grads` (sized param_count()). Returns the
  /// forward output.
  double ForwardBackward(std::span<const float> input, double dloss_dout,
                         std::vector<float>* grads) const;

  /// Backpropagates dLoss/dOutput through the activations of the last
  /// Forward or ForwardBackward call on this network, *accumulating*
  /// parameter gradients into `grads` (sized param_count()). Forward then
  /// Backward gives exactly ForwardBackward's gradients, so a caller that
  /// needs the output to form the loss gradient runs one forward pass.
  void Backward(double dloss_dout, std::vector<float>* grads) const;

  std::vector<float>& params() { return params_; }
  const std::vector<float>& params() const { return params_; }

  /// Target-network style hard copy; architectures must match.
  void CopyParamsFrom(const Mlp& other) { params_ = other.params_; }

  const std::vector<int>& layer_sizes() const { return sizes_; }

 private:
  /// Runs the forward pass, filling per-layer activations and non-zero
  /// input lists into scratch buffers; returns the scalar output.
  double ForwardInternal(std::span<const float> input) const;

  std::vector<int> sizes_;
  std::vector<float> params_;
  // Scratch reused across calls: per-layer activations (the input, the
  // post-ReLU hidden layers, the output) and the indices of each layer's
  // non-zero inputs in ascending order.
  mutable std::vector<std::vector<float>> activations_;
  mutable std::vector<std::vector<int>> nonzeros_;
};

}  // namespace watter

#endif  // WATTER_RL_MLP_H_
