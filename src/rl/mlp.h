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

/// The first-layer terms of an input block [from, input_size()) that many
/// forward passes share, prepared once by Mlp::Prepare and then read-only.
struct PreparedInputs {
  int from = 0;
  /// The block's non-zero inputs in ascending order, as full-input indices.
  std::vector<int> nonzero;
  /// One row of fan-out products per non-zero input: each the kernel's
  /// float product weight * input, widened to double.
  std::vector<double> products;
  /// The block as prepared; Debug builds check each caller's input against
  /// it.
  std::vector<float> inputs;
};

/// A feed-forward ReLU network with a scalar linear output.
class Mlp {
 public:
  /// `layer_sizes` = {input, hidden..., 1}. He-initialized from `seed`.
  Mlp(std::vector<int> layer_sizes, uint64_t seed);

  int input_size() const { return sizes_.front(); }
  int param_count() const { return static_cast<int>(params_.size()); }

  /// Evaluates V(input). `input` must have input_size() entries.
  double Forward(std::span<const float> input) const;

  /// Prepares the first-layer products of `input[from..]` for
  /// Forward(input, prepared). They stay valid while the first layer's
  /// weights do; biases are not part of them.
  void Prepare(std::span<const float> input, int from,
               PreparedInputs* prepared) const;

  /// Forward(input) bit for bit, provided `input[prepared.from..]` equals
  /// the block `prepared` was prepared from: each first-layer output adds
  /// its bias, then the products of the non-zero inputs below `from`, then
  /// the prepared rows, the operands and order of the full pass. Leaves
  /// the scratch as Forward(input) does, so Backward may follow.
  double Forward(std::span<const float> input,
                 const PreparedInputs& prepared) const;

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
  /// input lists into scratch buffers; returns the scalar output. With
  /// `prepared`, the first layer walks only the inputs below its block and
  /// then adds its rows.
  double ForwardInternal(std::span<const float> input,
                         const PreparedInputs* prepared) const;

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
