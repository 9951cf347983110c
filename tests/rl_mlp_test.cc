#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rl/adam.h"
#include "src/rl/mlp.h"

namespace watter {
namespace {

TEST(MlpTest, ShapesAndParamCount) {
  Mlp net({4, 8, 1}, 1);
  EXPECT_EQ(net.input_size(), 4);
  // 4*8 + 8 + 8*1 + 1 = 49.
  EXPECT_EQ(net.param_count(), 49);
}

TEST(MlpTest, DeterministicInitialization) {
  Mlp a({4, 8, 1}, 7);
  Mlp b({4, 8, 1}, 7);
  EXPECT_EQ(a.params(), b.params());
  Mlp c({4, 8, 1}, 8);
  EXPECT_NE(a.params(), c.params());
}

TEST(MlpTest, ForwardIsLinearWhenWeightsForceIt) {
  // One hidden unit with identity-ish weights: V(x) = relu(2x) * 3 + 1.
  Mlp net({1, 1, 1}, 1);
  net.params() = {2.0f, 0.0f, 3.0f, 1.0f};  // W1, b1, W2, b2.
  std::vector<float> x = {5.0f};
  EXPECT_NEAR(net.Forward(x), 2 * 5 * 3 + 1, 1e-5);
  x[0] = -4.0f;  // ReLU clips.
  EXPECT_NEAR(net.Forward(x), 1.0, 1e-6);
}

TEST(MlpTest, GradientsMatchFiniteDifferences) {
  Mlp net({3, 5, 1}, 3);
  Rng rng(5);
  std::vector<float> input(3);
  for (auto& v : input) v = static_cast<float>(rng.Normal());
  // Loss = 0.5 * V^2 so dLoss/dV = V.
  double out = net.Forward(input);
  std::vector<float> grads(net.param_count(), 0.0f);
  net.ForwardBackward(input, out, &grads);
  const double eps = 1e-3;
  for (int p = 0; p < net.param_count(); p += 3) {  // Spot-check.
    float original = net.params()[p];
    net.params()[p] = original + static_cast<float>(eps);
    double up = net.Forward(input);
    net.params()[p] = original - static_cast<float>(eps);
    double down = net.Forward(input);
    net.params()[p] = original;
    double numeric = (0.5 * up * up - 0.5 * down * down) / (2 * eps);
    EXPECT_NEAR(grads[p], numeric, 5e-2 * std::max(1.0, std::abs(numeric)))
        << "param " << p;
  }
}

TEST(MlpTest, CopyParamsMakesNetworksIdentical) {
  Mlp a({2, 4, 1}, 1);
  Mlp b({2, 4, 1}, 2);
  std::vector<float> x = {0.3f, -0.7f};
  EXPECT_NE(a.Forward(x), b.Forward(x));
  b.CopyParamsFrom(a);
  EXPECT_EQ(a.Forward(x), b.Forward(x));
}

TEST(MlpTest, LearnsSimpleRegression) {
  // Fit V(x) = 3*x0 - 2*x1 + 0.5 with Adam on random samples.
  Mlp net({2, 16, 1}, 11);
  AdamOptimizer adam(static_cast<size_t>(net.param_count()), 5e-3);
  Rng rng(13);
  std::vector<float> grads(net.param_count());
  for (int step = 0; step < 3000; ++step) {
    std::fill(grads.begin(), grads.end(), 0.0f);
    double loss = 0.0;
    for (int b = 0; b < 16; ++b) {
      std::vector<float> x = {static_cast<float>(rng.Uniform(-1, 1)),
                              static_cast<float>(rng.Uniform(-1, 1))};
      double target = 3.0 * x[0] - 2.0 * x[1] + 0.5;
      double out = net.Forward(x);
      double err = out - target;
      net.ForwardBackward(x, 2.0 * err / 16.0, &grads);
      loss += err * err;
    }
    adam.Step(&net.params(), grads);
  }
  // Evaluate.
  double total_err = 0.0;
  for (int i = 0; i < 200; ++i) {
    std::vector<float> x = {static_cast<float>(rng.Uniform(-1, 1)),
                            static_cast<float>(rng.Uniform(-1, 1))};
    double target = 3.0 * x[0] - 2.0 * x[1] + 0.5;
    total_err += std::abs(net.Forward(x) - target);
  }
  EXPECT_LT(total_err / 200.0, 0.1);
}

// The dense loops Mlp ran before its zero-skipping kernel: every output sums
// its bias and then every input's float product in ascending input order,
// and backpropagation touches every input. The kernel must match them bit
// for bit.
double DenseForward(const Mlp& net, std::span<const float> input,
                    std::vector<std::vector<float>>* activations) {
  const std::vector<int>& sizes = net.layer_sizes();
  activations->assign(1, std::vector<float>(input.begin(), input.end()));
  size_t cursor = 0;
  for (size_t layer = 0; layer + 1 < sizes.size(); ++layer) {
    int fan_in = sizes[layer];
    int fan_out = sizes[layer + 1];
    const float* weights = &net.params()[cursor];
    const float* bias = weights + static_cast<size_t>(fan_in) * fan_out;
    const std::vector<float>& in = activations->back();
    std::vector<float> out(fan_out);
    bool is_output = layer + 2 == sizes.size();
    for (int o = 0; o < fan_out; ++o) {
      double sum = bias[o];
      const float* row = &weights[static_cast<size_t>(o) * fan_in];
      for (int i = 0; i < fan_in; ++i) sum += row[i] * in[i];
      out[o] = is_output ? static_cast<float>(sum)
                         : static_cast<float>(sum > 0.0 ? sum : 0.0);
    }
    activations->push_back(std::move(out));
    cursor += static_cast<size_t>(fan_in) * fan_out + fan_out;
  }
  return activations->back()[0];
}

double DenseForwardBackward(const Mlp& net, std::span<const float> input,
                            double dloss_dout, std::vector<float>* grads) {
  std::vector<std::vector<float>> activations;
  double output = DenseForward(net, input, &activations);
  const std::vector<int>& sizes = net.layer_sizes();
  std::vector<size_t> offsets(sizes.size() - 1);
  size_t cursor = 0;
  for (size_t layer = 0; layer + 1 < sizes.size(); ++layer) {
    offsets[layer] = cursor;
    cursor += static_cast<size_t>(sizes[layer]) * sizes[layer + 1] +
              sizes[layer + 1];
  }
  std::vector<float> delta = {static_cast<float>(dloss_dout)};
  for (int layer = static_cast<int>(sizes.size()) - 2; layer >= 0; --layer) {
    int fan_in = sizes[layer];
    int fan_out = sizes[layer + 1];
    const float* weights = &net.params()[offsets[layer]];
    float* weight_grads = &(*grads)[offsets[layer]];
    float* bias_grads =
        &(*grads)[offsets[layer] + static_cast<size_t>(fan_in) * fan_out];
    const std::vector<float>& in = activations[layer];
    std::vector<float> next_delta(fan_in, 0.0f);
    for (int o = 0; o < fan_out; ++o) {
      float d = delta[o];
      if (d == 0.0f) continue;
      const float* row = &weights[static_cast<size_t>(o) * fan_in];
      float* grad_row = &weight_grads[static_cast<size_t>(o) * fan_in];
      for (int i = 0; i < fan_in; ++i) {
        grad_row[i] += d * in[i];
        next_delta[i] += d * row[i];
      }
      bias_grads[o] += d;
    }
    if (layer > 0) {
      for (int i = 0; i < fan_in; ++i) {
        if (in[i] <= 0.0f) next_delta[i] = 0.0f;
      }
    }
    delta = std::move(next_delta);
  }
  return output;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// About 60% +0, 10% -0, 3% tiny non-zeros the kernel must not skip, and the
// rest normal draws.
float SparseDraw(Rng* rng) {
  double u = rng->Uniform();
  if (u < 0.6) return 0.0f;
  if (u < 0.7) return -0.0f;
  if (u < 0.73) return u < 0.715 ? 1e-40f : -1e-40f;
  return static_cast<float>(rng->Normal(0.0, 1.5));
}

TEST(MlpTest, SparseKernelMatchesDenseReference) {
  // Widths that are not multiples of the kernel's output block, the
  // WATTER-expect network itself, and a net with no hidden layer.
  const std::vector<std::vector<int>> shapes = {
      {37, 13, 5, 1}, {505, 64, 32, 1}, {9, 1}};
  for (const std::vector<int>& shape : shapes) {
    SCOPED_TRACE("input width " + std::to_string(shape.front()));
    Mlp net(shape, 17);
    Rng rng(23);
    // Finite weights and biases of both signs; every fourth bias stays +0.
    for (size_t p = 0; p < net.params().size(); ++p) {
      net.params()[p] = static_cast<float>(rng.Normal(0.0, 0.4));
    }
    size_t cursor = 0;
    for (size_t layer = 0; layer + 1 < shape.size(); ++layer) {
      cursor += static_cast<size_t>(shape[layer]) * shape[layer + 1];
      for (int o = 0; o < shape[layer + 1]; o += 4) {
        net.params()[cursor + o] = 0.0f;
      }
      cursor += shape[layer + 1];
    }
    // Inputs about 70% exact zeros, some of them -0, plus a few tiny
    // non-zeros the kernel must not skip. Two inputs close the list: one
    // whose large terms cancel in the first output (its weights for inputs
    // 1 and 2 are equal), so the sum keeps input 0's term only when it is
    // added after them and the summation order shows; and all zeros.
    std::vector<std::vector<float>> inputs(40,
                                           std::vector<float>(shape.front()));
    for (size_t n = 0; n + 2 < inputs.size(); ++n) {
      for (float& x : inputs[n]) x = SparseDraw(&rng);
    }
    net.params()[2] = net.params()[1];
    inputs[inputs.size() - 2][0] = 1.0f;
    inputs[inputs.size() - 2][1] = 0x1p40f;
    inputs[inputs.size() - 2][2] = -0x1p40f;
    std::vector<float> grads(net.param_count(), 0.0f);
    std::vector<float> dense_grads(net.param_count(), 0.0f);
    std::vector<std::vector<float>> activations;
    for (size_t n = 0; n < inputs.size(); ++n) {
      SCOPED_TRACE("input " + std::to_string(n));
      double dense = DenseForward(net, inputs[n], &activations);
      EXPECT_EQ(Bits(net.Forward(inputs[n])), Bits(dense));
      double dloss = rng.Normal(0.0, 2.0);
      double out = net.ForwardBackward(inputs[n], dloss, &grads);
      double dense_out =
          DenseForwardBackward(net, inputs[n], dloss, &dense_grads);
      EXPECT_EQ(Bits(out), Bits(dense_out));
    }
    EXPECT_EQ(std::memcmp(grads.data(), dense_grads.data(),
                          grads.size() * sizeof(float)),
              0);
  }
}

TEST(MlpTest, BackwardAfterForwardMatchesForwardBackward) {
  // ValueLearner::TrainStep reads the output with Forward, then calls
  // Backward on the same activations: the accumulated gradients must be
  // ForwardBackward's bit for bit, including on sparse inputs.
  const std::vector<std::vector<int>> shapes = {{37, 13, 5, 1}, {9, 1}};
  for (const std::vector<int>& shape : shapes) {
    SCOPED_TRACE("input width " + std::to_string(shape.front()));
    Mlp net(shape, 29);
    Rng rng(31);
    std::vector<float> fused(net.param_count(), 0.0f);
    std::vector<float> split(net.param_count(), 0.0f);
    std::vector<float> input(shape.front());
    for (int n = 0; n < 40; ++n) {
      for (float& x : input) {
        x = rng.Uniform() < 0.6 ? 0.0f
                                : static_cast<float>(rng.Normal(0.0, 1.5));
      }
      double dloss = rng.Normal(0.0, 2.0);
      double fused_out = net.ForwardBackward(input, dloss, &fused);
      double split_out = net.Forward(input);
      net.Backward(dloss, &split);
      EXPECT_EQ(Bits(fused_out), Bits(split_out));
    }
    EXPECT_EQ(std::memcmp(fused.data(), split.data(),
                          fused.size() * sizeof(float)),
              0);
  }
}

TEST(MlpTest, PreparedForwardMatchesForward) {
  // Layer 0 as the output layer, widths that are not multiples of the
  // kernel's output block, and the WATTER-expect network with its
  // featurizer's boundary (2 * 100 cells + 2).
  struct Shape {
    std::vector<int> sizes;
    int from;
  };
  const std::vector<Shape> shapes = {
      {{29, 1}, 11}, {{37, 13, 5, 1}, 15}, {{505, 64, 32, 1}, 202}};
  for (const Shape& shape : shapes) {
    const int width = shape.sizes.front();
    SCOPED_TRACE("input width " + std::to_string(width));
    Mlp net(shape.sizes, 41);
    Rng rng(43);
    for (float& p : net.params()) p = static_cast<float>(rng.Normal(0.0, 0.4));
    // The first output's weight w for input 0 and a cancelling pair of
    // block inputs +-2^40 with weight 1 each: the output keeps w's low bits
    // only when w is added after the pair, so it shows whether the order's
    // terms come first, as in the full pass. A bias of 100 keeps the
    // output above the ReLU.
    const int big = shape.from;
    net.params()[big] = 1.0f;
    net.params()[big + 1] = 1.0f;
    net.params()[static_cast<size_t>(width) * shape.sizes[1]] = 100.0f;
    std::vector<float> fused(net.param_count(), 0.0f);
    std::vector<float> split(net.param_count(), 0.0f);
    std::vector<float> input(width);
    PreparedInputs prepared;
    for (int block = 0; block < 6; ++block) {
      SCOPED_TRACE("block " + std::to_string(block));
      // Block 0 is all zeros, block 1 opens with the cancelling pair.
      for (int i = shape.from; i < width; ++i) {
        input[i] = block == 0 ? 0.0f : SparseDraw(&rng);
      }
      if (block == 1) {
        input[big] = 0x1p40f;
        input[big + 1] = -0x1p40f;
      }
      // Prepared under an order head that no evaluated order has.
      for (int i = 0; i < shape.from; ++i) {
        input[i] = static_cast<float>(rng.Normal(0.0, 3.0));
      }
      net.Prepare(input, shape.from, &prepared);
      for (int order = 0; order < 8; ++order) {
        SCOPED_TRACE("order " + std::to_string(order));
        // Order 0's head is all zeros; order 1's is the bare 1.0.
        for (int i = 0; i < shape.from; ++i) {
          input[i] = order == 0 ? 0.0f : SparseDraw(&rng);
        }
        if (order == 1) {
          std::fill(input.begin(), input.begin() + shape.from, 0.0f);
          input[0] = 1.0f;
        }
        const double full = net.Forward(input);
        EXPECT_EQ(Bits(net.Forward(input, prepared)), Bits(full));
        // Backward after the prepared pass sees the full pass's scratch.
        const double dloss = rng.Normal(0.0, 2.0);
        net.ForwardBackward(input, dloss, &fused);
        net.Forward(input, prepared);
        net.Backward(dloss, &split);
      }
    }
    EXPECT_EQ(std::memcmp(fused.data(), split.data(),
                          fused.size() * sizeof(float)),
              0);
  }
}

TEST(AdamTest, StepCountAndDirection) {
  AdamOptimizer adam(2, 0.1);
  std::vector<float> params = {1.0f, -1.0f};
  std::vector<float> grads = {0.5f, -0.5f};
  adam.Step(&params, grads);
  EXPECT_EQ(adam.step_count(), 1);
  // Moves against the gradient.
  EXPECT_LT(params[0], 1.0f);
  EXPECT_GT(params[1], -1.0f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(x) = (x - 3)^2.
  AdamOptimizer adam(1, 0.05);
  std::vector<float> x = {-5.0f};
  for (int i = 0; i < 2000; ++i) {
    std::vector<float> grad = {2.0f * (x[0] - 3.0f)};
    adam.Step(&x, grad);
  }
  EXPECT_NEAR(x[0], 3.0f, 1e-2);
}

}  // namespace
}  // namespace watter
