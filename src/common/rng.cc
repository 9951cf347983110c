#include "src/common/rng.h"

#include <cassert>
#include <cmath>

namespace watter {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // Full 64-bit range.
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t draw;
  do {
    draw = Next();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % span);
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  u2 = Uniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  spare_normal_ = radius * std::sin(theta);
  has_spare_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int Rng::SampleIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  assert(total > 0.0);
  double target = Uniform() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < cumulative) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace watter
