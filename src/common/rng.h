// Deterministic random number generation for simulations and benches.
//
// All randomness in the library flows through Rng so that every experiment is
// exactly reproducible from its seed. The engine is xoshiro256++ seeded via
// SplitMix64, which is fast, high quality, and has a tiny state.
#ifndef WATTER_COMMON_RNG_H_
#define WATTER_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace watter {

/// Deterministic pseudo-random generator (xoshiro256++).
class Rng {
 public:
  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached spare value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  int SampleIndex(const std::vector<double>& weights);

  /// Derives an independent child generator; useful for giving each
  /// simulation component its own stream.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace watter

#endif  // WATTER_COMMON_RNG_H_
