#ifndef WATTDB_COMMON_RNG_H_
#define WATTDB_COMMON_RNG_H_

#include <cstdint>

namespace wattdb {

/// Deterministic, seedable PRNG (xoshiro256**). Every simulation component
/// owns its own instance so that experiments are reproducible regardless of
/// execution interleavings.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] (inclusive bounds, TPC-C convention).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Exponentially distributed value with the given mean.
  double Exponential(double mean);

  /// TPC-C NURand(A, x, y): non-uniform random integer in [x, y] skewed by
  /// the constant-load parameter A (see TPC-C spec clause 2.1.6).
  int64_t NURand(int64_t a, int64_t x, int64_t y);

  /// Zipfian value in [0, n) with skew theta (Gray et al. generator).
  uint64_t Zipf(uint64_t n, double theta);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  uint64_t c_255_ = 0;   ///< NURand C constant for A=255.
  uint64_t c_1023_ = 0;  ///< NURand C constant for A=1023.
  uint64_t c_8191_ = 0;  ///< NURand C constant for A=8191.
};

}  // namespace wattdb

#endif  // WATTDB_COMMON_RNG_H_
