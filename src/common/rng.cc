#include "common/rng.h"

#include <cmath>

namespace wattdb {

namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
  // Derive stable per-run NURand C constants, as TPC-C requires.
  c_255_ = Next() % 256;
  c_1023_ = Next() % 1024;
  c_8191_ = Next() % 8192;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  if (hi <= lo) return lo;
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::UniformDouble() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Exponential(double mean) {
  double u = UniformDouble();
  if (u >= 1.0) u = 0.9999999999;
  return -mean * std::log(1.0 - u);
}

int64_t Rng::NURand(int64_t a, int64_t x, int64_t y) {
  uint64_t c = 0;
  switch (a) {
    case 255:
      c = c_255_;
      break;
    case 1023:
      c = c_1023_;
      break;
    case 8191:
      c = c_8191_;
      break;
    default:
      c = 0;
      break;
  }
  const int64_t r1 = UniformInt(0, a);
  const int64_t r2 = UniformInt(x, y);
  return ((((r1 | r2) + static_cast<int64_t>(c)) % (y - x + 1)) + x);
}

uint64_t Rng::Zipf(uint64_t n, double theta) {
  // Gray et al., "Quickly generating billion-record synthetic databases".
  // O(1) after an O(n)-free closed-form setup using the two-point method.
  if (n == 0) return 0;
  if (theta <= 0.0) return Next() % n;
  const double zetan = (std::pow(static_cast<double>(n), 1.0 - theta) - 1.0) /
                           (1.0 - theta) +
                       0.5;  // Approximation of the harmonic sum.
  const double alpha = 1.0 / (1.0 - theta);
  const double eta =
      (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
      (1.0 - 1.0 / zetan);
  const double u = UniformDouble();
  const double uz = u * zetan;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta)) return 1;
  const uint64_t v = static_cast<uint64_t>(
      static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
  return v >= n ? n - 1 : v;
}

}  // namespace wattdb
