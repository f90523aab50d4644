// Deterministic pseudo-random number generation for data generators, graph
// sampling, and property tests.
//
// Everything in the library that is randomized takes an explicit seed so runs
// are reproducible; benchmarks and tests never consume global RNG state.

#ifndef BIGINDEX_UTIL_RANDOM_H_
#define BIGINDEX_UTIL_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bigindex {

/// SplitMix64 PRNG: tiny state, excellent statistical quality for simulation
/// workloads, and trivially seedable (any 64-bit value works).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97f4A7C15ULL) {}

  /// Uniform 64-bit value.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97f4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) {
    assert(bound > 0);
    return Next() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    assert(lo <= hi);
    return lo + Uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t state_;
};

/// Samples from a Zipf(s) distribution over {0, ..., n-1} using a precomputed
/// cumulative table. Used to model the heavy label skew of real knowledge
/// graphs (few types such as Person/Film cover most vertices).
class ZipfSampler {
 public:
  /// n: domain size; s: skew exponent (s = 0 is uniform; ~1 is typical).
  ZipfSampler(size_t n, double s) : cdf_(n) {
    assert(n > 0);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (size_t i = 0; i < n; ++i) cdf_[i] /= total;
  }

  /// Draws one value in [0, n).
  size_t Sample(Rng& rng) const {
    double u = rng.NextDouble();
    // Binary search over the CDF.
    size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace bigindex

#endif  // BIGINDEX_UTIL_RANDOM_H_
