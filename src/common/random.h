#ifndef QAGVIEW_COMMON_RANDOM_H_
#define QAGVIEW_COMMON_RANDOM_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/logging.h"

namespace qagview {

/// \brief Deterministic pseudo-random source used across generators,
/// randomized algorithm variants, and tests.
///
/// All QAGView randomness flows through explicitly seeded Rng instances so
/// experiments are reproducible run-to-run.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi) {
    QAG_DCHECK(lo <= hi) << "Uniform(" << lo << "," << hi << ")";
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t Index(int64_t n) { return Uniform(0, n - 1); }

  /// Uniform double in [0, 1).
  double Uniform01() {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
  }

  /// Uniform double in [lo, hi).
  double UniformReal(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Gaussian with the given mean and standard deviation (>= 0; 0 returns
  /// the mean). Scales a standard normal draw: std::normal_distribution
  /// requires a positive deviation, and computes the same
  /// `z * stddev + mean` itself, so the stream is unchanged.
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>()(engine_) * stddev + mean;
  }

  /// True with probability p.
  bool Bernoulli(double p) { return Uniform01() < p; }

  /// Zipf-like skewed index in [0, n): probability of i proportional to
  /// 1/(i+1)^theta. Used by the synthetic data generators to produce the
  /// skewed attribute-value frequencies real datasets exhibit.
  int64_t Zipf(int64_t n, double theta);

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// Picks one element uniformly at random. Requires non-empty input.
  template <typename T>
  const T& Choice(const std::vector<T>& v) {
    QAG_DCHECK(!v.empty());
    return v[Index(static_cast<int64_t>(v.size()))];
  }

  /// Picks an index according to the (unnormalized, non-negative) weights.
  size_t WeightedChoice(const std::vector<double>& weights);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace qagview

#endif  // QAGVIEW_COMMON_RANDOM_H_
