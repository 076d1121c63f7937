// Deterministic random-number utilities. Every stochastic component in CDB
// (sampled possible graphs, simulated workers, dataset perturbation) takes a
// seed so experiments are reproducible run-to-run.
#ifndef CDB_COMMON_RANDOM_H_
#define CDB_COMMON_RANDOM_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"

namespace cdb {

// Seeded pseudo-random generator wrapping the standard engine with the
// distributions CDB needs. Not thread-safe; use one Rng per thread.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Stream splitting for parallel loops: Rng(seed, i) yields a generator
  // deterministically derived from (seed, i) alone, so chunk i of a parallel
  // region draws the same sequence no matter which thread runs it or how many
  // threads exist. Streams of distinct indexes are decorrelated by a
  // splitmix64 mix of both words.
  Rng(uint64_t seed, uint64_t stream);

  // Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  // True with probability p (clamped to [0, 1]).
  [[nodiscard]] bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return Uniform() < p;
  }

  // Normal sample with the given mean and standard deviation (>= 0). Draws
  // a standard normal and scales it, the arithmetic std::normal_distribution
  // applies after its own draw, so for stddev > 0 the value is bit-identical
  // to std::normal_distribution<double>(mean, stddev); stddev == 0, which
  // that distribution's precondition excludes, returns `mean` and consumes
  // the same engine draws.
  double Gaussian(double mean, double stddev) {
    std::normal_distribution<double> standard(0.0, 1.0);
    return standard(engine_) * stddev + mean;
  }

  // Normal sample clamped into [lo, hi]; used for worker accuracies which the
  // paper draws from N(q, 0.01) but which must stay a probability.
  double ClampedGaussian(double mean, double stddev, double lo, double hi);

  // Zipf-distributed index in [0, n) with exponent s (s=0 is uniform). Used
  // by the COLLECT simulator to model entity popularity.
  int64_t Zipf(int64_t n, double s);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  // Splits off an independent child generator; deterministic given the
  // parent's state.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

  // Session-snapshot support: the full engine state as the standard's
  // space-separated decimal text form (mt19937_64 operator<<). Reloading a
  // saved state continues the exact draw sequence — the property the
  // snapshot/resume byte-identity tests depend on. LoadState returns
  // Status::DataLoss on malformed text. These are the only sanctioned
  // engine-state accessors; keeping them here keeps serialization inside
  // common/ (the rng-outside-common lint rule).
  [[nodiscard]] std::string SaveState() const;
  Status LoadState(const std::string& state);

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

// The draws of Rng(seed, stream), for streams that take only a few. Building
// a std::mt19937_64 seeds all 312 state words and twists them before the
// first output. Output k < 156 of a freshly seeded engine, though, is the
// tempered value of x[k+156] ^ twist(upper(x[k]) | lower(x[k+1])) over the
// seeded words x, because the first twist rewrites word k before it reads
// word k+156. ShortStream therefore runs two copies of the seeding recurrence
// (one at k, one at k+156): construction takes 156 steps and each draw two.
// From the 157th draw on it builds the engine, skips the 156 outputs already
// given and continues, so every draw equals Rng(seed, stream)'s for any draw
// count. Bernoulli and UniformInt apply Rng's std distributions, so their
// values are bit-equal too.
class ShortStream {
 public:
  using result_type = uint64_t;

  ShortStream(uint64_t seed, uint64_t stream);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()();

  // Same values and draw counts as Rng::Bernoulli and Rng::UniformInt.
  [[nodiscard]] bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::uniform_real_distribution<double>(0.0, 1.0)(*this) < p;
  }
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(*this);
  }

 private:
  using Engine = std::mt19937_64;
  // Outputs computable from the seeded words alone.
  static constexpr uint64_t kPrefix = Engine::state_size - Engine::shift_size;

  uint64_t seed_;         // x[0]: the engine seed.
  uint64_t next_ = 0;     // Index k of the next draw.
  uint64_t low_;          // x[k].
  uint64_t high_;         // x[k + 156].
  std::unique_ptr<Engine> engine_;  // Past the prefix only.
};

}  // namespace cdb

#endif  // CDB_COMMON_RANDOM_H_
