#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace cdb {
namespace {

// Fmix from splitmix64: bijective, avalanching; adjacent inputs map to
// uncorrelated outputs, which is exactly what per-stream seeds need.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Word i of the seeded mt19937_64 state from word i - 1.
uint64_t SeedStep(uint64_t prev, uint64_t i) {
  using Engine = std::mt19937_64;
  return Engine::initialization_multiplier *
             (prev ^ (prev >> (Engine::word_size - 2))) +
         i;
}

// The engine seed of the split stream (seed, stream), shared by Rng and
// ShortStream.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return SplitMix64(SplitMix64(seed) + SplitMix64(~stream));
}

}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream) : engine_(StreamSeed(seed, stream)) {}

ShortStream::ShortStream(uint64_t seed, uint64_t stream)
    : seed_(StreamSeed(seed, stream)), low_(seed_), high_(seed_) {
  for (uint64_t i = 1; i <= kPrefix; ++i) high_ = SeedStep(high_, i);
}

ShortStream::result_type ShortStream::operator()() {
  if (next_ >= kPrefix) {
    if (engine_ == nullptr) {
      engine_ = std::make_unique<Engine>(seed_);
      engine_->discard(kPrefix);
    }
    ++next_;
    return (*engine_)();
  }
  // The first twist's update of word k, from seeded words k, k+1, k+156.
  const uint64_t k = next_++;
  const uint64_t lower_mask = (uint64_t{1} << Engine::mask_bits) - 1;
  const uint64_t low_next = SeedStep(low_, k + 1);
  const uint64_t y = (low_ & ~lower_mask) | (low_next & lower_mask);
  uint64_t z = high_ ^ (y >> 1) ^ ((y & 1) != 0 ? Engine::xor_mask : 0);
  low_ = low_next;
  // After the last prefix draw this computes a word past the state; the
  // engine takes over before anything reads it.
  high_ = SeedStep(high_, k + kPrefix + 1);
  // Tempering, as in the engine's operator().
  z ^= (z >> Engine::tempering_u) & Engine::tempering_d;
  z ^= (z << Engine::tempering_s) & Engine::tempering_b;
  z ^= (z << Engine::tempering_t) & Engine::tempering_c;
  z ^= z >> Engine::tempering_l;
  return z;
}

double Rng::ClampedGaussian(double mean, double stddev, double lo, double hi) {
  CDB_DCHECK(lo <= hi);
  return std::clamp(Gaussian(mean, stddev), lo, hi);
}

std::string Rng::SaveState() const {
  std::ostringstream out;
  out << engine_;
  return out.str();
}

Status Rng::LoadState(const std::string& state) {
  std::istringstream in(state);
  std::mt19937_64 engine;
  in >> engine;
  if (in.fail()) {
    return Status::DataLoss("Rng::LoadState: malformed mt19937_64 state text");
  }
  engine_ = engine;
  // The unit distribution is stateless in practice, but reset() makes that a
  // guarantee rather than an implementation detail.
  unit_.reset();
  return Status::Ok();
}

int64_t Rng::Zipf(int64_t n, double s) {
  CDB_CHECK(n > 0);
  if (s <= 0.0) return UniformInt(0, n - 1);
  // Inverse-CDF over the (small) support. n is at most a few thousand in our
  // workloads, so a linear scan is fine and exact.
  double norm = 0.0;
  for (int64_t k = 1; k <= n; ++k) norm += 1.0 / std::pow(double(k), s);
  double u = Uniform() * norm;
  double acc = 0.0;
  for (int64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(double(k), s);
    if (u <= acc) return k - 1;
  }
  return n - 1;
}

}  // namespace cdb
