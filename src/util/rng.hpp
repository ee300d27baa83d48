#pragma once
// xoshiro256** PRNG with splitmix64 seeding and cheap stream splitting.
//
// Execution sampling (sched/sampler.hpp) fans Monte-Carlo trials over a
// thread pool; each worker needs an independent, reproducible stream. A
// master seed plus a stream index deterministically derives a generator,
// so every experiment in bench/ is bit-reproducible regardless of thread
// count or interleaving.
//
// The batched sampler (sched/batch_sampler.hpp) draws from the same
// scalar generator: each chunk's stream feeds the binomials of its
// multinomial class splits (util/multinomial.hpp) directly.

#include <cstdint>

namespace cdse {

/// splitmix64: seeds xoshiro and derives per-stream seeds.
std::uint64_t splitmix64(std::uint64_t& state);

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Deterministically derives the generator for stream `stream` of the
  /// experiment seeded with `seed` (thread-count independent).
  static Xoshiro256 for_stream(std::uint64_t seed, std::uint64_t stream);

  result_type operator()();

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform integer in [0, n), exactly unbiased. Requires n > 0.
  /// Lemire multiply-shift with the rejection step: a draw landing in
  /// the 2^64 mod n residue window is retried, which costs < 1 extra
  /// draw amortized even at adversarial n (worst case n = 2^63 + 1
  /// rejects ~half the draws; the small n used by schedulers reject
  /// with probability < n / 2^64, i.e. never in practice).
  std::uint64_t below(std::uint64_t n);

  /// Bernoulli(p) draw.
  bool bernoulli(double p) { return uniform() < p; }

 private:
  std::uint64_t s_[4];
};

}  // namespace cdse
