#pragma once
/// \file rng.h
/// Deterministic pseudo-random number generation (xoshiro256**).
///
/// All stochastic behaviour of the workload models is driven through this
/// generator so that every experiment is bit-reproducible from a seed.

#include <bit>
#include <cstdint>

namespace mrts {

class SnapshotWriter;
class SnapshotReader;

/// xoshiro256** 1.0 by Blackman & Vigna, seeded via splitmix64.
/// Deliberately self-contained (no <random> engine) so results are identical
/// across standard-library implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value. Defined here, with uniform01, so a hot loop
  /// drawing from a local copy keeps the state in registers.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using rejection sampling; bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal variate (Box–Muller, cached spare).
  double gaussian();

  /// Normal variate with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Creates an independent child stream (jump-free split via re-seeding).
  Rng split();

  /// Whole-generator state capture/restore (rts/snapshot.h): the four
  /// xoshiro words plus the Box–Muller spare, so a restored stream emits
  /// exactly the draws the uninterrupted one would have.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);
  std::uint64_t state_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace mrts
