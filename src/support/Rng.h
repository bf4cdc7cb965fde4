//===- support/Rng.h - Deterministic random number generation --*- C++ -*-===//
//
// Part of the specctrl project: a reproduction of "Reactive Techniques for
// Controlling Software Speculation" (Zilles & Neelakantam, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable pseudo-random number generation used throughout
/// the workload substrate and the simulators.  Every experiment in this
/// repository must be bit-reproducible from a seed, so all randomness flows
/// through this generator rather than std::random_device or rand().
///
/// The implementation is xoshiro256** seeded via SplitMix64, the standard
/// combination recommended by Blackman & Vigna.  Streams can be forked
/// deterministically so that independent subsystems (e.g. per-branch-site
/// behavior models) do not perturb each other's sequences.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_SUPPORT_RNG_H
#define SPECCTRL_SUPPORT_RNG_H

#include <cassert>
#include <cstdint>

namespace specctrl {

/// A deterministic xoshiro256** pseudo-random number generator.
class Rng {
public:
  /// Constructs a generator from a 64-bit seed via SplitMix64 expansion.
  explicit Rng(uint64_t Seed = 0x9E3779B97F4A7C15ull) { reseed(Seed); }

  /// Re-initializes the state from \p Seed.  Equal seeds give equal streams.
  void reseed(uint64_t Seed) {
    uint64_t X = Seed;
    for (uint64_t &Word : State)
      Word = splitMix64(X);
  }

  /// Returns the next 64 uniformly distributed bits.
  uint64_t next() {
    const uint64_t Result = rotl(State[1] * 5, 7) * 9;
    const uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Returns a uniformly distributed value in [0, Bound).  \p Bound must be
  /// nonzero.  Uses rejection sampling to avoid modulo bias.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow(0) is meaningless");
    const uint64_t Threshold = -Bound % Bound;
    for (;;) {
      const uint64_t R = next();
      if (R >= Threshold)
        return R % Bound;
    }
  }

  /// Returns a uniformly distributed value in [Lo, Hi] inclusive.
  uint64_t nextInRange(uint64_t Lo, uint64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + nextBelow(Hi - Lo + 1);
  }

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble() {
    // 53 high bits -> the canonical [0,1) double construction.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool nextBool(double P) {
    if (P <= 0.0)
      return false;
    if (P >= 1.0)
      return true;
    return nextDouble() < P;
  }

  /// Forks a statistically independent generator for stream \p StreamId.
  /// Forking is deterministic: the same (parent seed, StreamId) pair always
  /// yields the same child stream, and the parent's own sequence is not
  /// advanced.
  Rng fork(uint64_t StreamId) const {
    // Mix the full parent state with the stream id through SplitMix64 so
    // different streams decorrelate even for adjacent ids.
    uint64_t X = State[0] ^ rotl(State[1], 13) ^ rotl(State[2], 29) ^
                 rotl(State[3], 47) ^ (StreamId * 0xDA942042E4DD58B5ull);
    return Rng(splitMix64(X));
  }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  static uint64_t splitMix64(uint64_t &X) {
    X += 0x9E3779B97F4A7C15ull;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }

  uint64_t State[4];
};

/// Rng::nextBelow for a bound fixed up front.  The rejection threshold and
/// an exact 128-bit reciprocal of the bound are computed once, so a draw
/// costs no division: draw(R) reads the same words from R and returns the
/// same value as R.nextBelow(Bound).
class BoundedDraw {
public:
  explicit BoundedDraw(uint64_t Bound = 1) : Bound(Bound) {
    assert(Bound != 0 && "BoundedDraw(0) is meaningless");
    Threshold = -Bound % Bound;
    // ceil(2^128 / Bound), which wraps to 0 for Bound == 1 (X % 1 == 0).
    Reciprocal = ~U128(0) / Bound + 1;
  }

  /// X % Bound, exact for every 64-bit X (Lemire, Kaser & Kurz, "Faster
  /// Remainder by Direct Computation", 2019: 128 fraction bits cover a
  /// 64-bit numerator and a 64-bit divisor).  The low 128 bits of
  /// Reciprocal * X are the fraction X / Bound; scaling it by Bound leaves
  /// the remainder in bits 128..191.
  uint64_t remainder(uint64_t X) const {
    const U128 Fraction = Reciprocal * X;
    const U128 Low = U128(static_cast<uint64_t>(Fraction)) * Bound >> 64;
    const U128 High = U128(static_cast<uint64_t>(Fraction >> 64)) * Bound;
    return static_cast<uint64_t>((Low + High) >> 64);
  }

  /// Returns R.nextBelow(Bound), consuming the same words of \p R.
  uint64_t draw(Rng &R) const {
    for (;;) {
      const uint64_t X = R.next();
      if (X >= Threshold)
        return remainder(X);
    }
  }

private:
  using U128 = unsigned __int128;

  U128 Reciprocal;
  uint64_t Bound;
  uint64_t Threshold;
};

} // namespace specctrl

#endif // SPECCTRL_SUPPORT_RNG_H
