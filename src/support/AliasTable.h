//===- support/AliasTable.h - O(1) weighted discrete sampling ---*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Walker's alias method: O(n) construction, O(1) sampling from a discrete
/// distribution.  The trace generator draws hundreds of millions of branch
/// sites per experiment, so constant-time sampling matters; it reads each
/// phase's slots (keepProbability, alias) into its own slot table and
/// draws from that with the same RNG calls as sample().
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_SUPPORT_ALIASTABLE_H
#define SPECCTRL_SUPPORT_ALIASTABLE_H

#include "support/Rng.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace specctrl {

/// Samples indices 0..n-1 with probability proportional to the construction
/// weights.
class AliasTable {
public:
  AliasTable() = default;

  /// Builds the table from \p Weights.  Non-positive weights are treated as
  /// zero; at least one weight must be positive.
  explicit AliasTable(const std::vector<double> &Weights) { build(Weights); }

  void build(const std::vector<double> &Weights);

  bool empty() const { return Prob.empty(); }
  size_t size() const { return Prob.size(); }

  /// Draws one index: a uniform slot (R.nextBelow(size()), without its
  /// divisions), then the slot's own index with probability
  /// keepProbability(Slot) and its alias otherwise.
  uint32_t sample(Rng &R) const {
    assert(!Prob.empty() && "sampling from an empty alias table");
    const uint32_t Slot = static_cast<uint32_t>(SlotDraw.draw(R));
    return R.nextDouble() < Prob[Slot] ? Slot : Alias[Slot];
  }

  /// The probability that sample() keeps \p Slot rather than its alias.
  double keepProbability(uint32_t Slot) const { return Prob[Slot]; }
  uint32_t alias(uint32_t Slot) const { return Alias[Slot]; }

private:
  std::vector<double> Prob;
  std::vector<uint32_t> Alias;
  BoundedDraw SlotDraw;
};

} // namespace specctrl

#endif // SPECCTRL_SUPPORT_ALIASTABLE_H
