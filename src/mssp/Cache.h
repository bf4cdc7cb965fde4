//===- mssp/Cache.h - Set-associative LRU cache model -----------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative LRU cache model for the Table 5 hierarchy.  Tracks
/// block residency only (no data): the timing model charges miss latencies
/// and forwards misses to the next level.
///
/// The LRU clock and per-way timestamps are 64-bit: SPEC-length runs see
/// billions of accesses, and a 32-bit clock wraps after 2^32 of them,
/// silently inverting recency order in every set that spans the wrap
/// (pinned by CacheTest.LruClockSurvivesWrap).
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_MSSP_CACHE_H
#define SPECCTRL_MSSP_CACHE_H

#include "mssp/MachineConfig.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace specctrl {
namespace mssp {

/// Residency-tracking set-associative cache with true-LRU replacement.
class CacheModel {
public:
  explicit CacheModel(const CacheConfig &Config);

  /// Accesses the block containing word address \p WordAddr (8-byte
  /// words).  Returns true on hit; on miss the block is filled.  Inline:
  /// this runs once per simulated load/store, the hottest call in the
  /// MSSP timing model.
  bool access(uint64_t WordAddr) {
    ++Accesses;
    ++Clock;
    const uint64_t Block = WordAddr >> WordsPerBlockLog2;
    const uint32_t Set = static_cast<uint32_t>(Block) & (Sets - 1);
    const uint64_t Tag = Block >> SetsLog2;

    Way *Row = &Ways[static_cast<size_t>(Set) * Config.Assoc];
    // MRU fast path: temporal locality means most hits land on the way
    // touched last, so one compare settles the common case before the
    // full scan (which costs Assoc compares -- 8 for the trailing L1).
    // Bit-exact: a fill only happens when no way matched, so a real tag
    // is resident in at most one way and scan order cannot change which
    // way hits.  (The ~0 sentinel tag of an empty way never collides:
    // backends fault on out-of-range addresses long before a real tag
    // reaches ~0.)
    //
    // An MRU hit stores nothing: every other hit and every fill stamps the
    // clock and makes its way the MRU, so the MRU way already holds its
    // set's newest stamp and restamping it could not change a victim.
    const uint32_t M = Mru[Set];
    if (Row[M].Tag == Tag)
      return true;
    // Branch-free hit scan: a conditional move per way instead of an
    // early-exit branch per way, leaving one well-predicted hit/miss
    // branch per access (hits dominate on the MSSP hot path).  Scanning
    // downward keeps the lowest matching way, exactly like the early-exit
    // loop it replaces.  The miss path (LRU victim scan + fill) stays out
    // of line so only the hit scan inlines into the simulator hot loops.
    uint32_t Hit = UINT32_MAX;
    for (uint32_t W = Config.Assoc; W-- > 0;)
      Hit = Row[W].Tag == Tag ? W : Hit;
    if (Hit != UINT32_MAX) {
      Row[Hit].LastUse = Clock;
      Mru[Set] = static_cast<uint8_t>(Hit);
      return true;
    }
    missFill(Row, Tag, Set);
    return false;
  }

  void reset();

  uint64_t accesses() const { return Accesses; }
  uint64_t misses() const { return Misses; }
  uint32_t numSets() const { return Sets; }
  const CacheConfig &config() const { return Config; }

  /// Test hook: ages every resident line by \p Delta clock ticks at once,
  /// as if that many accesses had gone to other sets.  Exists so the
  /// 32-bit-wrap regression test can march the clock across 2^32 without
  /// simulating four billion accesses.
  void advanceClockForTesting(uint64_t Delta) { Clock += Delta; }

private:
  struct Way {
    uint64_t Tag = ~0ull;
    uint64_t LastUse = 0;
  };

  /// Miss path: evict the least-recently-used way of \p Row (set index
  /// \p Set) and fill it with \p Tag.  Out of line (Cache.cpp) on
  /// purpose -- see access().
  void missFill(Way *Row, uint64_t Tag, uint32_t Set);

  CacheConfig Config;
  uint32_t Sets;
  uint32_t SetsLog2;
  uint32_t WordsPerBlockLog2;
  std::vector<Way> Ways;    ///< Sets x Assoc, row-major
  std::vector<uint8_t> Mru; ///< per set: way of the last hit or fill
  uint64_t Clock = 0;
  uint64_t Accesses = 0;
  uint64_t Misses = 0;
};

} // namespace mssp
} // namespace specctrl

#endif // SPECCTRL_MSSP_CACHE_H
