//===- profile/BiasSeries.h - Block-averaged bias over time -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Block-averaged per-site bias time series: branch bias averaged over
/// blocks of N dynamic instances, the measurement behind Fig. 3 (five
/// initially-invariant gap branches) and Fig. 9 (vortex's correlated
/// biased-period tracks).
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_PROFILE_BIASSERIES_H
#define SPECCTRL_PROFILE_BIASSERIES_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace specctrl {
namespace profile {

using SiteId = uint32_t;

/// One completed block of a site's series.
struct BiasBlock {
  /// Global event index when the block completed (for cross-site time
  /// alignment, Fig. 9).
  uint64_t GlobalIndex = 0;
  /// Fraction of the block's executions that were taken.
  double TakenFraction = 0.0;
};

/// Collects per-site block-bias series for a chosen set of sites.
class BiasSeriesCollector {
public:
  /// Tracks \p Sites, closing a block every \p BlockSize executions.
  /// Throws std::invalid_argument when \p BlockSize is 0.
  BiasSeriesCollector(std::vector<SiteId> Sites, uint64_t BlockSize = 1000);

  /// Feeds one dynamic branch.  \p GlobalIndex is the run-wide event index.
  void addOutcome(SiteId Site, bool Taken, uint64_t GlobalIndex);

  /// Finishes any partial blocks (call once, after the run).
  void finish(uint64_t GlobalIndex);

  uint64_t blockSize() const { return BlockSize; }
  const std::vector<SiteId> &sites() const { return Sites; }

  /// The completed series of tracked site \p TrackIdx (index into sites()).
  const std::vector<BiasBlock> &series(size_t TrackIdx) const {
    return Series[TrackIdx];
  }

  /// Returns the [start,end) global-index intervals during which the
  /// site's block bias stayed at or above \p BiasThreshold in either
  /// direction (the horizontal "biased period" lines of Fig. 9).
  std::vector<std::pair<uint64_t, uint64_t>>
  biasedIntervals(size_t TrackIdx, double BiasThreshold = 0.99) const;

private:
  struct Track {
    uint64_t Count = 0;
    uint64_t TakenCount = 0;
  };

  std::vector<SiteId> Sites;
  std::vector<int32_t> SiteToTrack; ///< -1 = untracked
  std::vector<Track> Open;
  std::vector<std::vector<BiasBlock>> Series;
  uint64_t BlockSize;
};

} // namespace profile
} // namespace specctrl

#endif // SPECCTRL_PROFILE_BIASSERIES_H
