//===- profile/BiasSeries.cpp - Block-averaged bias over time -------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "profile/BiasSeries.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::profile;

BiasSeriesCollector::BiasSeriesCollector(std::vector<SiteId> Sites,
                                         uint64_t BlockSize)
    : Sites(std::move(Sites)), BlockSize(BlockSize) {
  if (BlockSize == 0)
    throw std::invalid_argument("bias block size must be positive");
  SiteId MaxSite = 0;
  for (SiteId S : this->Sites)
    MaxSite = std::max(MaxSite, S);
  SiteToTrack.assign(MaxSite + 1, -1);
  for (size_t T = 0; T < this->Sites.size(); ++T)
    SiteToTrack[this->Sites[T]] = static_cast<int32_t>(T);
  Open.resize(this->Sites.size());
  Series.resize(this->Sites.size());
}

void BiasSeriesCollector::addOutcome(SiteId Site, bool Taken,
                                     uint64_t GlobalIndex) {
  if (Site >= SiteToTrack.size() || SiteToTrack[Site] < 0)
    return;
  Track &T = Open[static_cast<size_t>(SiteToTrack[Site])];
  ++T.Count;
  T.TakenCount += Taken;
  if (T.Count >= BlockSize) {
    Series[static_cast<size_t>(SiteToTrack[Site])].push_back(
        {GlobalIndex, static_cast<double>(T.TakenCount) /
                          static_cast<double>(T.Count)});
    T = Track();
  }
}

void BiasSeriesCollector::finish(uint64_t GlobalIndex) {
  for (size_t T = 0; T < Open.size(); ++T) {
    if (Open[T].Count == 0)
      continue;
    Series[T].push_back({GlobalIndex,
                         static_cast<double>(Open[T].TakenCount) /
                             static_cast<double>(Open[T].Count)});
    Open[T] = Track();
  }
}

std::vector<std::pair<uint64_t, uint64_t>>
BiasSeriesCollector::biasedIntervals(size_t TrackIdx,
                                     double BiasThreshold) const {
  assert(TrackIdx < Series.size() && "track index out of range");
  std::vector<std::pair<uint64_t, uint64_t>> Intervals;
  const std::vector<BiasBlock> &Blocks = Series[TrackIdx];
  uint64_t Start = 0;
  bool InBiased = false;
  uint64_t PrevEnd = 0;
  for (const BiasBlock &B : Blocks) {
    const double Bias = std::max(B.TakenFraction, 1.0 - B.TakenFraction);
    const bool Biased = Bias >= BiasThreshold;
    if (Biased && !InBiased) {
      Start = PrevEnd;
      InBiased = true;
    } else if (!Biased && InBiased) {
      Intervals.emplace_back(Start, PrevEnd);
      InBiased = false;
    }
    PrevEnd = B.GlobalIndex;
  }
  if (InBiased)
    Intervals.emplace_back(Start, PrevEnd);
  return Intervals;
}
