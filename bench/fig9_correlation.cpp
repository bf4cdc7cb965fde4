//===- bench/fig9_correlation.cpp - Figure 9 ------------------------------===//
//
// Regenerates Figure 9: the biased-period tracks of vortex's flipping
// branches.  Each track is the period(s) of the run during which one
// static branch's 1000-instance block bias stays >= 99%; branches in the
// same correlation group change behavior together, which is what lets one
// code re-optimization fold several controller transitions (Sec. 4.3).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "profile/BiasSeries.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::profile;
using namespace specctrl::workload;

int main(int Argc, char **Argv) try {
  OptionSet Opts("fig9_correlation: Figure 9, correlated behavioral changes "
                 "of vortex's flipping branches");
  addCsvOption(Opts);
  addScaleOptions(Opts);
  Opts.addString("bench", "vortex", "which benchmark to analyze");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  const WorkloadSpec Spec =
      makeBenchmark(Opts.getString("bench"), Opt.Scale);
  printBanner("Figure 9",
              Spec.Name + ": periods when each group-flipping branch is "
                          "biased (>=99% block bias); groups flip together");

  // Track every phase-group site.
  std::vector<SiteId> Tracked;
  for (SiteId S = 0; S < Spec.numSites(); ++S)
    if (Spec.Sites[S].Behavior.Kind == BehaviorKind::PhaseGroup)
      Tracked.push_back(S);

  BiasSeriesCollector Collector(Tracked, 1000);
  TraceGenerator Gen(Spec, Spec.refInput());
  std::vector<BranchEvent> Chunk(DefaultBatchEvents);
  while (const size_t N = Gen.nextBatch(Chunk))
    for (size_t I = 0; I < N; ++I)
      Collector.addOutcome(Chunk[I].Site, Chunk[I].Taken, Chunk[I].Index);
  Collector.finish(Gen.eventsGenerated());

  const double Total = static_cast<double>(Gen.eventsGenerated());
  Table Out({"site", "group", "biased periods (% of run)"});
  std::map<uint32_t, std::vector<std::string>> ByGroup;
  for (size_t T = 0; T < Tracked.size(); ++T) {
    const SiteId S = Tracked[T];
    const uint32_t G = Spec.Sites[S].Behavior.GroupId;
    std::string Periods;
    for (const auto &[Lo, Hi] : Collector.biasedIntervals(T, 0.99)) {
      if (!Periods.empty())
        Periods += ", ";
      Periods += formatPercent(Lo / Total, 0) + "-" +
                 formatPercent(Hi / Total, 0);
    }
    Out.row()
        .cell("site " + std::to_string(S))
        .cell(G)
        .cell(Periods.empty() ? "(never biased)" : Periods);
  }
  Out.print(std::cout, Opt.Csv);

  // The group schedules themselves: the ground truth the tracks follow.
  std::cout << "\ngroup schedules (phase 0.." << Spec.NumPhases - 1
            << ", '#' = biased regime):\n";
  for (uint32_t G = 0; G < Spec.numGroups(); ++G) {
    std::string RowStr;
    for (unsigned P = 0; P < Spec.NumPhases; ++P)
      RowStr += Spec.groupOnInPhase(G, P) ? '#' : '.';
    std::cout << "  group " << G << ": " << RowStr << '\n';
  }
  return 0;
} catch (const std::invalid_argument &E) {
  std::fprintf(stderr, "error: %s\n", E.what());
  return 1;
}
