//===- bench/fig3_changing_branches.cpp - Figure 3 ------------------------===//
//
// Regenerates Figure 3: branch bias averaged over blocks of 1000 dynamic
// instances for static branches (default: five, from gap) that look
// perfectly biased for at least their first 20,000 executions and then
// change behavior -- from the outcome stream alone they are
// indistinguishable from truly biased branches until the change hits.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "profile/BiasSeries.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::profile;
using namespace specctrl::workload;

int main(int Argc, char **Argv) try {
  OptionSet Opts("fig3_changing_branches: Figure 3, initially-invariant "
                 "branches that later change");
  addCsvOption(Opts);
  addScaleOptions(Opts);
  Opts.addString("bench", "gap", "which benchmark to sample");
  Opts.addInt("tracks", 5, "number of changing branches to plot");
  Opts.addInt("block", 1000, "bias-averaging block size (executions)");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  const WorkloadSpec Spec =
      makeBenchmark(Opts.getString("bench"), Opt.Scale);
  const unsigned Tracks = static_cast<unsigned>(Opts.getInt("tracks"));
  const uint64_t Block = static_cast<uint64_t>(Opts.getInt("block"));

  printBanner("Figure 3",
              "per-branch bias over blocks of " + std::to_string(Block) +
                  " instances, " + Spec.Name +
                  " branches biased for >= 20k executions then changing");

  // Pick changing sites whose change point is late enough (>= 20k execs).
  std::vector<SiteId> Chosen;
  for (SiteId S = 0; S < Spec.numSites() && Chosen.size() < Tracks; ++S) {
    const BehaviorSpec &B = Spec.Sites[S].Behavior;
    const bool LateChange =
        ((B.Kind == BehaviorKind::FlipAt || B.Kind == BehaviorKind::Soften) &&
         B.ChangeAt >= 20000) ||
        B.Kind == BehaviorKind::InductionFlip;
    if (LateChange)
      Chosen.push_back(S);
  }

  BiasSeriesCollector Collector(Chosen, Block);
  TraceGenerator Gen(Spec, Spec.refInput());
  std::vector<BranchEvent> Chunk(DefaultBatchEvents);
  for (uint64_t Position = 0; const size_t N = Gen.nextBatch(Chunk);
       Position += N)
    for (size_t I = 0; I < N; ++I)
      Collector.addOutcome(Chunk[I].Site, Chunk[I].Taken, Position + I);
  Collector.finish(Gen.eventsGenerated());

  Table Out({"site", "behavior", "instances", "bias (block avg)"});
  for (size_t T = 0; T < Chosen.size(); ++T) {
    const auto &Series = Collector.series(T);
    // Subsample long series to ~24 printed points.
    const size_t Step = std::max<size_t>(1, Series.size() / 24);
    for (size_t I = 0; I < Series.size(); I += Step) {
      const double Taken = Series[I].TakenFraction;
      Out.row()
          .cell("site " + std::to_string(Chosen[T]))
          .cell(behaviorKindName(Spec.Sites[Chosen[T]].Behavior.Kind))
          .cell(static_cast<uint64_t>((I + 1) * Block))
          .cellPercent(std::max(Taken, 1.0 - Taken));
    }
  }

  Out.print(std::cout, Opt.Csv);
  return 0;
} catch (const std::invalid_argument &E) {
  std::fprintf(stderr, "error: %s\n", E.what());
  return 2;
}
