//===- bench/table3_transitions.cpp - Table 3 -----------------------------===//
//
// Regenerates Table 3: per-benchmark model transition data under the
// baseline reactive configuration -- touched statics, statics that enter
// the biased state, statics evicted, total evictions, % of dynamic
// branches speculated, and the mean distance between misspeculations.
// The paper's values are printed alongside for comparison (static counts
// are population-scaled; see --site-scale).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ReactiveController.h"
#include "support/Format.h"
#include "support/Table.h"

#include <iostream>
#include <memory>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::core;
using namespace specctrl::workload;

int main(int Argc, char **Argv) {
  OptionSet Opts("table3_transitions: Table 3, model transition data");
  addSweepOptions(Opts);
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner("Table 3",
              "model transition data, baseline reactive config (paper "
              "values in parentheses; statics scaled by --site-scale)");

  // One baseline cell per benchmark, so the arena pays off across
  // invocations (--trace-cache-dir) rather than within this one.
  engine::ExperimentPlan Plan = suitePlan(Opt);
  Plan.addConfig("baseline", [Base = scaledBaseline(Opts)](
                                 const engine::CellContext &) {
    return std::make_unique<ReactiveController>(Base);
  });
  const engine::RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  Table Out({"bench", "touch", "bias", "evict", "total evicts", "% spec.",
             "misspec dist.", "requests", "suppressed"});

  double SumBiasFrac = 0, SumEvictFrac = 0, SumSpec = 0, SumDist = 0;
  uint64_t SumEvicts = 0;
  unsigned N = 0;

  const std::vector<engine::BenchmarkAxis> &Benchmarks = Plan.benchmarks();
  for (uint32_t B = 0; B < Benchmarks.size(); ++B) {
    const WorkloadSpec &Spec = Benchmarks[B].Spec;
    const ControlStats &S = Report.cell(B, 0, 0).Stats;
    const workload::BenchmarkProfile &P = profileByName(Spec.Name);
    auto WithPaper = [](uint64_t Ours, uint32_t PaperValue) {
      return std::to_string(Ours) + " (" + std::to_string(PaperValue) + ")";
    };
    Out.row()
        .cell(Spec.Name)
        .cell(WithPaper(S.touchedCount(), P.PaperTouch))
        .cell(WithPaper(S.everBiasedCount(), P.PaperBias))
        .cell(WithPaper(S.evictedSiteCount(), P.PaperEvictStatics))
        .cell(WithPaper(S.Evictions, P.PaperTotalEvicts))
        .cell(formatPercent(S.correctRate(), 1) + " (" +
              formatPercent(P.PaperSpecShare, 1) + ")")
        .cell(formatWithCommas(
            static_cast<uint64_t>(S.misspecDistance())))
        .cell(S.DeployRequests + S.RevokeRequests)
        .cell(S.SuppressedRequests);

    SumBiasFrac += static_cast<double>(S.everBiasedCount()) /
                   std::max(1u, S.touchedCount());
    SumEvictFrac += static_cast<double>(S.evictedSiteCount()) /
                    std::max(1u, S.touchedCount());
    SumSpec += S.correctRate();
    SumDist += S.misspecDistance();
    SumEvicts += S.Evictions;
    ++N;
  }

  if (N > 1) {
    Out.row()
        .cell("ave")
        .cell("")
        .cell(formatPercent(SumBiasFrac / N, 0) + " (34%)")
        .cell(formatPercent(SumEvictFrac / N, 1) + " (2%)")
        .cell(std::to_string(SumEvicts / N) + " (76)")
        .cell(formatPercent(SumSpec / N, 1) + " (44.8%)")
        .cell(formatWithCommas(static_cast<uint64_t>(SumDist / N)) +
              " (65,000)")
        .cell("")
        .cell("");
  }

  Out.print(std::cout, Opt.Csv);
  return 0;
}
