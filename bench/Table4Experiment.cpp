//===- bench/Table4Experiment.cpp - Shared Table 4 sweep ------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Table4Experiment.h"

#include "core/ReactiveController.h"
#include "support/Table.h"
#include "workload/TraceArena.h"

#include <algorithm>
#include <memory>
#include <ostream>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::core;

ReactiveConfig bench::withBaseLatency(const ReactiveConfig &Base,
                                      ReactiveConfig Variant) {
  Variant.OptLatency = Base.OptLatency;
  // Keep the scaled wait period except where the variant itself changes
  // it (frequent revisit = one order of magnitude below the baseline).
  Variant.WaitPeriod = Variant.WaitPeriod == ReactiveConfig().WaitPeriod
                           ? Base.WaitPeriod
                           : Base.WaitPeriod / 10;
  // Keep the sampling variant's 10% duty cycle but scale the window with
  // the compressed site lifetimes.
  if (Variant.EvictBySampling) {
    Variant.EvictSampleWindow = 2000;
    Variant.EvictSampleCount = 200;
  }
  return Variant;
}

std::vector<Table4Variant>
bench::table4Variants(const ReactiveConfig &Base, bool NoOscillationLimit) {
  std::vector<Table4Variant> Variants = {
      {"no revisit", withBaseLatency(Base, ReactiveConfig::noRevisit()),
       "35.8%", "0.007%"},
      {"lower eviction threshold",
       withBaseLatency(Base, ReactiveConfig::lowerEvictionThreshold()),
       "42.9%", "0.015%"},
      {"eviction by sampling",
       withBaseLatency(Base, ReactiveConfig::evictionBySampling()), "43.6%",
       "0.021%"},
      {"baseline", Base, "44.8%", "0.023%"},
      {"sampling in monitor",
       withBaseLatency(Base, ReactiveConfig::monitorSampling()), "44.8%",
       "0.025%"},
      {"more frequent revisit (100k)",
       withBaseLatency(Base, ReactiveConfig::frequentRevisit()), "46.1%",
       "0.033%"},
      {"no eviction", withBaseLatency(Base, ReactiveConfig::noEviction()),
       "53.9%", "1.979%"},
  };
  if (NoOscillationLimit) {
    ReactiveConfig C = Base;
    C.OscillationLimit = 0;
    Variants.push_back({"no oscillation limit", C, "-", "-"});
  }
  return Variants;
}

engine::ExperimentPlan
bench::table4Plan(const SuiteOptions &Opt,
                  const std::vector<Table4Variant> &Variants) {
  // One engine cell per (benchmark, configuration); every cell builds its
  // own controller from the captured config, so parallel execution is
  // bit-identical to serial.
  engine::ExperimentPlan Plan = suitePlan(Opt);
  Plan.setTraceArena(std::make_shared<workload::TraceArena>());
  for (const Table4Variant &V : Variants)
    Plan.addConfig(V.Name,
                   [Config = V.Config](const engine::CellContext &) {
                     return std::make_unique<ReactiveController>(Config);
                   });
  return Plan;
}

namespace {

struct Row {
  std::string Name;
  std::string PaperCorrect;
  std::string PaperIncorrect;
  SuiteAverage Average;
};

} // namespace

void bench::printTable4Report(std::ostream &OS,
                              const engine::RunReport &Report,
                              const std::vector<Table4Variant> &Variants,
                              size_t NumBenchmarks, bool Csv) {
  std::vector<Row> Rows;
  for (uint32_t V = 0; V < Variants.size(); ++V) {
    Rows.push_back({Variants[V].Name, Variants[V].PaperCorrect,
                    Variants[V].PaperIncorrect,
                    suiteAverage(Report, NumBenchmarks, V)});
  }

  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const Row &A, const Row &B) {
                     return A.Average.Correct < B.Average.Correct;
                   });

  Table Out({"configuration", "correct", "incorrect", "requests",
             "suppressed"});
  for (const Row &R : Rows)
    Out.row()
        .cell(R.Name + (R.PaperCorrect[0] != '-'
                            ? " (" + R.PaperCorrect + "/" +
                                  R.PaperIncorrect + ")"
                            : ""))
        .cellPercent(R.Average.Correct)
        .cellPercent(R.Average.Incorrect, 4)
        .cell(R.Average.Requests)
        .cell(R.Average.Suppressed);

  Out.print(OS, Csv);
}
