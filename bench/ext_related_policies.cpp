//===- bench/ext_related_policies.cpp - Sec. 5's predictions, tested ------===//
//
// The paper's related-work section makes two testable comparative claims:
//
//  1. Dynamo's preemptive fragment-cache flushing (no per-site feedback)
//     "will likely perform somewhere between closed-loop and open-loop
//     policies";
//  2. hardware speculation's per-instance saturating counters are the
//     fine-grain adaptivity reference that software speculation trades
//     away for code transformations.
//
// This experiment runs both against the paper's model on the full suite.
// Expected shape: open-loop <= dynamo-flush <= closed-loop on
// misspeculation control, and the hardware counter reference showing high
// coverage with instance-granular misspeculation (cheap there, ruinous
// for software speculation).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/AlternativeControllers.h"
#include "core/ReactiveController.h"
#include "support/Table.h"
#include "workload/TraceArena.h"

#include <iostream>
#include <iterator>
#include <memory>
#include <utility>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::core;
using namespace specctrl::workload;

int main(int Argc, char **Argv) {
  OptionSet Opts("ext_related_policies: Dynamo-style flushing and "
                 "hardware-style counters vs the paper's model (Sec. 5)");
  addSweepOptions(Opts);
  Opts.addInt("flush-interval", 25000000,
              "Dynamo flush interval in dynamic instructions");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner("Extension: related-work policies",
              "suite-average rates: open loop <= dynamo-flush <= closed "
              "loop (the paper's Sec. 5 prediction), plus the hardware "
              "per-instance reference");

  const ReactiveConfig Base = scaledBaseline(Opts);
  ReactiveConfig Open = Base;
  Open.EnableEviction = false;
  Open.EnableRevisit = false;
  const uint64_t FlushInterval = readCount(Opts, "flush-interval", 1);

  // One column per policy; all four replay each benchmark's one shared
  // materialization.
  const std::pair<const char *, engine::ControllerFactory> Policies[] = {
      {"open loop (one-shot)",
       [Open](const engine::CellContext &) {
         return std::make_unique<ReactiveController>(Open, "open");
       }},
      {"dynamo-flush",
       [Base, FlushInterval](const engine::CellContext &) {
         return std::make_unique<DynamoFlushController>(Base, FlushInterval);
       }},
      {"closed loop (paper model)",
       [Base](const engine::CellContext &) {
         return std::make_unique<ReactiveController>(Base, "closed");
       }},
      {"hardware 2-bit (per-instance reference)",
       [](const engine::CellContext &) {
         return std::make_unique<HardwareCounterController>();
       }},
  };
  engine::ExperimentPlan Plan = suitePlan(Opt);
  Plan.setTraceArena(std::make_shared<workload::TraceArena>());
  for (const auto &[Name, Make] : Policies)
    Plan.addConfig(Name, Make);
  const engine::RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  const size_t NumBenchmarks = Plan.benchmarks().size();
  Table Out({"policy", "correct", "incorrect", "code-change requests"});
  for (uint32_t P = 0; P < std::size(Policies); ++P) {
    const SuiteAverage A = suiteAverage(Report, NumBenchmarks, P);
    Out.row()
        .cell(Policies[P].first)
        .cellPercent(A.Correct)
        .cellPercent(A.Incorrect, 4)
        .cell(A.Requests);
  }
  Out.print(std::cout, Opt.Csv);

  std::cout << "\n(the hardware row's misspeculations cost ~a pipeline "
               "refill each; for software\nspeculation the same rate "
               "would cost hundreds of cycles per instance -- Sec. 1's\n"
               "contrast between the two speculation classes)\n";
  return 0;
}
