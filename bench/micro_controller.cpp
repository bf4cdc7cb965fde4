//===- bench/micro_controller.cpp - Implementation-cost microbenches ------===//
//
// google-benchmark microbenchmarks backing Sec. 3.3's implementability
// claim: the controller's per-branch cost is a handful of nanoseconds and
// a few dozen bytes of state per static site, so "the model can be
// implemented in an efficient manner".
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "distill/Distiller.h"
#include "engine/ExperimentRunner.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace specctrl;

namespace {

/// Steady-state cost of one onBranch on a deployed biased site.
void BM_ControllerBiasedBranch(benchmark::State &State) {
  core::ReactiveConfig Cfg;
  Cfg.MonitorPeriod = 1000;
  Cfg.OptLatency = 0;
  core::ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  for (int I = 0; I < 2000; ++I)
    C.onBranch(0, true, InstRet += 5);

  for (auto _ : State) {
    benchmark::DoNotOptimize(C.onBranch(0, true, InstRet += 5));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ControllerBiasedBranch);

/// Cost of one onBranch while monitoring (the sampled path).
void BM_ControllerMonitorBranch(benchmark::State &State) {
  core::ReactiveConfig Cfg;
  Cfg.MonitorPeriod = ~0ull >> 1; // never classify
  core::ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  bool Taken = false;
  for (auto _ : State) {
    Taken = !Taken;
    benchmark::DoNotOptimize(C.onBranch(0, Taken, InstRet += 5));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ControllerMonitorBranch);

/// Whole-pipeline throughput: trace generation + controller, through the
/// single-run primitive the engine calls per cell.
void BM_TracePlusController(benchmark::State &State) {
  const workload::WorkloadSpec Spec = workload::makeBenchmark(
      "bzip2", {6.0e4, 0.1});
  for (auto _ : State) {
    core::ReactiveController C(core::ReactiveConfig::baseline());
    workload::TraceGenerator Gen(Spec, Spec.refInput());
    benchmark::DoNotOptimize(core::runTrace(C, Gen).CorrectSpecs);
  }
  State.SetItemsProcessed(State.iterations() * Spec.RefEvents);
}
BENCHMARK(BM_TracePlusController)->Unit(benchmark::kMillisecond);

/// Whole-suite engine throughput at (workers, chunk events) = (Args 0, 1):
/// the twelve benchmarks under the baseline reactive config, one engine
/// cell each.  Compare {1, ...} vs {4, ...} for the parallel speedup and
/// {N, 1} vs {N, 4096} for the batched-dispatch speedup; the results are
/// bit-identical at every worker count and chunk size.
void BM_EngineSuite(benchmark::State &State) {
  const workload::SuiteScale Scale{6.0e4, 0.1};
  uint64_t EventsPerRun = 0;
  uint64_t BatchesPerRun = 0;
  for (auto _ : State) {
    engine::ExperimentPlan Plan;
    for (const workload::BenchmarkProfile &P : workload::suiteProfiles())
      Plan.addBenchmark(workload::makeBenchmark(P, Scale));
    Plan.addConfig("baseline", [](const engine::CellContext &) {
      return std::make_unique<core::ReactiveController>(
          core::ReactiveConfig::baseline());
    });
    engine::RunOptions Run;
    Run.Jobs = static_cast<unsigned>(State.range(0));
    Run.BatchEvents = static_cast<size_t>(State.range(1));
    const engine::RunReport Report = engine::runPlan(Plan, Run);
    EventsPerRun = Report.totalEvents();
    BatchesPerRun = 0;
    for (const engine::CellResult &Cell : Report.Cells)
      BatchesPerRun += Cell.Batches;
    benchmark::DoNotOptimize(EventsPerRun);
  }
  State.SetItemsProcessed(State.iterations() * EventsPerRun);
  State.counters["batches"] =
      benchmark::Counter(static_cast<double>(BatchesPerRun));
}
BENCHMARK(BM_EngineSuite)
    ->Args({1, 1})
    ->Args({1, 4096})
    ->Args({2, 4096})
    ->Args({4, 4096})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

/// Trace generation alone (to separate substrate from controller cost).
void BM_TraceGeneration(benchmark::State &State) {
  const workload::WorkloadSpec Spec = workload::makeBenchmark(
      "bzip2", {6.0e4, 0.1});
  for (auto _ : State) {
    workload::TraceGenerator Gen(Spec, Spec.refInput());
    std::vector<workload::BranchEvent> Chunk(workload::DefaultBatchEvents);
    uint64_t Sum = 0;
    while (const size_t N = Gen.nextBatch(Chunk))
      for (size_t I = 0; I < N; ++I)
        Sum += Chunk[I].Taken;
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * Spec.RefEvents);
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

/// Distilling one median-sized region (the paper's ~100-instruction
/// optimization unit): the re-optimization work itself.
void BM_DistillRegion(benchmark::State &State) {
  const workload::SynthSpec Spec =
      workload::makeDefaultSynthSpec("micro", 7, 1000, 1, 0.8);
  workload::SynthProgram Program = workload::synthesize(Spec);
  const ir::Function &Region =
      Program.Mod.function(Program.RegionFunctions[0]);
  distill::DistillRequest Request;
  for (const workload::SynthSiteInfo &Info : Program.Sites)
    if (!Info.IsControlSite)
      Request.BranchAssertions[Info.Site] = true;

  for (auto _ : State) {
    distill::DistillResult R = distill::distillFunction(Region, Request);
    benchmark::DoNotOptimize(R.DistilledSize);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_DistillRegion);

/// Controller memory footprint per tracked static branch.
void BM_ControllerStateFootprint(benchmark::State &State) {
  for (auto _ : State) {
    core::ReactiveController C(core::ReactiveConfig::baseline());
    for (core::SiteId S = 0; S < 10000; ++S)
      C.onBranch(S, true, S * 5);
    benchmark::DoNotOptimize(C.stats().Branches);
  }
  State.SetItemsProcessed(State.iterations() * 10000);
}
BENCHMARK(BM_ControllerStateFootprint);

} // namespace

BENCHMARK_MAIN();
