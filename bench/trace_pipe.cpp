//===- bench/trace_pipe.cpp - Trace-pipeline throughput microbenches ------===//
//
// google-benchmark microbenches for the batched trace-event pipeline: the
// same (generation or replay) -> controller -> observer runs driven in
// chunks of one event and in larger chunks (the default path), reported
// as events/sec.  Every chunk goes through onBatch, so the argument-1 leg
// measures the per-chunk overhead the default chunk size amortizes; the
// equivalence property tests guarantee every chunk size produces
// bit-identical results.
//
// BM_TracePipe_{Reactive,Static,Replay} take the chunk size as their
// argument.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "core/StaticControllers.h"
#include "engine/ExperimentRunner.h"
#include "profile/BranchProfile.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"
#include "workload/TraceFile.h"
#include "workload/TraceGenerator.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <string>

using namespace specctrl;

namespace {

const workload::SuiteScale PipeScale{6.0e4, 0.1};

const workload::WorkloadSpec &pipeSpec() {
  static const workload::WorkloadSpec Spec =
      workload::makeBenchmark("bzip2", PipeScale);
  return Spec;
}

/// The whole-run profile of the pipe workload (for self-trained static
/// selections), computed once.
const profile::BranchProfile &pipeProfile() {
  static const profile::BranchProfile Profile =
      bench::collectProfile(pipeSpec(), pipeSpec().refInput());
  return Profile;
}

/// The pipe workload recorded once.
const std::shared_ptr<const workload::MaterializedTrace> &recordedTrace() {
  static const std::shared_ptr<const workload::MaterializedTrace> Trace = [] {
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    return workload::MaterializedTrace::record(Gen);
  }();
  return Trace;
}

core::ReactiveConfig scaledReactive() {
  core::ReactiveConfig C = core::ReactiveConfig::baseline();
  C.OptLatency = 10000;
  C.WaitPeriod = 50000;
  return C;
}

void reportRun(benchmark::State &State, const core::TraceRunMetrics &M) {
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(M.Events));
  State.counters["batches"] =
      benchmark::Counter(static_cast<double>(M.Batches));
}

/// Generation -> reactive controller, chunk size = Arg.
void BM_TracePipe_Reactive(benchmark::State &State) {
  const size_t Batch = static_cast<size_t>(State.range(0));
  core::TraceRunMetrics Metrics;
  for (auto _ : State) {
    core::ReactiveController C(scaledReactive());
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    Metrics = {};
    core::runTrace(C, Gen, nullptr, Batch, &Metrics);
    benchmark::DoNotOptimize(C.stats().CorrectSpecs);
  }
  reportRun(State, Metrics);
}
BENCHMARK(BM_TracePipe_Reactive)->Arg(1)->Arg(256)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Generation -> self-trained static selection, chunk size = Arg.
void BM_TracePipe_Static(benchmark::State &State) {
  const size_t Batch = static_cast<size_t>(State.range(0));
  core::TraceRunMetrics Metrics;
  for (auto _ : State) {
    core::StaticSelectionController C(pipeProfile(), 0.99);
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    Metrics = {};
    core::runTrace(C, Gen, nullptr, Batch, &Metrics);
    benchmark::DoNotOptimize(C.stats().CorrectSpecs);
  }
  reportRun(State, Metrics);
}
BENCHMARK(BM_TracePipe_Static)->Arg(1)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Replay (recorded trace -> controller) with a profile observer, chunk
/// size = Arg.
void BM_TracePipe_Replay(benchmark::State &State) {
  const size_t Batch = static_cast<size_t>(State.range(0));
  core::TraceRunMetrics Metrics;
  for (auto _ : State) {
    workload::TraceCursor Cursor(recordedTrace());
    core::StaticSelectionController C(pipeProfile(), 0.99);
    core::ProfileObserver Observer(recordedTrace()->numSites());
    Metrics = {};
    core::runTrace(C, Cursor, &Observer, Batch, &Metrics);
    benchmark::DoNotOptimize(Observer.profile().totalExecutions());
  }
  State.counters["trace_bytes"] =
      benchmark::Counter(static_cast<double>(recordedTrace()->bytes()));
  reportRun(State, Metrics);
}
BENCHMARK(BM_TracePipe_Replay)->Arg(1)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// A table4-shaped sweep (one workload, a ladder of reactive configs)
/// through the experiment engine, with and without the trace arena:
/// synthesize-once-and-replay vs regenerate-per-cell.  Arguments are
/// (UseArena, Jobs); each iteration builds a fresh arena, so the reported
/// time includes the one-time materialization cost the sweep amortizes.
void BM_TraceArena(benchmark::State &State) {
  const bool UseArena = State.range(0) != 0;
  const unsigned Jobs = static_cast<unsigned>(State.range(1));
  const double Ladder[] = {0.98, 0.99, 0.995, 0.998, 0.9995, 0.9999};

  engine::ExperimentPlan Plan;
  Plan.addBenchmark(pipeSpec());
  for (double T : Ladder)
    Plan.addConfig("t" + std::to_string(T),
                   [T](const engine::CellContext &) {
                     core::ReactiveConfig C = scaledReactive();
                     C.SelectThreshold = T;
                     return std::make_unique<core::ReactiveController>(C);
                   });

  engine::RunOptions Run;
  Run.Jobs = Jobs;
  uint64_t Events = 0;
  workload::TraceArenaStats Arena;
  for (auto _ : State) {
    if (UseArena)
      Plan.setTraceArena(std::make_shared<workload::TraceArena>());
    const engine::RunReport Report = engine::runPlan(Plan, Run);
    Events = Report.totalEvents();
    if (UseArena) {
      Arena = Plan.traceArena()->stats();
      Plan.setTraceArena(nullptr);
    }
    benchmark::DoNotOptimize(Events);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
  if (UseArena) {
    State.counters["materializations"] =
        benchmark::Counter(static_cast<double>(Arena.Materializations));
    State.counters["resident_bytes"] =
        benchmark::Counter(static_cast<double>(Arena.ResidentBytes));
  }
}
BENCHMARK(BM_TraceArena)
    ->ArgNames({"arena", "jobs"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond);

/// Recording throughput (generation included; counters report
/// bytes/event).
void BM_TracePipe_Record(benchmark::State &State) {
  uint64_t Events = 0;
  size_t Bytes = 0;
  for (auto _ : State) {
    std::ostringstream OS;
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    Events = workload::writeTraceV2(OS, Gen);
    Bytes = OS.str().size();
    benchmark::DoNotOptimize(Events);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
  State.counters["bytes_per_event"] = benchmark::Counter(
      Events ? static_cast<double>(Bytes) / static_cast<double>(Events)
             : 0.0);
}
BENCHMARK(BM_TracePipe_Record)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
