//===- tests/core/BatchEquivalenceTest.cpp --------------------------------===//
//
// The batched pipeline's core contract: driving a run in chunks of any
// size produces results bit-identical to a per-event reference loop kept
// here, independent of the driver (TraceGenerator::next, then onBranch,
// one event at a time).  Exercised as a property over the full
// twelve-benchmark paper suite on both inputs, for the reactive
// controller and the static baselines, at the default chunk size, a
// deliberately odd one (so final partial chunks and chunk-boundary
// effects are covered), and chunks of one, and through the engine at
// several worker counts.
//
// `ctest -R batch_equivalence` is the stable handle for this suite (see
// tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "core/StaticControllers.h"
#include "engine/ExperimentRunner.h"
#include "workload/SpecSuite.h"
#include "workload/TraceFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::engine;
using namespace specctrl::workload;

namespace {

/// Small enough that the 12-benchmark x 2-input sweep runs in seconds,
/// large enough that the reactive controller classifies, deploys, and
/// evicts (the stats being compared are not all-zero).
constexpr SuiteScale TestScale{3.0e3, 0.1};

/// The chunk sizes under test: the pipeline default, an odd size that
/// never divides the event count (so the final chunk is partial and chunk
/// boundaries land mid-phase), and chunks of one event.
constexpr size_t TestBatches[] = {workload::DefaultBatchEvents, 257, 1};

ReactiveConfig scaledConfig(ReactiveConfig C) {
  C.MonitorPeriod = 100;
  C.WaitPeriod = 2000;
  C.OptLatency = 0;
  return C;
}

/// Runs (Spec, Input) under the scaled baseline reactive config with the
/// given chunk size and returns the final stats.
ControlStats runReactive(const WorkloadSpec &Spec, const InputConfig &Input,
                         size_t BatchEvents) {
  ReactiveController C(scaledConfig(ReactiveConfig::baseline()));
  runWorkload(C, Spec, Input, nullptr, BatchEvents);
  return C.stats();
}

/// The per-event reference: one generator event, one onBranch dispatch,
/// no chunk anywhere; EventsConsumed is accounted as the driver does.
ControlStats perEventReference(SpeculationController &C,
                               const WorkloadSpec &Spec,
                               const InputConfig &Input) {
  TraceGenerator Gen(Spec, Input);
  BranchEvent E;
  while (Gen.next(E)) {
    C.onBranch(E.Site, E.Taken, E.InstRet);
    ++C.stats().EventsConsumed;
  }
  return C.stats();
}

ControlStats reactiveReference(const WorkloadSpec &Spec,
                               const InputConfig &Input) {
  ReactiveController C(scaledConfig(ReactiveConfig::baseline()));
  return perEventReference(C, Spec, Input);
}

profile::BranchProfile selfProfile(const WorkloadSpec &Spec,
                                   const InputConfig &Input) {
  profile::BranchProfile P(Spec.numSites());
  TraceGenerator Gen(Spec, Input);
  BranchEvent E;
  while (Gen.next(E))
    P.addOutcome(E.Site, E.Taken);
  return P;
}

ControlStats runStatic(const WorkloadSpec &Spec, const InputConfig &Input,
                       const profile::BranchProfile &Profile,
                       size_t BatchEvents) {
  StaticSelectionController C(Profile, 0.95);
  runWorkload(C, Spec, Input, nullptr, BatchEvents);
  return C.stats();
}

ControlStats staticReference(const WorkloadSpec &Spec,
                             const InputConfig &Input,
                             const profile::BranchProfile &Profile) {
  StaticSelectionController C(Profile, 0.95);
  return perEventReference(C, Spec, Input);
}

ExperimentPlan fullSuitePlan() {
  ExperimentPlan Plan;
  Plan.setBaseSeed(42);
  for (const BenchmarkProfile &P : suiteProfiles())
    Plan.addBenchmark(makeBenchmark(P, TestScale));
  Plan.addConfig("baseline", [](const CellContext &) {
    return std::make_unique<ReactiveController>(
        scaledConfig(ReactiveConfig::baseline()));
  });
  return Plan;
}

/// Serializes a report the way the bench harnesses do (one CSV row per
/// cell, every integer stat that feeds a paper table): byte-identical
/// strings across jobs/chunk settings is the user-visible equivalence.
std::string reportCsv(const RunReport &Report) {
  std::ostringstream OS;
  OS << "benchmark,input,config,seed,events,branches,correct,incorrect,"
        "deploys,revokes,suppressed,evictions,revisits,touched\n";
  for (const CellResult &Cell : Report.Cells) {
    const ControlStats &S = Cell.Stats;
    OS << Cell.Benchmark << ',' << Cell.Input << ',' << Cell.Config << ','
       << Cell.Seed << ',' << Cell.Events << ',' << S.Branches << ','
       << S.CorrectSpecs << ',' << S.IncorrectSpecs << ','
       << S.DeployRequests << ',' << S.RevokeRequests << ','
       << S.SuppressedRequests << ',' << S.Evictions << ',' << S.Revisits
       << ',' << S.touchedCount() << '\n';
  }
  return OS.str();
}

} // namespace

TEST(BatchEquivalenceTest, ReactiveSuiteMatchesPerEventOnBothInputs) {
  uint64_t NonTrivialRuns = 0;
  for (const BenchmarkProfile &P : suiteProfiles()) {
    const WorkloadSpec Spec = makeBenchmark(P, TestScale);
    for (const InputConfig &Input : {Spec.refInput(), Spec.trainInput()}) {
      const ControlStats Reference = reactiveReference(Spec, Input);
      for (const size_t Batch : TestBatches)
        EXPECT_EQ(Reference, runReactive(Spec, Input, Batch))
            << Spec.Name << "/" << Input.Name << " batch=" << Batch;
      if (Reference.DeployRequests > 0)
        ++NonTrivialRuns;
    }
  }
  // The property must be exercising real controller activity.
  EXPECT_GT(NonTrivialRuns, 0u);
}

TEST(BatchEquivalenceTest, StaticSuiteMatchesPerEventOnBothInputs) {
  uint64_t SpeculatingRuns = 0;
  for (const BenchmarkProfile &P : suiteProfiles()) {
    const WorkloadSpec Spec = makeBenchmark(P, TestScale);
    for (const InputConfig &Input : {Spec.refInput(), Spec.trainInput()}) {
      const profile::BranchProfile Profile = selfProfile(Spec, Input);
      const ControlStats Reference = staticReference(Spec, Input, Profile);
      for (const size_t Batch : TestBatches)
        EXPECT_EQ(Reference, runStatic(Spec, Input, Profile, Batch))
            << Spec.Name << "/" << Input.Name << " batch=" << Batch;
      if (Reference.CorrectSpecs > 0)
        ++SpeculatingRuns;
    }
  }
  EXPECT_GT(SpeculatingRuns, 0u);
}

TEST(BatchEquivalenceTest, GeneratorBatchesMatchPerEventStream) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TraceGenerator PerEvent(Spec, Spec.refInput());
  TraceGenerator Batched(Spec, Spec.refInput());

  std::vector<BranchEvent> Chunk(257);
  BranchEvent Reference;
  uint64_t Count = 0;
  while (const size_t N = Batched.nextBatch(Chunk)) {
    for (size_t I = 0; I < N; ++I) {
      ASSERT_TRUE(PerEvent.next(Reference));
      ASSERT_EQ(Chunk[I], Reference) << "event " << Count;
      ++Count;
    }
  }
  EXPECT_FALSE(PerEvent.next(Reference));
  EXPECT_EQ(Count, Spec.RefEvents);
}

TEST(BatchEquivalenceTest, WriterV2BytesInvariantUnderChunking) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  std::vector<BranchEvent> All;
  {
    TraceGenerator Gen(Spec, Spec.refInput());
    BranchEvent E;
    while (Gen.next(E))
      All.push_back(E);
  }
  ASSERT_FALSE(All.empty());

  const auto record = [&](std::span<const size_t> ChunkSizes) {
    std::ostringstream OS;
    TraceWriterV2 Writer(OS, Spec.numSites(), All.size(), Spec.MinGap,
                         Spec.MaxGap);
    size_t Pos = 0, NextChunk = 0;
    while (Pos < All.size()) {
      const size_t Want = ChunkSizes[NextChunk++ % ChunkSizes.size()];
      const size_t N = std::min(Want, All.size() - Pos);
      EXPECT_TRUE(Writer.append({All.data() + Pos, N}));
      Pos += N;
    }
    EXPECT_TRUE(Writer.finish());
    return OS.str();
  };

  const size_t Ones[] = {1};
  const size_t Ragged[] = {1, 7, 333, 4096};
  const std::string A = record(Ones);
  const std::string B = record(Ragged);
  EXPECT_EQ(A, B);

  // ...and the one-shot generator-draining writer emits the same bytes.
  std::ostringstream OS;
  TraceGenerator Gen(Spec, Spec.refInput());
  ASSERT_EQ(writeTraceV2(OS, Gen), All.size());
  EXPECT_EQ(OS.str(), A);
}

TEST(BatchEquivalenceTest, EngineReportsIdenticalAcrossJobsAndChunks) {
  const ExperimentPlan Plan = fullSuitePlan();
  ASSERT_EQ(Plan.numCells(), 12u);

  // The reference report: a serial run whose every cell matches the
  // per-event loop.
  const RunReport Reference = runPlan(Plan, {.Jobs = 1});
  for (const CellResult &Cell : Reference.Cells) {
    const BenchmarkAxis &Bench = Plan.benchmarks()[Cell.Coord.Benchmark];
    EXPECT_EQ(Cell.Stats,
              reactiveReference(Bench.Spec, Bench.Inputs[Cell.Coord.Input]))
        << Cell.Benchmark;
  }
  const std::string ReferenceCsv = reportCsv(Reference);

  for (const unsigned Jobs : {1u, 4u})
    for (const size_t Batch : TestBatches) {
      RunOptions Options;
      Options.Jobs = Jobs;
      Options.BatchEvents = Batch;
      const RunReport Report = runPlan(Plan, Options);
      EXPECT_EQ(Report.failedCells(), 0u);
      EXPECT_EQ(reportCsv(Report), ReferenceCsv)
          << "jobs=" << Jobs << " batch=" << Batch;
      // Chunk accounting: every cell dispatched ceil(events/batch) chunks.
      for (const CellResult &Cell : Report.Cells)
        EXPECT_EQ(Cell.Batches, (Cell.Events + Batch - 1) / Batch)
            << Cell.Benchmark;
    }
}
