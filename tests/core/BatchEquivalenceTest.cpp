//===- tests/core/BatchEquivalenceTest.cpp --------------------------------===//
//
// The batched pipeline's core contract: driving a run in chunks of any
// size produces results bit-identical to a per-event reference loop kept
// here, independent of the driver (TraceGenerator::next, then one event at
// a time into onBranch, or, for the reactive controller, whose onBranch is
// its own batch loop at a chunk of one, into the executable FSM spec,
// oracle/FsmSpec.h).  Exercised as a property over the full
// twelve-benchmark paper suite on both inputs, for the reactive
// controller and the static baselines, at the default chunk size, a
// deliberately odd one (so final partial chunks and chunk-boundary
// effects are covered), and chunks of one, and through the engine at
// several worker counts.  The verdicts onBatch writes obey the same
// contract for every controller family, and count to the stats.  Every
// scaled reactive variant (ScaledVariants.h) writes the same verdicts and
// stats, Fig. 6's transition records in order included, at every chunk
// size, over the suite and the oscillation pump.
//
// `ctest -R batch_equivalence` is the stable handle for this suite (see
// tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include "ScaledVariants.h"

#include "../oracle/FsmSpec.h"

#include "core/AlternativeControllers.h"
#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "core/StaticControllers.h"
#include "engine/ExperimentRunner.h"
#include "workload/SpecSuite.h"
#include "workload/TraceFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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

using scaled::TestScale;

/// The chunk sizes under test: the pipeline default, an odd size that
/// never divides the event count (so the final chunk is partial and chunk
/// boundaries land mid-phase), and chunks of one event.
constexpr size_t TestBatches[] = {workload::DefaultBatchEvents, 257, 1};

/// The reactive config the per-event checks run: the scaled baseline at
/// the scaled presets' optimization latency, so requests stay pending
/// across chunk boundaries and go live at a later execution of their
/// site.  (Latency 0 is EveryVariantInvariantUnderChunking's
/// baseline-latency-0 row.)
ReactiveConfig reactiveUnderTest() {
  return scaled::scaleDown(ReactiveConfig::baseline(), scaled::ScaledLatency);
}

/// Runs (Spec, Input) under reactiveUnderTest() with the given chunk size
/// and returns the final stats.
ControlStats runReactive(const WorkloadSpec &Spec, const InputConfig &Input,
                         size_t BatchEvents) {
  ReactiveController C(reactiveUnderTest());
  runWorkload(C, Spec, Input, BatchEvents);
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
  runWorkload(C, Spec, Input, BatchEvents);
  return C.stats();
}

ControlStats staticReference(const WorkloadSpec &Spec,
                             const InputConfig &Input,
                             const profile::BranchProfile &Profile) {
  StaticSelectionController C(Profile, 0.95);
  return perEventReference(C, Spec, Input);
}

/// One verdict, encoded for comparison: bit 1 Speculated, bit 0 Correct.
using VerdictCodes = std::vector<uint8_t>;

uint8_t code(const BranchVerdict &V) {
  return static_cast<uint8_t>(V.Speculated << 1 | V.Correct);
}

/// The verdicts onBatch writes over the whole stream, in chunks of
/// \p BatchEvents.
VerdictCodes batchVerdicts(SpeculationController &C, const WorkloadSpec &Spec,
                           const InputConfig &Input, size_t BatchEvents) {
  TraceGenerator Gen(Spec, Input);
  std::vector<BranchEvent> Events(BatchEvents);
  std::vector<BranchVerdict> Verdicts(BatchEvents);
  VerdictCodes Out;
  while (const size_t N = Gen.nextBatch(Events)) {
    C.onBatch({Events.data(), N}, Verdicts.data());
    for (size_t I = 0; I < N; ++I)
      Out.push_back(code(Verdicts[I]));
  }
  return Out;
}

/// The verdicts per-event onBranch returns over the whole stream.
VerdictCodes perEventVerdicts(SpeculationController &C,
                              const WorkloadSpec &Spec,
                              const InputConfig &Input) {
  TraceGenerator Gen(Spec, Input);
  BranchEvent E;
  VerdictCodes Out;
  while (Gen.next(E))
    Out.push_back(code(C.onBranch(E.Site, E.Taken, E.InstRet)));
  return Out;
}

/// Requires \p Verdicts to count to \p Stats: every speculated verdict
/// is a correct or an incorrect speculation, and every correct one a
/// correct speculation.
void expectVerdictsCountToStats(const VerdictCodes &Verdicts,
                                const ControlStats &Stats,
                                const std::string &Where) {
  uint64_t Speculated = 0, Correct = 0;
  for (const uint8_t V : Verdicts) {
    Speculated += V >> 1;
    Correct += V == 3;
  }
  EXPECT_EQ(Speculated, Stats.CorrectSpecs + Stats.IncorrectSpecs) << Where;
  EXPECT_EQ(Correct, Stats.CorrectSpecs) << Where;
}

/// Stats and every verdict of one run of \p Config over (\p Spec,
/// \p Input), fed in chunks of \p BatchEvents.
struct ChunkedRun {
  ControlStats Stats;
  VerdictCodes Verdicts;
};

ChunkedRun runChunked(const ReactiveConfig &Config, const WorkloadSpec &Spec,
                      const InputConfig &Input, size_t BatchEvents) {
  ReactiveController C(Config);
  ChunkedRun Run;
  Run.Verdicts = batchVerdicts(C, Spec, Input, BatchEvents);
  Run.Stats = C.stats();
  return Run;
}

/// The reactive controller's per-event reference: the FSM spec under
/// \p Config, stepped one generator event at a time.
ChunkedRun specRun(const ReactiveConfig &Config, const WorkloadSpec &Spec,
                   const InputConfig &Input) {
  oracle::FsmSpec Fsm(Config);
  TraceGenerator Gen(Spec, Input);
  BranchEvent E;
  ChunkedRun Run;
  while (Gen.next(E))
    Run.Verdicts.push_back(code(Fsm.step(E.Site, E.Taken, E.InstRet)));
  Run.Stats = Fsm.stats();
  return Run;
}

/// specRun under reactiveUnderTest(), with EventsConsumed accounted as
/// the driver does.
ControlStats reactiveReference(const WorkloadSpec &Spec,
                               const InputConfig &Input) {
  ChunkedRun Run = specRun(reactiveUnderTest(), Spec, Input);
  Run.Stats.EventsConsumed = Run.Verdicts.size();
  return Run.Stats;
}

ExperimentPlan fullSuitePlan() {
  ExperimentPlan Plan;
  Plan.setBaseSeed(42);
  for (const BenchmarkProfile &P : suiteProfiles())
    Plan.addBenchmark(makeBenchmark(P, TestScale));
  Plan.addConfig("baseline", [](const CellContext &) {
    return std::make_unique<ReactiveController>(reactiveUnderTest());
  });
  return Plan;
}

/// Serializes a report the way the bench harnesses do (one CSV row per
/// cell, every integer stat that feeds a paper table): byte-identical
/// strings across jobs/chunk settings is the user-visible equivalence.
std::string reportCsv(const RunReport &Report) {
  std::ostringstream OS;
  OS << "benchmark,input,config,events,branches,correct,incorrect,"
        "deploys,revokes,suppressed,evictions,revisits,touched\n";
  for (const CellResult &Cell : Report.Cells) {
    const ControlStats &S = Cell.Stats;
    OS << Cell.Benchmark << ',' << Cell.Input << ',' << Cell.Config << ','
       << S.EventsConsumed << ',' << S.Branches << ','
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

TEST(BatchEquivalenceTest, EveryVariantInvariantUnderChunking) {
  std::vector<WorkloadSpec> Streams;
  for (const BenchmarkProfile &P : suiteProfiles())
    Streams.push_back(makeBenchmark(P, TestScale));
  Streams.push_back(scaled::scaledPump(200000));
  uint64_t AllSuppressed = 0;
  for (const scaled::NamedConfig &V : scaled::variants()) {
    uint64_t Deploys = 0, Evictions = 0, Suppressed = 0, Transitions = 0;
    for (const WorkloadSpec &Spec : Streams) {
      const InputConfig Input = Spec.refInput();
      const ChunkedRun Want =
          runChunked(V.Config, Spec, Input, TestBatches[0]);
      const std::string Where = V.Name + "/" + Spec.Name;
      ASSERT_EQ(Want.Verdicts.size(), Spec.RefEvents) << Where;
      expectVerdictsCountToStats(Want.Verdicts, Want.Stats, Where);
      for (const size_t Batch : std::span(TestBatches).subspan(1)) {
        const ChunkedRun Got = runChunked(V.Config, Spec, Input, Batch);
        const std::string At = Where + " batch=" + std::to_string(Batch);
        EXPECT_TRUE(Got.Verdicts == Want.Verdicts) << At;
        EXPECT_EQ(Got.Stats, Want.Stats) << At;
      }
      Deploys += Want.Stats.DeployRequests;
      Evictions += Want.Stats.Evictions;
      Suppressed += Want.Stats.SuppressedRequests;
      Transitions += Want.Stats.Transitions.size();
    }
    // Each variant must reach the paths it enables.
    EXPECT_GT(Deploys, 0u) << V.Name;
    if (V.Config.EnableEviction) {
      EXPECT_GT(Evictions, 0u) << V.Name;
      EXPECT_GT(Transitions, 0u) << V.Name;
    }
    if (V.Config.OscillationLimit == 0) {
      EXPECT_EQ(Suppressed, 0u) << V.Name;
    }
    AllSuppressed += Suppressed;
  }
  // The pump drives sites into the oscillation cap.
  EXPECT_GT(AllSuppressed, 0u);
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

TEST(BatchEquivalenceTest, VerdictsMatchPerEventForEveryController) {
  using Factory = std::function<std::unique_ptr<SpeculationController>(
      const profile::BranchProfile &)>;
  const ReactiveConfig Reactive = reactiveUnderTest();
  /// A family and its per-event reference: onBranch on a fresh
  /// controller, or, given a config, the FSM spec under it.
  struct Family {
    const char *Name;
    Factory Make;
    const ReactiveConfig *SpecConfig = nullptr;
  };
  const Family Controllers[] = {
      {"reactive",
       [&Reactive](const profile::BranchProfile &) {
         return std::make_unique<ReactiveController>(Reactive);
       },
       &Reactive},
      {"static",
       [](const profile::BranchProfile &Profile) {
         return std::make_unique<StaticSelectionController>(Profile, 0.95);
       }},
      {"dynamo-flush",
       [](const profile::BranchProfile &) {
         // The bench default (25M instructions) at TestScale's 1/200
         // run length.
         return std::make_unique<DynamoFlushController>(
             scaled::scaleDown(ReactiveConfig::baseline(), 0), 125000);
       }},
      {"hardware-2bit",
       [](const profile::BranchProfile &) {
         return std::make_unique<HardwareCounterController>();
       }},
  };
  for (const auto &[Name, Make, SpecConfig] : Controllers) {
    uint64_t SpeculatingRuns = 0;
    for (const BenchmarkProfile &P : suiteProfiles()) {
      const WorkloadSpec Spec = makeBenchmark(P, TestScale);
      const InputConfig Input = Spec.refInput();
      const profile::BranchProfile Profile = selfProfile(Spec, Input);
      const std::string Where = std::string(Name) + "/" + Spec.Name;

      ChunkedRun Want;
      if (SpecConfig) {
        Want = specRun(*SpecConfig, Spec, Input);
      } else {
        const std::unique_ptr<SpeculationController> Reference =
            Make(Profile);
        Want.Verdicts = perEventVerdicts(*Reference, Spec, Input);
        Want.Stats = Reference->stats();
      }
      ASSERT_EQ(Want.Verdicts.size(), Spec.RefEvents) << Where;
      expectVerdictsCountToStats(Want.Verdicts, Want.Stats, Where);
      SpeculatingRuns += Want.Stats.CorrectSpecs > 0;

      for (const size_t Batch : TestBatches) {
        const std::unique_ptr<SpeculationController> C = Make(Profile);
        const VerdictCodes Got = batchVerdicts(*C, Spec, Input, Batch);
        const std::string At = Where + " batch=" + std::to_string(Batch);
        EXPECT_EQ(Got, Want.Verdicts) << At;
        EXPECT_EQ(C->stats(), Want.Stats) << At;
        expectVerdictsCountToStats(Got, C->stats(), At);
      }
    }
    // Each family must actually speculate somewhere in the suite.
    EXPECT_GT(SpeculatingRuns, 0u) << Name;
  }
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

TEST(BatchEquivalenceTest, EngineReportsIdenticalAcrossJobs) {
  const ExperimentPlan Plan = fullSuitePlan();
  ASSERT_EQ(Plan.numCells(), 12u);

  // The reference report: a serial run whose every cell matches the FSM
  // spec stepped per event.
  const RunReport Reference = runPlan(Plan, {.Jobs = 1});
  for (const CellResult &Cell : Reference.Cells) {
    const BenchmarkAxis &Bench = Plan.benchmarks()[Cell.Coord.Benchmark];
    EXPECT_EQ(Cell.Stats,
              reactiveReference(Bench.Spec, Bench.Inputs[Cell.Coord.Input]))
        << Cell.Benchmark;
  }
  const std::string ReferenceCsv = reportCsv(Reference);

  for (const unsigned Jobs : {2u, 4u}) {
    const RunReport Report = runPlan(Plan, {.Jobs = Jobs});
    EXPECT_EQ(Report.failedCells(), 0u);
    EXPECT_EQ(reportCsv(Report), ReferenceCsv) << "jobs=" << Jobs;
  }
}
