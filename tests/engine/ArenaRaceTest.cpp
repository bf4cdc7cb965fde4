//===- tests/engine/ArenaRaceTest.cpp -------------------------------------===//
//
// The arena-backed engine contract under concurrency.  Raw threads,
// released together by one start latch, open the same cold arena key:
// exactly one materialization happens, and every thread replays the
// generator's exact stream.  (runPlan runs each key's first cell before
// the rest, so it never races a cold key; the race is made here
// directly.)  Readers that open and drain a key while another thread
// releases and reopens it replay the exact stream too.  A parallel
// arena-backed runPlan must also match an arena-less serial run cell for
// cell.  Built to run under TSAN (-DSPECCTRL_TSAN=ON): the per-key mutex
// discipline in TraceArena is what it exercises.
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/ReactiveController.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::engine;
using namespace specctrl::workload;

namespace {

constexpr SuiteScale TestScale{3.0e3, 0.1};

ReactiveConfig scaledConfig(double SelectThreshold) {
  ReactiveConfig C = ReactiveConfig::baseline();
  C.MonitorPeriod = 100;
  C.WaitPeriod = 2000;
  C.OptLatency = 0;
  C.SelectThreshold = SelectThreshold;
  return C;
}

/// One benchmark, eight configs: every cell needs the same (spec, input)
/// trace.
ExperimentPlan contendedPlan() {
  ExperimentPlan Plan;
  Plan.setBaseSeed(42);
  Plan.addBenchmark(makeBenchmark("gzip", TestScale));
  const double Ladder[] = {0.90, 0.95, 0.98, 0.99,
                           0.995, 0.998, 0.9995, 0.9999};
  for (const double T : Ladder)
    Plan.addConfig("t" + std::to_string(T), [T](const CellContext &) {
      return std::make_unique<ReactiveController>(scaledConfig(T));
    });
  return Plan;
}

std::vector<ControlStats> cellStats(const RunReport &Report) {
  std::vector<ControlStats> Out;
  for (const CellResult &Cell : Report.Cells) {
    EXPECT_FALSE(Cell.Failed) << Cell.Config << ": " << Cell.Error;
    Out.push_back(Cell.Stats);
  }
  return Out;
}

/// Every event \p Source yields, in order.
std::vector<BranchEvent> drain(EventSource &Source) {
  std::vector<BranchEvent> Out;
  std::vector<BranchEvent> Chunk(DefaultBatchEvents);
  while (const size_t N = Source.nextBatch(Chunk))
    Out.insert(Out.end(), Chunk.begin(), Chunk.begin() + N);
  return Out;
}

} // namespace

TEST(ArenaRaceTest, ColdKeyRaceMaterializesOnceAndMatchesSerialNoArena) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TraceGenerator Gen(Spec, Spec.refInput());
  const std::vector<BranchEvent> Expected = drain(Gen);
  ASSERT_FALSE(Expected.empty());

  // The race: every thread opens the one cold key the moment the latch
  // releases them.  Repeated to give it a few chances to interleave
  // differently (esp. under TSAN).
  constexpr unsigned NumThreads = 8;
  for (unsigned Round = 0; Round < 3; ++Round) {
    TraceArena Arena;
    std::latch Start(NumThreads);
    std::vector<std::vector<BranchEvent>> Streams(NumThreads);
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&, T] {
        Start.arrive_and_wait();
        Streams[T] = drain(*Arena.open(Spec, Spec.refInput()));
      });
    for (std::thread &Thread : Threads)
      Thread.join();

    for (unsigned T = 0; T < NumThreads; ++T)
      EXPECT_TRUE(Streams[T] == Expected)
          << "thread " << T << " round " << Round;
    const TraceArenaStats S = Arena.stats();
    EXPECT_EQ(S.Materializations, 1u) << "round " << Round;
    EXPECT_EQ(S.CursorOpens, NumThreads) << "round " << Round;
    EXPECT_EQ(S.Fallbacks, 0u) << "round " << Round;
  }

  // The engine half: a parallel arena-backed run == a serial run without
  // an arena (every cell re-synthesizes its trace), cell for cell.
  ExperimentPlan Plan = contendedPlan();
  RunOptions Serial;
  Serial.Jobs = 1;
  const std::vector<ControlStats> Reference =
      cellStats(runPlan(Plan, Serial));
  ASSERT_EQ(Reference.size(), 8u);
  for (unsigned Round = 0; Round < 3; ++Round) {
    auto Arena = std::make_shared<TraceArena>();
    Plan.setTraceArena(Arena);
    RunOptions Parallel;
    Parallel.Jobs = 4;
    const std::vector<ControlStats> Replayed =
        cellStats(runPlan(Plan, Parallel));
    Plan.setTraceArena(nullptr);

    ASSERT_EQ(Replayed.size(), Reference.size());
    for (size_t I = 0; I < Reference.size(); ++I)
      EXPECT_EQ(Replayed[I], Reference[I])
          << "cell " << I << " round " << Round;
    const TraceArenaStats S = Arena->stats();
    EXPECT_EQ(S.Materializations, 1u) << "round " << Round;
    EXPECT_EQ(S.CursorOpens, 8u) << "round " << Round;
    EXPECT_EQ(S.Fallbacks, 0u) << "round " << Round;
  }
}

TEST(ArenaRaceTest, ReleaseRacesOpenAndDrain) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TraceGenerator Gen(Spec, Input);
  const std::vector<BranchEvent> Expected = drain(Gen);
  ASSERT_FALSE(Expected.empty());

  // Readers open and drain the key while one thread keeps releasing it
  // and reopening it: a release under a live cursor must not disturb it,
  // and a reopen must serve the same stream whether it finds the trace
  // still read (no new materialization) or freed (a fresh one).
  constexpr unsigned NumReaders = 4, ReaderRounds = 4, Releases = 8;
  TraceArena Arena;
  (void)Arena.materialize(Spec, Input);
  std::latch Start(NumReaders + 1);
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumReaders; ++T)
    Threads.emplace_back([&] {
      Start.arrive_and_wait();
      for (unsigned R = 0; R < ReaderRounds; ++R)
        Mismatches += drain(*Arena.open(Spec, Input)) != Expected;
    });
  Threads.emplace_back([&] {
    Start.arrive_and_wait();
    for (unsigned R = 0; R < Releases; ++R) {
      Arena.release(Spec, Input);
      Mismatches += drain(*Arena.open(Spec, Input)) != Expected;
    }
  });
  for (std::thread &Thread : Threads)
    Thread.join();

  EXPECT_EQ(Mismatches.load(), 0u);
  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Releases, Releases);
  EXPECT_GE(S.Materializations, 1u);
  EXPECT_LE(S.Materializations, 1u + Releases);
  EXPECT_EQ(S.CursorOpens, NumReaders * ReaderRounds + Releases);
  EXPECT_EQ(S.Fallbacks, 0u);
  EXPECT_EQ(S.PeakResidentKeys, 1u);
}

TEST(ArenaRaceTest, SharedArenaAcrossPlansMaterializesOncePerRun) {
  // Two plans backed by one arena: runPlan releases the key when its last
  // cell ends, so the second run materializes it again, with the same
  // results and the same arena accounting as the first.
  ExperimentPlan Plan = contendedPlan();
  auto Arena = std::make_shared<TraceArena>();
  Plan.setTraceArena(Arena);

  RunOptions Parallel;
  Parallel.Jobs = 4;
  const std::vector<ControlStats> First = cellStats(runPlan(Plan, Parallel));
  const TraceArenaStats AfterFirst = Arena->stats();
  const std::vector<ControlStats> Second = cellStats(runPlan(Plan, Parallel));
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I)
    EXPECT_EQ(First[I], Second[I]) << "cell " << I;

  EXPECT_EQ(AfterFirst.Materializations, 1u);
  EXPECT_EQ(AfterFirst.CursorOpens, 8u);
  EXPECT_EQ(AfterFirst.Releases, 1u);
  const TraceArenaStats S = Arena->stats();
  EXPECT_EQ(S.Materializations, 2 * AfterFirst.Materializations);
  EXPECT_EQ(S.CursorOpens, 2 * AfterFirst.CursorOpens);
  EXPECT_EQ(S.Releases, 2 * AfterFirst.Releases);
  EXPECT_EQ(S.ResidentEvents, 2 * AfterFirst.ResidentEvents);
  EXPECT_EQ(S.ResidentBytes, 2 * AfterFirst.ResidentBytes);
  EXPECT_EQ(S.PeakResidentKeys, 1u);
}
