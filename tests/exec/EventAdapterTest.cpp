//===- tests/exec/EventAdapterTest.cpp ------------------------------------===//
//
// InterpreterEventSource: real SimIR execution exposed as a batched
// workload::EventSource.  Checks that batched and per-event consumption
// yield the same stream, that the Gap/Index/InstRet bookkeeping matches
// the interpreter's retirement counts, and that the adapter can drive the
// batched controller pipeline with per-event-identical results.
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "exec/EventAdapter.h"
#include "workload/ProgramSynthesizer.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

using namespace specctrl;
using namespace specctrl::exec;
using namespace specctrl::workload;

namespace {

SynthProgram makeProgram() {
  return synthesize(makeDefaultSynthSpec("adapter", 17, 8000, 3, 0.7));
}

/// Drains \p Source one event at a time.
std::vector<BranchEvent> drainPerEvent(EventSource &Source) {
  std::vector<BranchEvent> Events;
  BranchEvent E;
  while (Source.next(E))
    Events.push_back(E);
  return Events;
}

/// Drains \p Source through an odd-sized chunk buffer.
std::vector<BranchEvent> drainBatched(EventSource &Source, size_t Chunk) {
  std::vector<BranchEvent> Events;
  std::vector<BranchEvent> Buffer(Chunk);
  while (size_t N = Source.nextBatch(Buffer))
    Events.insert(Events.end(), Buffer.begin(), Buffer.begin() + N);
  return Events;
}

} // namespace

TEST(EventAdapterTest, BatchedStreamMatchesPerEvent) {
  SynthProgram P = makeProgram();

  ThreadedBackend PerEventInterp(P.Mod, P.InitialMemory);
  InterpreterEventSource PerEvent(PerEventInterp);
  const std::vector<BranchEvent> Reference = drainPerEvent(PerEvent);
  ASSERT_GT(Reference.size(), 1000u);
  EXPECT_EQ(PerEvent.stopReason(), StopReason::Halted);
  EXPECT_TRUE(PerEventInterp.halted());

  for (size_t Chunk : {size_t(257), DefaultBatchEvents}) {
    ThreadedBackend BatchInterp(P.Mod, P.InitialMemory);
    InterpreterEventSource Batched(BatchInterp);
    EXPECT_EQ(drainBatched(Batched, Chunk), Reference) << "chunk " << Chunk;
    EXPECT_EQ(Batched.stopReason(), StopReason::Halted);
  }
}

TEST(EventAdapterTest, BookkeepingTracksInterpreterRetirement) {
  SynthProgram P = makeProgram();
  ThreadedBackend I(P.Mod, P.InitialMemory);
  InterpreterEventSource Source(I);
  const std::vector<BranchEvent> Events = drainBatched(Source, 257);
  ASSERT_FALSE(Events.empty());

  // InstRet counts the branch itself, so consecutive events are separated
  // by Gap non-branch instructions plus the branch.
  EXPECT_EQ(Events.front().Index, 0u);
  EXPECT_EQ(Events.front().InstRet, Events.front().Gap + 1);
  for (size_t N = 1; N < Events.size(); ++N) {
    EXPECT_EQ(Events[N].Index, N);
    EXPECT_EQ(Events[N].InstRet,
              Events[N - 1].InstRet + Events[N].Gap + 1)
        << "event " << N;
  }
  // The program retires a few trailing instructions (e.g. Halt) after the
  // last branch, never fewer than the last event reports.
  EXPECT_LE(Events.back().InstRet, I.instructionsRetired());
  EXPECT_TRUE(I.halted());

  // Per-site outcome totals agree with a direct policy-observed run.
  std::map<SiteId, std::pair<uint64_t, uint64_t>> Counts;
  for (const BranchEvent &E : Events) {
    auto &[T, N] = Counts[E.Site];
    T += E.Taken;
    ++N;
  }
  class SiteCounter : public NoEvents {
  public:
    std::map<SiteId, std::pair<uint64_t, uint64_t>> Counts;
    void noteBranch(ir::SiteId Site, bool Taken, uint64_t) {
      auto &[T, N] = Counts[Site];
      T += Taken;
      ++N;
    }
  };
  ThreadedBackend Direct(P.Mod, P.InitialMemory);
  SiteCounter Obs;
  ASSERT_EQ(Direct.run(~0ull >> 1, Obs), StopReason::Halted);
  EXPECT_EQ(Counts, Obs.Counts);
}

TEST(EventAdapterTest, DrivesBatchedControllerPipeline) {
  SynthProgram P = makeProgram();
  core::ReactiveConfig Config;
  Config.MonitorPeriod = 100;
  Config.WaitPeriod = 2000;
  Config.OptLatency = 0;

  auto runWith = [&](size_t BatchEvents, core::TraceRunMetrics &Metrics) {
    ThreadedBackend I(P.Mod, P.InitialMemory);
    InterpreterEventSource Source(I);
    core::ReactiveController Controller(Config);
    return core::runTrace(Controller, Source, nullptr, BatchEvents, &Metrics);
  };

  core::TraceRunMetrics PerEvent, Batched;
  const core::ControlStats Reference = runWith(1, PerEvent);
  const core::ControlStats Chunked = runWith(DefaultBatchEvents, Batched);
  EXPECT_GT(Reference.EventsConsumed, 0u);
  EXPECT_EQ(Reference, Chunked);
  EXPECT_EQ(PerEvent.Events, Batched.Events);
  EXPECT_EQ(PerEvent.Batches, PerEvent.Events);
  EXPECT_EQ(Batched.Batches,
            (Batched.Events + DefaultBatchEvents - 1) / DefaultBatchEvents);
}
