//===- tests/workload/TraceArenaTest.cpp ----------------------------------===//
//
// The trace arena's contract: a key materializes exactly once no matter
// how many cursors open it, and cursors are independent; a released key
// reopens to the same stream, materialized again only once no cursor
// reads it, and a release never disturbs an open cursor; and traces
// beyond the SCT2 encoding limits fall back to a private generator
// transparently.  Stream identity over every cursor source is
// TraceReplayTest's.
//
//===----------------------------------------------------------------------===//

#include "workload/TraceArena.h"

#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Small enough that the 12-benchmark x 2-input sweep runs in seconds,
/// large enough for multi-block traces (see BatchEquivalenceTest).
constexpr SuiteScale TestScale{3.0e3, 0.1};

/// Drains \p Source in chunks of \p Batch and compares every event --
/// all fields -- against a fresh generator stream for (Spec, Input).
void expectStreamIdentity(EventSource &Source, const WorkloadSpec &Spec,
                          const InputConfig &Input, size_t Batch) {
  TraceGenerator Reference(Spec, Input);
  std::vector<BranchEvent> Chunk(Batch);
  BranchEvent Expected;
  uint64_t Count = 0;
  while (const size_t N = Source.nextBatch(Chunk)) {
    for (size_t I = 0; I < N; ++I) {
      ASSERT_TRUE(Reference.next(Expected))
          << Spec.Name << "/" << Input.Name << ": replay stream too long "
          << "at event " << Count;
      ASSERT_EQ(Chunk[I], Expected)
          << Spec.Name << "/" << Input.Name << " batch=" << Batch
          << " event " << Count;
      ++Count;
    }
  }
  EXPECT_FALSE(Reference.next(Expected))
      << Spec.Name << "/" << Input.Name << ": replay stream too short";
  EXPECT_EQ(Count, Input.Events);
}

/// Every event \p Source yields from its current position on, appended
/// to \p Out.
void drainInto(EventSource &Source, std::vector<BranchEvent> &Out) {
  std::vector<BranchEvent> Chunk(4096);
  while (const size_t N = Source.nextBatch(Chunk))
    Out.insert(Out.end(), Chunk.begin(), Chunk.begin() + N);
}

} // namespace

TEST(TraceArenaTest, PerEventNextMatchesGenerator) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TraceArena Arena;
  const std::unique_ptr<EventSource> Source = Arena.open(Spec, Input);
  TraceGenerator Reference(Spec, Input);
  BranchEvent Got, Expected;
  uint64_t Count = 0;
  while (Source->next(Got)) {
    ASSERT_TRUE(Reference.next(Expected));
    ASSERT_EQ(Got, Expected) << "event " << Count;
    ++Count;
  }
  EXPECT_FALSE(Reference.next(Expected));
  EXPECT_EQ(Count, Input.Events);
}

TEST(TraceArenaTest, CursorResetRestartsTheStream) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TraceArena Arena;
  const std::shared_ptr<const MaterializedTrace> Trace =
      Arena.materialize(Spec, Input);
  ASSERT_TRUE(Trace);
  TraceCursor Source(Trace);

  // Consume a ragged prefix, then reset: the stream must restart from
  // event zero with the InstRet reconstruction rewound too.
  std::vector<BranchEvent> Chunk(257);
  ASSERT_GT(Source.nextBatch(Chunk), 0u);
  ASSERT_GT(Source.nextBatch(Chunk), 0u);
  Source.reset();
  expectStreamIdentity(Source, Spec, Input, 4096);
}

TEST(TraceArenaTest, IndependentCursorsShareOneMaterialization) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TraceArena Arena;

  // Two cursors advanced in lockstep see identical streams (independent
  // decode positions over the same immutable bytes).
  const std::unique_ptr<EventSource> A = Arena.open(Spec, Input);
  const std::unique_ptr<EventSource> B = Arena.open(Spec, Input);
  std::vector<BranchEvent> ChunkA(257), ChunkB(257);
  while (true) {
    const size_t NA = A->nextBatch(ChunkA);
    const size_t NB = B->nextBatch(ChunkB);
    ASSERT_EQ(NA, NB);
    if (NA == 0)
      break;
    for (size_t I = 0; I < NA; ++I)
      ASSERT_EQ(ChunkA[I], ChunkB[I]);
  }

  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Materializations, 1u);
  EXPECT_EQ(S.CursorOpens, 2u);
}

TEST(TraceArenaTest, DistinctInputsMaterializeSeparately) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TraceArena Arena;
  (void)Arena.open(Spec, Spec.refInput());
  (void)Arena.open(Spec, Spec.trainInput());
  (void)Arena.open(Spec, Spec.refInput()); // warm
  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Materializations, 2u);
  EXPECT_EQ(S.CursorOpens, 3u);
}

TEST(TraceArenaTest, ReleasedKeyReopensToTheGeneratorStream) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TraceArena Arena;
  {
    const std::unique_ptr<EventSource> Source = Arena.open(Spec, Input);
    expectStreamIdentity(*Source, Spec, Input, 4096);
  }
  Arena.release(Spec, Input);
  Arena.release(Spec, Input); // nothing retained: a no-op

  // No cursor reads the trace any more, so the reopen materializes again.
  const std::unique_ptr<EventSource> Source = Arena.open(Spec, Input);
  expectStreamIdentity(*Source, Spec, Input, 4096);
  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Materializations, 2u);
  EXPECT_EQ(S.Releases, 1u);
  EXPECT_EQ(S.PeakResidentKeys, 1u);
  EXPECT_EQ(S.ResidentEvents, 2 * Input.Events);
}

TEST(TraceArenaTest, ReleaseLeavesOpenCursorsReplaying) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TraceArena Arena;
  TraceGenerator Reference(Spec, Input);
  std::vector<BranchEvent> Expected;
  drainInto(Reference, Expected);

  // A ragged prefix before the release, the rest after it.
  const std::unique_ptr<EventSource> Before = Arena.open(Spec, Input);
  std::vector<BranchEvent> Got(1000);
  Got.resize(Before->nextBatch(Got));
  ASSERT_EQ(Got.size(), 1000u);
  Arena.release(Spec, Input);

  // Reopening while that cursor lives shares its trace.
  const std::unique_ptr<EventSource> After = Arena.open(Spec, Input);
  drainInto(*Before, Got);
  EXPECT_TRUE(Got == Expected);
  expectStreamIdentity(*After, Spec, Input, 4096);

  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Materializations, 1u);
  EXPECT_EQ(S.Releases, 1u);
  EXPECT_EQ(S.CursorOpens, 2u);
}

TEST(TraceArenaTest, PeakResidentKeysCountsRetainedKeys) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TraceArena Arena;
  (void)Arena.materialize(Spec, Spec.refInput());
  Arena.release(Spec, Spec.refInput());
  (void)Arena.materialize(Spec, Spec.trainInput());
  EXPECT_EQ(Arena.stats().PeakResidentKeys, 1u);
  (void)Arena.materialize(Spec, Spec.refInput());
  EXPECT_EQ(Arena.stats().PeakResidentKeys, 2u);
}

TEST(TraceArenaTest, UnencodableTraceFallsBackToGenerator) {
  // Gaps above 127 are beyond the SCT2 packed taken/gap byte, so this
  // workload cannot be materialized; open() must serve a private
  // generator with the identical stream and count the fallback.
  WorkloadSpec Spec;
  Spec.Name = "wide-gap";
  Spec.RefEvents = 5000;
  Spec.TrainEvents = 1000;
  Spec.MinGap = 120;
  Spec.MaxGap = 200;
  for (unsigned I = 0; I < 8; ++I) {
    SiteSpec S;
    S.Behavior.BiasA = 0.9;
    Spec.Sites.push_back(S);
  }
  const InputConfig Input = Spec.refInput();

  TraceArena Arena;
  EXPECT_EQ(Arena.materialize(Spec, Input), nullptr);
  const std::unique_ptr<EventSource> Source = Arena.open(Spec, Input);
  expectStreamIdentity(*Source, Spec, Input, 257);

  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Materializations, 0u);
  EXPECT_EQ(S.Fallbacks, 1u);
  EXPECT_EQ(S.CursorOpens, 1u);
  EXPECT_EQ(S.ResidentBytes, 0u);
}

TEST(TraceArenaTest, MaterializedTraceReportsCompression) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TraceArena Arena;
  const std::shared_ptr<const MaterializedTrace> Trace =
      Arena.materialize(Spec, Spec.refInput());
  ASSERT_TRUE(Trace);
  EXPECT_EQ(Trace->totalEvents(), Spec.RefEvents);
  EXPECT_EQ(Trace->numSites(), Spec.numSites());
  EXPECT_GT(Trace->numBlocks(), 1u);
  // ~2 B/event vs a flat 4 B/event encoding.
  EXPECT_GT(Trace->compressionVsV1(), 1.5);
}
