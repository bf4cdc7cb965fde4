//===- tests/workload/TraceFileTest.cpp -----------------------------------===//
//
// SCT2 recording and replay of caller-owned bytes: round trips, the
// header facts, and rejection of garbage, truncation, and corruption.
// And the memory of a record()ed trace: its bytes are writeTraceV2's, it
// is not a file mapping, replay never advises its pages away, and its
// pages leave the process with its last owner.
//
//===----------------------------------------------------------------------===//

#include "workload/TraceFile.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

WorkloadSpec tinySpec(uint64_t RefEvents = 20000) {
  WorkloadSpec Spec;
  Spec.Name = "tf";
  Spec.Seed = 4;
  Spec.RefEvents = RefEvents;
  Spec.NumPhases = 2;
  SiteSpec A, B;
  A.Behavior = BehaviorSpec::fixed(0.99);
  A.Weight = 3;
  B.Behavior = BehaviorSpec::fixed(0.4);
  B.Weight = 1;
  Spec.Sites = {A, B};
  return Spec;
}

/// tinySpec's ref run recorded with \p BlockEvents per block.
std::vector<uint8_t> recordTiny(uint32_t BlockEvents = TraceV2BlockEvents) {
  const WorkloadSpec Spec = tinySpec();
  TraceGenerator Gen(Spec, Spec.refInput());
  std::ostringstream OS;
  EXPECT_EQ(writeTraceV2(OS, Gen, BlockEvents), Spec.RefEvents);
  const std::string Bytes = OS.str();
  return {Bytes.begin(), Bytes.end()};
}

/// tinySpec(RefEvents)'s ref run through MaterializedTrace::record.
std::shared_ptr<const MaterializedTrace> recordInMemory(uint64_t RefEvents) {
  const WorkloadSpec Spec = tinySpec(RefEvents);
  TraceGenerator Gen(Spec, Spec.refInput());
  return MaterializedTrace::record(Gen);
}

/// Checks the next batch of \p Cursor, \p Batch events at most, against
/// \p Reference; returns the number of events delivered.
size_t nextMatching(TraceCursor &Cursor, TraceGenerator &Reference,
                    size_t Batch) {
  std::vector<BranchEvent> Chunk(Batch), Expected(Batch);
  const size_t N = Cursor.nextBatch(Chunk);
  EXPECT_EQ(Reference.nextBatch({Expected.data(), N}), N);
  for (size_t I = 0; I < N; ++I)
    if (Chunk[I] != Expected[I]) {
      ADD_FAILURE() << "event " << I << " of the batch differs";
      break;
    }
  return N;
}

/// True while some mapping holds the page at \p Addr (page-aligned).
bool pageMapped(const void *Addr) {
  unsigned char Resident = 0;
  errno = 0;
  const int Rc =
      ::mincore(const_cast<void *>(Addr), 1, &Resident); // NOLINT
  EXPECT_TRUE(Rc == 0 || errno == ENOMEM) << std::strerror(errno);
  return Rc == 0;
}

/// A trace long enough that a cursor's drop-behind window (a file
/// mapping's) would pass dozens of pages.
constexpr uint64_t ManyBlockEvents = 50 * TraceV2BlockEvents + 123;

} // namespace

TEST(TraceFileTest, RoundTripsBitExactly) {
  const WorkloadSpec Spec = tinySpec();
  std::string Error;
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::fromBytes(recordTiny(), &Error);
  ASSERT_TRUE(Trace) << Error;
  EXPECT_EQ(Trace->numSites(), Spec.numSites());
  EXPECT_EQ(Trace->totalEvents(), Spec.RefEvents);

  // One event at a time: EventSource::next over the batch path.
  TraceCursor Cursor(Trace);
  TraceGenerator Reference(Spec, Spec.refInput());
  BranchEvent FromFile, FromGen;
  uint64_t Count = 0;
  while (Cursor.next(FromFile)) {
    ASSERT_TRUE(Reference.next(FromGen));
    ASSERT_EQ(FromFile, FromGen) << "event " << Count;
    ++Count;
  }
  EXPECT_EQ(Count, Spec.RefEvents);
  EXPECT_FALSE(Cursor.failed()) << Cursor.error();
  EXPECT_FALSE(Reference.next(FromGen));
}

TEST(TraceFileTest, PartiallyConsumedGeneratorRecordsRemainder) {
  const WorkloadSpec Spec = tinySpec();
  TraceGenerator Gen(Spec, Spec.refInput());
  std::vector<BranchEvent> Prefix(5000);
  ASSERT_EQ(Gen.nextBatch(Prefix), 5000u);

  std::ostringstream OS;
  ASSERT_EQ(writeTraceV2(OS, Gen), Spec.RefEvents - 5000);
  const std::string Bytes = OS.str();
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::fromBytes({Bytes.begin(), Bytes.end()});
  ASSERT_TRUE(Trace);
  EXPECT_EQ(Trace->totalEvents(), Spec.RefEvents - 5000);
}

TEST(TraceFileTest, RejectsGarbageHeader) {
  const std::string Garbage = "this is not a trace, though it is long";
  std::string Error;
  EXPECT_EQ(MaterializedTrace::fromBytes({Garbage.begin(), Garbage.end()},
                                         &Error),
            nullptr);
  EXPECT_NE(Error.find("SCT2"), std::string::npos) << Error;
}

TEST(TraceFileTest, DetectsTruncation) {
  // A header cut short and a file missing its final frame are both
  // rejected at open.
  const std::vector<uint8_t> Full = recordTiny();
  for (const size_t Len : {size_t{0}, size_t{4}, TraceV2HeaderBytes - 1,
                           TraceV2HeaderBytes, Full.size() - 1}) {
    std::string Error;
    EXPECT_EQ(MaterializedTrace::fromBytes(
                  {Full.begin(), Full.begin() + static_cast<long>(Len)},
                  &Error),
              nullptr)
        << "length " << Len;
    EXPECT_FALSE(Error.empty());
  }
}

TEST(TraceFileTest, FormatLimitsDocumented) {
  EXPECT_EQ(TraceFileLimits::MaxSite, (1u << 24) - 1);
  EXPECT_EQ(TraceFileLimits::MaxGap, 127u);
}

TEST(TraceFileTest, V2RoundTripsBitExactly) {
  const WorkloadSpec Spec = tinySpec();
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::fromBytes(recordTiny(/*BlockEvents=*/512));
  ASSERT_TRUE(Trace);
  EXPECT_EQ(Trace->numSites(), Spec.numSites());
  EXPECT_EQ(Trace->totalEvents(), Spec.RefEvents);
  EXPECT_EQ(Trace->minGap(), Spec.MinGap);
  EXPECT_EQ(Trace->maxGap(), Spec.MaxGap);
  EXPECT_EQ(Trace->numBlocks(), (Spec.RefEvents + 511) / 512);

  // Odd-sized chunk buffer so reads straddle block boundaries.
  TraceCursor Cursor(Trace);
  TraceGenerator Reference(Spec, Spec.refInput());
  std::vector<BranchEvent> Chunk(313), Expected(313);
  uint64_t Count = 0;
  while (const size_t N = Cursor.nextBatch(Chunk)) {
    ASSERT_EQ(Reference.nextBatch({Expected.data(), N}), N);
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Chunk[I], Expected[I]) << "event " << Count + I;
    Count += N;
  }
  EXPECT_EQ(Count, Spec.RefEvents);
  EXPECT_FALSE(Cursor.failed()) << Cursor.error();
  EXPECT_TRUE(Trace->fullyVerified());
}

TEST(TraceFileTest, V2RejectsCorruptedBlockChecksum) {
  std::vector<uint8_t> Bytes = recordTiny(/*BlockEvents=*/512);
  // Flip one payload byte in the second block.
  const uint64_t Second =
      MaterializedTrace::fromBytes(Bytes)->blocks()[1].PayloadOffset;
  Bytes[Second + 3] ^= 0x40;

  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::fromBytes(std::move(Bytes));
  ASSERT_TRUE(Trace) << "payload damage must not fail the open";
  TraceCursor Cursor(Trace);
  BranchEvent E;
  uint64_t Count = 0;
  while (Cursor.next(E))
    ++Count;
  // The first block replays; not one event of the damaged block does.
  EXPECT_EQ(Count, 512u);
  EXPECT_TRUE(Cursor.failed());
  EXPECT_NE(Cursor.error().find("checksum"), std::string::npos)
      << Cursor.error();
}

TEST(TraceFileTest, V2DetectsTruncationWithoutPartialBlocks) {
  std::vector<uint8_t> Bytes = recordTiny(/*BlockEvents=*/512);
  Bytes.resize(Bytes.size() - 6); // cut into the final block
  std::string Error;
  EXPECT_EQ(MaterializedTrace::fromBytes(std::move(Bytes), &Error), nullptr);
  EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;
}

TEST(TraceFileTest, RecordWritesWriteTraceV2Bytes) {
  const WorkloadSpec Spec = tinySpec(ManyBlockEvents);
  TraceGenerator Gen(Spec, Spec.refInput());
  std::ostringstream OS;
  ASSERT_EQ(writeTraceV2(OS, Gen), Spec.RefEvents);
  const std::string Written = OS.str();

  const std::shared_ptr<const MaterializedTrace> Trace =
      recordInMemory(ManyBlockEvents);
  ASSERT_TRUE(Trace);
  ASSERT_EQ(Trace->bytes(), Written.size());
  EXPECT_EQ(std::memcmp(Trace->data(), Written.data(), Written.size()), 0);
  EXPECT_TRUE(Trace->fullyVerified());
}

TEST(TraceFileTest, RecordedTraceIsNotAFileMapping) {
  const std::shared_ptr<const MaterializedTrace> Trace =
      recordInMemory(ManyBlockEvents);
  ASSERT_TRUE(Trace);
  EXPECT_FALSE(Trace->mapped());
  TraceCursor Cursor(Trace);
  BranchEvent E;
  while (Cursor.next(E)) {
  }
  EXPECT_FALSE(Cursor.failed()) << Cursor.error();
  EXPECT_FALSE(Trace->mapped());
}

TEST(TraceFileTest, SequentialCursorsOverARecordingReplayExactly) {
  // A second cursor reads every page the first has passed; drop-behind
  // advice on anonymous bytes would hand it zeros.
  const WorkloadSpec Spec = tinySpec(ManyBlockEvents);
  const std::shared_ptr<const MaterializedTrace> Trace =
      recordInMemory(ManyBlockEvents);
  ASSERT_TRUE(Trace);
  for (int Pass = 0; Pass < 2; ++Pass) {
    TraceCursor Cursor(Trace);
    TraceGenerator Reference(Spec, Spec.refInput());
    uint64_t Count = 0;
    while (const size_t N = nextMatching(Cursor, Reference, 4096))
      Count += N;
    EXPECT_EQ(Count, Spec.RefEvents) << "pass " << Pass;
    EXPECT_FALSE(Cursor.failed()) << Cursor.error();
  }
}

TEST(TraceFileTest, InterleavedCursorsOverARecordingReplayExactly) {
  // The leading cursor is ten blocks ahead when the trailing one starts,
  // and odd batch sizes send both through the staging path.
  const WorkloadSpec Spec = tinySpec(ManyBlockEvents);
  const std::shared_ptr<const MaterializedTrace> Trace =
      recordInMemory(ManyBlockEvents);
  ASSERT_TRUE(Trace);
  TraceCursor Lead(Trace), Trail(Trace);
  TraceGenerator LeadRef(Spec, Spec.refInput());
  TraceGenerator TrailRef(Spec, Spec.refInput());
  uint64_t LeadCount = 0, TrailCount = 0;
  for (int I = 0; I < 10; ++I)
    LeadCount += nextMatching(Lead, LeadRef, 4096);
  for (;;) {
    const size_t L = nextMatching(Lead, LeadRef, 3001);
    const size_t T = nextMatching(Trail, TrailRef, 1777);
    LeadCount += L;
    TrailCount += T;
    if (L == 0 && T == 0)
      break;
  }
  EXPECT_EQ(LeadCount, Spec.RefEvents);
  EXPECT_EQ(TrailCount, Spec.RefEvents);
  EXPECT_FALSE(Lead.failed()) << Lead.error();
  EXPECT_FALSE(Trail.failed()) << Trail.error();
}

TEST(TraceFileTest, RecordingUnmapsItsPagesWithItsLastOwner) {
  const uint64_t Page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  std::shared_ptr<const MaterializedTrace> Trace =
      recordInMemory(ManyBlockEvents);
  ASSERT_TRUE(Trace);
  const uint8_t *const Base = Trace->data();
  ASSERT_EQ(reinterpret_cast<uintptr_t>(Base) % Page, 0u);
  const uint8_t *const Last = Base + (Trace->bytes() - 1) / Page * Page;
  // The worst-case reservation past the last page was given back at once.
  EXPECT_FALSE(pageMapped(Last + Page));
  EXPECT_TRUE(pageMapped(Base));
  EXPECT_TRUE(pageMapped(Last));

  // A cursor keeps the trace alive after the caller drops it.
  auto Cursor = std::make_unique<TraceCursor>(Trace);
  Trace.reset();
  BranchEvent E;
  ASSERT_TRUE(Cursor->next(E));
  EXPECT_TRUE(pageMapped(Base));
  EXPECT_TRUE(pageMapped(Last));

  Cursor.reset();
  EXPECT_FALSE(pageMapped(Base));
  EXPECT_FALSE(pageMapped(Last));
}
