//===- tests/workload/TraceFileTest.cpp -----------------------------------===//
//
// SCT2 recording and replay of caller-owned bytes: round trips, the
// header facts, and rejection of garbage, truncation, and corruption.
//
//===----------------------------------------------------------------------===//

#include "workload/TraceFile.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

WorkloadSpec tinySpec() {
  WorkloadSpec Spec;
  Spec.Name = "tf";
  Spec.Seed = 4;
  Spec.RefEvents = 20000;
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
