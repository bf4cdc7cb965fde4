//===- tests/workload/TraceReplayFuzzTest.cpp -----------------------------===//
//
// Robustness of trace replay against damaged inputs, on both untrusted
// byte owners (a caller's buffer and a mapped file): truncations, random
// byte flips, and outright garbage must never crash replay; the events it
// does deliver must be an exact prefix of the undamaged stream, in whole
// blocks; a truncated input delivers no event at all; and no event of a
// damaged block reaches a controller.  All randomness is std::mt19937 with
// fixed seeds, so failures reproduce.
//
//===----------------------------------------------------------------------===//

#include "workload/TraceFile.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Small enough to damage exhaustively, with several v2 blocks.
constexpr uint32_t FuzzBlockEvents = 64;

WorkloadSpec fuzzSpec() {
  WorkloadSpec Spec;
  Spec.Name = "fuzz";
  Spec.Seed = 11;
  Spec.RefEvents = 1000;
  Spec.NumPhases = 2;
  SiteSpec A, B, C;
  A.Behavior = BehaviorSpec::fixed(0.99);
  A.Weight = 3;
  B.Behavior = BehaviorSpec::fixed(0.4);
  B.Weight = 1;
  C.Behavior = BehaviorSpec::fixed(0.7);
  C.Weight = 2;
  Spec.Sites = {A, B, C};
  return Spec;
}

std::vector<BranchEvent> referenceStream(const WorkloadSpec &Spec) {
  std::vector<BranchEvent> All(Spec.RefEvents);
  TraceGenerator Gen(Spec, Spec.refInput());
  EXPECT_EQ(Gen.nextBatch(All), All.size());
  return All;
}

std::string recordV2(const WorkloadSpec &Spec) {
  std::ostringstream OS;
  TraceGenerator Gen(Spec, Spec.refInput());
  writeTraceV2(OS, Gen, FuzzBlockEvents);
  return OS.str();
}

/// \p Bytes opened through each untrusted owner: a caller's buffer, then
/// a read-only mapping of a file holding them (null where rejected).
std::vector<std::shared_ptr<const MaterializedTrace>>
openUntrusted(const std::string &Bytes) {
  const std::string Path =
      (std::filesystem::temp_directory_path() /
       ("specctrl-fuzz-" + std::to_string(::getpid()) + ".sct2"))
          .string();
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;
  std::vector<std::shared_ptr<const MaterializedTrace>> Traces = {
      MaterializedTrace::fromBytes({Bytes.begin(), Bytes.end()}),
      MaterializedTrace::mapFile(Path)};
  std::filesystem::remove(Path); // the mapping outlives the name
  return Traces;
}

/// Drains \p Trace (null = rejected at open: nothing delivered) with an
/// odd-sized chunk buffer, asserting every delivered event matches
/// \p Reference at its index.  \p Count receives the number of events
/// delivered (void return so gtest's fatal assertions can be used inside).
void drainCheckingPrefix(const std::shared_ptr<const MaterializedTrace> &Trace,
                         const std::vector<BranchEvent> &Reference,
                         size_t &Count) {
  Count = 0;
  if (!Trace)
    return;
  TraceCursor Cursor(Trace);
  std::vector<BranchEvent> Chunk(257);
  while (const size_t N = Cursor.nextBatch(Chunk)) {
    for (size_t I = 0; I < N; ++I) {
      ASSERT_LT(Count, Reference.size()) << "fabricated events past the end";
      ASSERT_EQ(Chunk[I], Reference[Count]) << "diverged at event " << Count;
      ++Count;
    }
  }
  // A short stream must say why it is short.
  if (Count < Reference.size()) {
    EXPECT_TRUE(Cursor.failed());
  }
}

} // namespace

TEST(TraceReplayFuzzTest, TruncationsDeliverExactPrefixes) {
  const WorkloadSpec Spec = fuzzSpec();
  const std::vector<BranchEvent> Reference = referenceStream(Spec);
  const std::string Bytes = recordV2(Spec);
  std::mt19937 Rng(1234);
  std::uniform_int_distribution<size_t> Cut(0, Bytes.size() - 1);
  // Every short length near the start (header truncations) plus a random
  // sample of interior cuts.
  std::vector<size_t> Lengths;
  for (size_t L = 0; L < 40; ++L)
    Lengths.push_back(L);
  for (int I = 0; I < 60; ++I)
    Lengths.push_back(Cut(Rng));
  for (const size_t Len : Lengths)
    for (const auto &Trace : openUntrusted(Bytes.substr(0, Len))) {
      size_t Count = 0;
      drainCheckingPrefix(Trace, Reference, Count);
      if (::testing::Test::HasFatalFailure())
        return;
      // The empty prefix: a truncated input is rejected at open.
      EXPECT_EQ(Trace, nullptr) << "truncated at " << Len;
      EXPECT_EQ(Count, 0u) << "truncated at " << Len;
    }
}

TEST(TraceReplayFuzzTest, ByteFlipsNeverCrashOrFabricate) {
  const WorkloadSpec Spec = fuzzSpec();
  const std::vector<BranchEvent> Reference = referenceStream(Spec);
  const std::string V2 = recordV2(Spec);
  std::mt19937 Rng(99);
  std::uniform_int_distribution<size_t> Pos(0, V2.size() - 1);
  std::uniform_int_distribution<int> Bit(0, 7);
  std::uniform_int_distribution<int> Flips(1, 3);
  for (int Round = 0; Round < 300; ++Round) {
    std::string Damaged = V2;
    for (int F = Flips(Rng); F > 0; --F)
      Damaged[Pos(Rng)] ^= static_cast<char>(1 << Bit(Rng));
    // Replay may reject the trace at open, stop early, or (if the flips
    // cancelled out) deliver everything -- but whatever it delivers must
    // be an exact prefix of the true stream in whole blocks.
    for (const auto &Trace : openUntrusted(Damaged)) {
      size_t Count = 0;
      drainCheckingPrefix(Trace, Reference, Count);
      if (::testing::Test::HasFatalFailure())
        return;
      if (Count != Reference.size()) {
        EXPECT_EQ(Count % FuzzBlockEvents, 0u) << "round " << Round;
      }
    }
  }
}

TEST(TraceReplayFuzzTest, GarbageInputsFailCleanly) {
  std::mt19937 Rng(7);
  std::uniform_int_distribution<int> Byte(0, 255);
  std::uniform_int_distribution<size_t> Len(0, 64);
  for (int Round = 0; Round < 100; ++Round) {
    std::string Garbage(Len(Rng), '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Byte(Rng));
    // Nothing this short parses as a trace with events.
    for (const auto &Trace : openUntrusted(Garbage))
      EXPECT_EQ(Trace, nullptr) << "round " << Round;
  }
  // A valid magic with a chopped header is still not a trace.
  for (const auto &Trace : openUntrusted(std::string("SCT2") + "\x01\x02"))
    EXPECT_EQ(Trace, nullptr);
}

TEST(TraceReplayFuzzTest, CorruptBlockDeliversNothingToTheController) {
  const WorkloadSpec Spec = fuzzSpec();
  std::string V2 = recordV2(Spec);
  // Flip one payload byte inside the first block.
  V2[TraceV2HeaderBytes + TraceV2FrameBytes + 3] ^= 0x10;

  for (const auto &Trace : openUntrusted(V2)) {
    ASSERT_TRUE(Trace);
    TraceCursor Cursor(Trace);
    core::ReactiveController C(core::ReactiveConfig{});
    const core::ControlStats &S = core::runTrace(C, Cursor);
    // The first block is damaged, so not one event reaches the controller.
    EXPECT_EQ(S.Branches, 0u);
    EXPECT_EQ(S.EventsConsumed, 0u);
    EXPECT_TRUE(Cursor.failed());
    EXPECT_NE(Cursor.error().find("checksum"), std::string::npos)
        << Cursor.error();
  }
}
