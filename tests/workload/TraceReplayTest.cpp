//===- tests/workload/TraceReplayTest.cpp ---------------------------------===//
//
// The one replay contract, over every way to get a TraceCursor: the trace
// arena's resident image (trusted), a caller's bytes (untrusted), and a
// mapped file (untrusted).  For every suite benchmark, both inputs, and
// consumer chunk sizes 4096 (one block, the zero-copy path), 257 (never
// divides a block, the staging path), and 1 (per event), the replayed
// stream must equal the generator's event for event, the reconstructed
// InstRet included.
//
//===----------------------------------------------------------------------===//

#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"
#include "workload/TraceFile.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Small enough that the suite sweep runs in seconds, large enough for
/// multi-block traces.
constexpr SuiteScale TestScale{3.0e3, 0.1};

constexpr size_t TestBatches[] = {DefaultBatchEvents, 257, 1};

enum class Origin { ArenaImage, CallerBytes, MappedPacked };

struct ReplayCase {
  Origin From;
  std::string Bench;
};

std::string nameOf(const ReplayCase &Case) {
  static const char *const Names[] = {"arena", "bytes", "packed"};
  return std::string(Names[static_cast<int>(Case.From)]) + "_" + Case.Bench;
}

/// Keeps discovered test names free of gtest's raw parameter byte dumps.
void PrintTo(const ReplayCase &Case, std::ostream *OS) { *OS << nameOf(Case); }

std::string caseName(const ::testing::TestParamInfo<ReplayCase> &Info) {
  return nameOf(Info.param);
}

std::vector<ReplayCase> allCases() {
  std::vector<ReplayCase> Cases;
  for (const Origin From :
       {Origin::ArenaImage, Origin::CallerBytes, Origin::MappedPacked})
    for (const BenchmarkProfile &P : suiteProfiles())
      Cases.push_back({From, P.Name});
  return Cases;
}

/// The generator's whole stream for (Spec, Input).
std::vector<BranchEvent> generated(const WorkloadSpec &Spec,
                                   const InputConfig &Input) {
  std::vector<BranchEvent> All(Input.Events);
  TraceGenerator Gen(Spec, Input);
  EXPECT_EQ(Gen.nextBatch(All), All.size());
  return All;
}

/// Drains \p Source in chunks of \p Batch against \p Reference.
void expectStream(EventSource &Source,
                  const std::vector<BranchEvent> &Reference, size_t Batch) {
  std::vector<BranchEvent> Chunk(Batch);
  size_t Count = 0;
  while (const size_t N = Source.nextBatch(Chunk)) {
    ASSERT_LE(Count + N, Reference.size()) << "replay stream too long";
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Chunk[I], Reference[Count + I])
          << "batch=" << Batch << " event " << Count + I;
    Count += N;
  }
  EXPECT_EQ(Count, Reference.size()) << "batch=" << Batch;
}

class TraceReplayTest : public ::testing::TestWithParam<ReplayCase> {};

} // namespace

TEST_P(TraceReplayTest, MatchesGenerator) {
  const ReplayCase &Case = GetParam();
  const WorkloadSpec Spec = makeBenchmark(Case.Bench, TestScale);
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("specctrl-replay-test-" + std::to_string(::getpid()));
  std::filesystem::create_directories(Dir);
  TraceArena Arena;

  for (const InputConfig &Input : {Spec.refInput(), Spec.trainInput()}) {
    SCOPED_TRACE(Spec.Name + "/" + Input.Name);
    const std::vector<BranchEvent> Reference = generated(Spec, Input);
    std::shared_ptr<const MaterializedTrace> Trace;
    std::string Error;
    if (Case.From == Origin::ArenaImage) {
      Trace = Arena.materialize(Spec, Input);
    } else {
      std::ostringstream OS;
      TraceGenerator Gen(Spec, Input);
      ASSERT_EQ(writeTraceV2(OS, Gen), Input.Events);
      const std::string Bytes = OS.str();
      if (Case.From == Origin::CallerBytes) {
        Trace = MaterializedTrace::fromBytes({Bytes.begin(), Bytes.end()},
                                             &Error);
      } else {
        const std::string Path =
            (Dir / (Spec.Name + "-" + Input.Name + ".sct2")).string();
        std::ofstream(Path, std::ios::binary) << Bytes;
        Trace = MaterializedTrace::mapFile(Path, &Error);
        std::filesystem::remove(Path); // the mapping outlives the name
        ASSERT_TRUE(Trace) << Error;
        EXPECT_TRUE(Trace->mapped());
      }
    }
    ASSERT_TRUE(Trace) << Error;
    ASSERT_EQ(Trace->totalEvents(), Input.Events);
    EXPECT_EQ(Trace->fullyVerified(), Case.From == Origin::ArenaImage)
        << "only bytes written in this process start trusted";

    for (const size_t Batch : TestBatches) {
      TraceCursor Cursor(Trace);
      expectStream(Cursor, Reference, Batch);
      EXPECT_FALSE(Cursor.failed()) << Cursor.error();
    }
    EXPECT_TRUE(Trace->fullyVerified());
  }
  std::filesystem::remove_all(Dir);

  if (Case.From == Origin::ArenaImage) {
    // Each (spec, input) key materialized once, resident, and the SCT2
    // encoding compresses the 4 B/event flat layout.
    const TraceArenaStats S = Arena.stats();
    EXPECT_EQ(S.Materializations, 2u);
    EXPECT_EQ(S.Fallbacks, 0u);
    EXPECT_LT(S.ResidentBytes, 4 * S.ResidentEvents);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSources, TraceReplayTest,
                         ::testing::ValuesIn(allCases()), caseName);
