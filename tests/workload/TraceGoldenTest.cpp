//===- tests/workload/TraceGoldenTest.cpp ---------------------------------===//
//
// Golden-file regression for the on-disk trace format: a checked-in SCT2
// recording of gzip/train at a tiny scale, plus its SHA-256 digest.  Any
// change to the generator's event stream, the encoder, or the digest
// implementation shows up as a mismatch here.
//
// Regenerating after an intentional format/generator change (one command,
// from the repo root; then update tests/data/golden.sha256 with sha256sum):
//
//   build/tools/specctrl-trace --bench=gzip --input=train
//       --events-per-billion=100 --site-scale=0.1
//       --record=tests/data/golden-gzip-train.v2.sct
//
//===----------------------------------------------------------------------===//

#include "workload/TraceFile.h"

#include "support/Sha256.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// The scale the golden was recorded at (see the header comment).
constexpr SuiteScale GoldenScale{100.0, 0.1};

std::string dataPath(const std::string &Name) {
  return std::string(SPECCTRL_TEST_DATA_DIR) + "/" + Name;
}

std::string readFile(const std::string &Name) {
  std::ifstream IS(dataPath(Name), std::ios::binary);
  EXPECT_TRUE(IS) << "missing golden file " << dataPath(Name);
  std::ostringstream OS;
  OS << IS.rdbuf();
  return OS.str();
}

/// Parses golden.sha256 ("<hex>  <file>" lines, sha256sum format).
std::map<std::string, std::string> readDigests() {
  std::ifstream IS(dataPath("golden.sha256"));
  EXPECT_TRUE(IS) << "missing golden digest file";
  std::map<std::string, std::string> Digests;
  std::string Hex, Name;
  while (IS >> Hex >> Name)
    Digests[Name] = Hex;
  return Digests;
}

const char *const GoldenV2 = "golden-gzip-train.v2.sct";

std::vector<BranchEvent>
drain(const std::shared_ptr<const MaterializedTrace> &Trace) {
  TraceCursor Cursor(Trace);
  std::vector<BranchEvent> All;
  std::vector<BranchEvent> Chunk(257);
  while (const size_t N = Cursor.nextBatch(Chunk))
    All.insert(All.end(), Chunk.begin(), Chunk.begin() + N);
  EXPECT_FALSE(Cursor.failed()) << Cursor.error();
  return All;
}

} // namespace

TEST(TraceGoldenTest, Sha256DigestsMatch) {
  const std::map<std::string, std::string> Digests = readDigests();
  ASSERT_EQ(Digests.size(), 1u);
  for (const auto &[Name, Hex] : Digests) {
    const std::string Bytes = readFile(Name);
    ASSERT_FALSE(Bytes.empty());
    EXPECT_EQ(Sha256::hexDigest(Bytes), Hex)
        << Name << " changed on disk (or the digest implementation did)";
  }
}

TEST(TraceGoldenTest, BothFormatsReplayTheGeneratorStream) {
  // The golden replays the generator's stream whether its bytes are a
  // caller's buffer or a read-only file mapping.
  const WorkloadSpec Spec = makeBenchmark("gzip", GoldenScale);
  std::vector<BranchEvent> Reference(Spec.TrainEvents);
  {
    TraceGenerator Gen(Spec, Spec.trainInput());
    ASSERT_EQ(Gen.nextBatch(Reference), Reference.size());
  }

  const std::string Bytes = readFile(GoldenV2);
  std::string Error;
  for (const std::shared_ptr<const MaterializedTrace> &Trace :
       {MaterializedTrace::fromBytes({Bytes.begin(), Bytes.end()}),
        MaterializedTrace::mapFile(dataPath(GoldenV2), &Error)}) {
    ASSERT_TRUE(Trace) << Error;
    EXPECT_EQ(Trace->numSites(), Spec.numSites());
    EXPECT_EQ(Trace->totalEvents(), Reference.size());
    EXPECT_EQ(drain(Trace), Reference)
        << "the generator's stream changed -- regenerate the golden (see "
           "this file's header)";
  }
}

TEST(TraceGoldenTest, WriterReproducesGoldenV2Bytes) {
  const WorkloadSpec Spec = makeBenchmark("gzip", GoldenScale);
  TraceGenerator Gen(Spec, Spec.trainInput());
  std::ostringstream Written;
  ASSERT_EQ(writeTraceV2(Written, Gen), Spec.TrainEvents);
  EXPECT_EQ(Written.str(), readFile(GoldenV2));
}

TEST(TraceGoldenTest, CorruptedBlockChecksumRejectedWithClearError) {
  std::string V2 = readFile(GoldenV2);
  // Flip a payload byte of the first block.
  ASSERT_GT(V2.size(), TraceV2HeaderBytes + TraceV2FrameBytes + 2);
  V2[TraceV2HeaderBytes + TraceV2FrameBytes + 2] ^= 0x04;

  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::fromBytes({V2.begin(), V2.end()});
  ASSERT_TRUE(Trace);
  TraceCursor Cursor(Trace);
  BranchEvent E;
  EXPECT_FALSE(Cursor.next(E)) << "event delivered from a corrupt block";
  EXPECT_TRUE(Cursor.failed());
  EXPECT_NE(Cursor.error().find("checksum"), std::string::npos)
      << "unhelpful error: " << Cursor.error();
}
