//===- tests/workload/MmapTraceStoreTest.cpp ------------------------------===//
//
// The mapped byte owner of a MaterializedTrace (the mmap tier): mapped
// bytes stay untrusted until their block's first-touch checksum + checked
// decode passes, so corruption is rejected whole-block with zero
// fabricated events and truncation or misframing is rejected at open; any
// number of cursors, in any threads, share one mapping; a replay keeps only
// the cursor's window of the mapping resident; and the SWAR trusted
// decoder is bit-identical to the checked decoder.  Stream identity
// across the suite is TraceReplayTest's.
//
//===----------------------------------------------------------------------===//

#include "workload/TraceFile.h"

#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Large enough for multi-block traces (matches TraceArenaTest).
constexpr SuiteScale TestScale{3.0e3, 0.1};

/// A scratch directory removed on destruction.
class TempDir {
public:
  TempDir() {
    Path = std::filesystem::temp_directory_path() /
           ("specctrl-mmap-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::filesystem::path Path;
};

/// gzip's ref trace at \p Scale recorded into \p Dir.
std::string recordGzip(const TempDir &Dir, SuiteScale Scale = TestScale) {
  const WorkloadSpec Spec = makeBenchmark("gzip", Scale);
  const std::string Path = (Dir.Path / "gzip.sct2").string();
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  TraceGenerator Gen(Spec, Spec.refInput());
  EXPECT_EQ(writeTraceV2(OS, Gen), Spec.RefEvents);
  return Path;
}

/// Resident kB of the mapping that holds \p Addr, from its Rss: line in
/// /proc/self/smaps: -1 when that file cannot be read, -2 when no mapping
/// holds the address.
long residentKb(const void *Addr) {
  std::ifstream Smaps("/proc/self/smaps");
  if (!Smaps)
    return -1;
  const unsigned long Want = reinterpret_cast<unsigned long>(Addr);
  bool Holds = false;
  std::string Line;
  while (std::getline(Smaps, Line)) {
    // A mapping's header line starts "lo-hi" in hex; its field lines
    // ("Rss:   20 kB") follow it.
    unsigned long Lo = 0, Hi = 0;
    if (std::sscanf(Line.c_str(), "%lx-%lx", &Lo, &Hi) == 2)
      Holds = Lo <= Want && Want < Hi;
    else if (Holds && Line.rfind("Rss:", 0) == 0)
      return std::stol(Line.substr(4));
  }
  return -2;
}

/// XORs \p Mask into the byte at \p Offset of the file at \p Path.
void flipByte(const std::string &Path, uint64_t Offset, char Mask) {
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.is_open());
  F.seekg(static_cast<std::streamoff>(Offset));
  const char Flipped = static_cast<char>(F.peek() ^ Mask);
  F.seekp(static_cast<std::streamoff>(Offset));
  F.write(&Flipped, 1);
}

/// Drains \p Source in chunks of \p Batch against a fresh generator
/// stream, returning the number of events delivered (all must match).
uint64_t drainMatching(TraceCursor &Source, size_t Batch) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TraceGenerator Reference(Spec, Spec.refInput());
  std::vector<BranchEvent> Chunk(Batch), Expected(Batch);
  uint64_t Count = 0;
  while (const size_t N = Source.nextBatch(Chunk)) {
    EXPECT_EQ(Reference.nextBatch({Expected.data(), N}), N);
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Chunk[I], Expected[I]) << "event " << Count + I;
    Count += N;
  }
  return Count;
}

} // namespace

TEST(MmapTraceStoreTest, PerEventNextMatchesGenerator) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TempDir Dir;
  std::string Error;
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::mapFile(recordGzip(Dir), &Error);
  ASSERT_TRUE(Trace) << Error;
  TraceCursor Source(Trace);
  TraceGenerator Reference(Spec, Spec.refInput());
  BranchEvent Got, Expected;
  uint64_t Count = 0;
  while (Source.next(Got)) {
    ASSERT_TRUE(Reference.next(Expected));
    ASSERT_EQ(Got, Expected) << "event " << Count;
    ++Count;
  }
  EXPECT_FALSE(Source.failed()) << Source.error();
  EXPECT_FALSE(Reference.next(Expected));
  EXPECT_EQ(Count, Spec.RefEvents);
}

TEST(MmapTraceStoreTest, ResetRestartsTheStreamAndRunsVerifiedPath) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TempDir Dir;
  std::string Error;
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::mapFile(recordGzip(Dir), &Error);
  ASSERT_TRUE(Trace) << Error;
  TraceCursor Source(Trace);
  // The first pass verifies every block (checked decode); the second pass
  // replays entirely on the trusted SWAR path.  Both match the generator.
  EXPECT_FALSE(Trace->fullyVerified());
  EXPECT_EQ(drainMatching(Source, DefaultBatchEvents), Spec.RefEvents);
  EXPECT_TRUE(Trace->fullyVerified());
  Source.reset();
  EXPECT_EQ(drainMatching(Source, 257), Spec.RefEvents);
  EXPECT_FALSE(Source.failed()) << Source.error();
}

TEST(MmapTraceStoreTest, MappingIsSharedAndIndexIsLean) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TempDir Dir;
  const std::string Path = recordGzip(Dir);
  std::string Error;
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::mapFile(Path, &Error);
  ASSERT_TRUE(Trace) << Error;
  EXPECT_TRUE(Trace->mapped());
  EXPECT_EQ(Trace->bytes(), std::filesystem::file_size(Path));
  EXPECT_EQ(Trace->totalEvents(), Spec.RefEvents);
  EXPECT_EQ(Trace->numSites(), Spec.numSites());
  // One index entry per block.
  EXPECT_EQ(Trace->numBlocks(),
            (Spec.RefEvents + TraceV2BlockEvents - 1) / TraceV2BlockEvents);

  // Lockstep cursors over the one mapping see identical streams.
  TraceCursor A(Trace), B(Trace);
  EXPECT_EQ(&A.trace(), &B.trace());
  std::vector<BranchEvent> ChunkA(257), ChunkB(257);
  while (true) {
    const size_t NA = A.nextBatch(ChunkA);
    const size_t NB = B.nextBatch(ChunkB);
    ASSERT_EQ(NA, NB);
    if (NA == 0)
      break;
    for (size_t I = 0; I < NA; ++I)
      ASSERT_EQ(ChunkA[I], ChunkB[I]);
  }
}

TEST(MmapTraceStoreTest, ConcurrentFirstTouchesAgree) {
  // Cursors in several threads race to verify the same unverified blocks;
  // each must still see the pristine stream, and every bit ends set.
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TempDir Dir;
  std::string Error;
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::mapFile(recordGzip(Dir), &Error);
  ASSERT_TRUE(Trace) << Error;
  std::vector<uint64_t> Counts(4);
  std::vector<std::thread> Threads;
  for (uint64_t &Count : Counts)
    Threads.emplace_back([&Trace, &Count] {
      TraceCursor Cursor(Trace);
      Count = drainMatching(Cursor, 257);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const uint64_t Count : Counts)
    EXPECT_EQ(Count, Spec.RefEvents);
  EXPECT_TRUE(Trace->fullyVerified());
}

TEST(MmapTraceStoreTest, PayloadCorruptionIsRejectedWholeBlock) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TempDir Dir;
  const std::string Path = recordGzip(Dir);
  // Flip one byte in the final block's payload: the mapped file still
  // opens (structure intact), but the cursor must fail at that block after
  // delivering only the preceding -- still verified -- events, all
  // bit-identical to the pristine stream.
  flipByte(Path, std::filesystem::file_size(Path) - 1, 0x40);

  std::string Error;
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::mapFile(Path, &Error);
  ASSERT_TRUE(Trace) << Error;
  TraceCursor Source(Trace);
  const uint64_t Count = drainMatching(Source, DefaultBatchEvents);
  EXPECT_TRUE(Source.failed());
  EXPECT_NE(Source.error().find("checksum"), std::string::npos)
      << Source.error();
  EXPECT_EQ(Count, Spec.RefEvents - Trace->blocks().back().Events)
      << "the corrupt block delivered events";
  BranchEvent E;
  EXPECT_FALSE(Source.next(E)); // and the cursor stays failed
}

TEST(MmapTraceStoreTest, TruncatedFileIsRejectedAtOpen) {
  TempDir Dir;
  const std::string Path = recordGzip(Dir);
  // Chop the file mid-block: the structural index walk sees missing
  // events and refuses the trace -- a truncated trace is never partially
  // served.
  const auto Full = std::filesystem::file_size(Path);
  std::filesystem::resize_file(Path, Full - Full / 3);
  std::string Error;
  EXPECT_EQ(MaterializedTrace::mapFile(Path, &Error), nullptr);
  EXPECT_NE(Error.find(Path), std::string::npos) << Error;
}

TEST(MmapTraceStoreTest, ZeroedEventCountDoesNotBecomeAPad) {
  TempDir Dir;
  const std::string Path = recordGzip(Dir);
  std::string Error;
  uint64_t SecondFrame = 0;
  {
    const std::shared_ptr<const MaterializedTrace> Trace =
        MaterializedTrace::mapFile(Path, &Error);
    ASSERT_TRUE(Trace) << Error;
    ASSERT_GT(Trace->numBlocks(), 1u);
    SecondFrame = Trace->blocks()[1].PayloadOffset - TraceV2FrameBytes;
  }
  // Zero the second block's event count.  Skipping the frame would drop a
  // real block's events in silence; it must instead fail the open, and
  // the reason names the page-aligned layout, whose pad frames were the
  // only frames without events.
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.is_open());
    F.seekp(static_cast<std::streamoff>(SecondFrame), std::ios::beg);
    const char Zeros[4] = {0, 0, 0, 0};
    F.write(Zeros, 4);
  }
  EXPECT_EQ(MaterializedTrace::mapFile(Path, &Error), nullptr);
  EXPECT_NE(Error.find("aligned layout is no longer read"), std::string::npos)
      << Error;
}

TEST(MmapTraceStoreTest, NonTraceFilesAreRejected) {
  TempDir Dir;
  const std::string Garbage = (Dir.Path / "garbage.sct2").string();
  {
    std::ofstream OS(Garbage, std::ios::binary);
    OS << "this is not a trace but is long enough to pass the size check";
  }
  std::string Error;
  EXPECT_EQ(MaterializedTrace::mapFile(Garbage, &Error), nullptr);
  EXPECT_NE(Error.find("SCT2"), std::string::npos) << Error;
  const std::string Missing = (Dir.Path / "missing.sct2").string();
  EXPECT_EQ(MaterializedTrace::mapFile(Missing, &Error), nullptr);
  EXPECT_NE(Error.find(Missing), std::string::npos) << Error;
}

TEST(MmapTraceStoreTest, SwarDecoderMatchesCheckedDecoder) {
  // Exercise every varint shape: tiny deltas (1-byte), suite-scale site
  // counts (2-byte), and wide-site workloads forcing 3- and 4-byte
  // deltas, at ragged block sizes that leave scalar tails after the SWAR
  // loop.
  std::mt19937_64 Rng(20050313);
  for (const uint32_t NumSites : {3u, 300u, 40000u, 3000000u}) {
    for (const uint32_t EventCount : {1u, 2u, 7u, 64u, 4096u}) {
      std::vector<BranchEvent> Original(EventCount);
      for (uint32_t I = 0; I < EventCount; ++I) {
        Original[I].Site = static_cast<uint32_t>(Rng() % NumSites);
        Original[I].Taken = (Rng() & 1) != 0;
        Original[I].Gap = static_cast<uint16_t>(Rng() % 128);
      }
      // Encode through the writer, then decode the lone block's payload
      // with both decoders.
      std::ostringstream OS(std::ios::binary);
      TraceWriterV2 Writer(OS, NumSites, EventCount, 0, 127, EventCount);
      ASSERT_TRUE(Writer.append(
          std::span<const BranchEvent>(Original.data(), EventCount)));
      ASSERT_TRUE(Writer.finish());
      const std::string File = OS.str();
      const std::shared_ptr<const MaterializedTrace> Trace =
          MaterializedTrace::fromBytes({File.begin(), File.end()});
      ASSERT_TRUE(Trace);
      ASSERT_EQ(Trace->numBlocks(), 1u);
      const MaterializedTrace::Block &B = Trace->blocks()[0];
      const uint8_t *Payload = Trace->data() + B.PayloadOffset;

      std::vector<BranchEvent> Swar(EventCount), Checked(EventCount);
      uint64_t InstA = 2000, InstB = 2000; // a nonzero starting count
      decodeTraceBlockPayloadTrusted(Payload, B.PayloadBytes, EventCount,
                                     InstA, Swar.data());
      ASSERT_TRUE(decodeTraceBlockPayload(Payload, B.PayloadBytes,
                                          EventCount, NumSites, InstB,
                                          Checked.data()));
      EXPECT_EQ(InstA, InstB);
      for (uint32_t I = 0; I < EventCount; ++I) {
        ASSERT_EQ(Swar[I], Checked[I])
            << "sites=" << NumSites << " n=" << EventCount << " event " << I;
        ASSERT_EQ(Swar[I].Site, Original[I].Site);
      }
    }
  }
}

TEST(MmapTraceStoreTest, ReplayKeepsOnlyTheCursorWindowResident) {
  // A packed file's block frames start mid-page.  Over a long replay the
  // drop-behind mark must release the page each block boundary straddles
  // once the window has passed it; a mark that never reaches that page
  // leaves one page per block resident, growing with the trace.
  TempDir Dir;
  std::string Error;
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::mapFile(recordGzip(Dir, {2.0e5, 0.1}), &Error);
  ASSERT_TRUE(Trace) << Error;
  ASSERT_GE(Trace->numBlocks(), 500u);
  TraceCursor Cursor(Trace);
  std::vector<BranchEvent> Chunk(DefaultBatchEvents);
  uint64_t Events = 0;
  while (const size_t N = Cursor.nextBatch(Chunk))
    Events += N;
  ASSERT_FALSE(Cursor.failed()) << Cursor.error();
  ASSERT_EQ(Events, Trace->totalEvents());

  const long Kb = residentKb(Trace->data());
  if (Kb == -1)
    GTEST_SKIP() << "/proc/self/smaps cannot be read";
  ASSERT_GE(Kb, 0) << "no mapping in /proc/self/smaps holds the trace";
  // What may stay mapped: the cursor's window (the blocks it retains
  // behind, the last one it decoded, the ones it prefetched), a page at
  // each end, and one fault-around span (64 KiB by default).
  uint64_t MaxBlockBytes = 0;
  for (const MaterializedTrace::Block &B : Trace->blocks())
    MaxBlockBytes =
        std::max<uint64_t>(MaxBlockBytes, TraceV2FrameBytes + B.PayloadBytes);
  const uint64_t Page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t Window = (TraceCursor::RetainBehindBlocks + 1 +
                           TraceCursor::PrefetchAheadBlocks) *
                              MaxBlockBytes +
                          2 * Page + (64u << 10);
  EXPECT_LE(static_cast<uint64_t>(Kb) << 10, Window)
      << Kb << " kB of a " << (Trace->bytes() >> 10) << " kB mapping of "
      << Trace->numBlocks() << " blocks stayed resident";
}
