//===- bench/trace_decode.cpp - Trace decode microbenches -----------------===//
//
// google-benchmark microbenches for SCT2 decode and mapped replay:
//
//  * BM_Decode_* -- per-block payload decode over a recorded trace: the
//    checked decoder (validation on every event; an untrusted block's
//    first read) and the SWAR trusted decoder (four events per 8-byte
//    load; every later read).
//  * BM_Replay_Mmap -- whole-trace replay throughput of a TraceCursor over
//    a page-aligned file mapped read-only.
//
//===----------------------------------------------------------------------===//

#include "workload/SpecSuite.h"
#include "workload/TraceFile.h"
#include "workload/TraceGenerator.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace specctrl;

namespace {

const workload::SuiteScale DecodeScale{6.0e4, 0.1};

const workload::WorkloadSpec &decodeSpec() {
  static const workload::WorkloadSpec Spec =
      workload::makeBenchmark("bzip2", DecodeScale);
  return Spec;
}

/// The decode workload recorded once in the packed layout.
const workload::MaterializedTrace &recorded() {
  static const std::shared_ptr<const workload::MaterializedTrace> Trace = [] {
    workload::TraceGenerator Gen(decodeSpec(), decodeSpec().refInput());
    return workload::MaterializedTrace::record(Gen);
  }();
  return *Trace;
}

void reportDecode(benchmark::State &State) {
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(recorded().totalEvents()));
  State.counters["blocks"] =
      benchmark::Counter(static_cast<double>(recorded().numBlocks()));
}

/// Fully checked decode (per-event validation): the first-touch path.
void BM_Decode_Checked(benchmark::State &State) {
  const workload::MaterializedTrace &Trace = recorded();
  std::vector<workload::BranchEvent> Buf(workload::TraceV2BlockEvents);
  for (auto _ : State) {
    uint64_t NextIndex = 0, InstRet = 0;
    for (const workload::MaterializedTrace::Block &B : Trace.blocks())
      if (!workload::decodeTraceBlockPayload(
              Trace.data() + B.PayloadOffset, B.PayloadBytes, B.Events,
              Trace.numSites(), NextIndex, InstRet, Buf.data()))
        State.SkipWithError("checked decode rejected a block");
    benchmark::DoNotOptimize(Buf.data());
    benchmark::DoNotOptimize(InstRet);
  }
  reportDecode(State);
}
BENCHMARK(BM_Decode_Checked)->Unit(benchmark::kMillisecond);

/// Trusted SWAR decode: four events per 8-byte load on the varint fast
/// path.
void BM_Decode_TrustedSWAR(benchmark::State &State) {
  const workload::MaterializedTrace &Trace = recorded();
  std::vector<workload::BranchEvent> Buf(workload::TraceV2BlockEvents);
  for (auto _ : State) {
    uint64_t NextIndex = 0, InstRet = 0;
    for (const workload::MaterializedTrace::Block &B : Trace.blocks())
      workload::decodeTraceBlockPayloadTrusted(Trace.data() + B.PayloadOffset,
                                               B.PayloadBytes, B.Events,
                                               NextIndex, InstRet, Buf.data());
    benchmark::DoNotOptimize(Buf.data());
    benchmark::DoNotOptimize(InstRet);
  }
  reportDecode(State);
}
BENCHMARK(BM_Decode_TrustedSWAR)->Unit(benchmark::kMillisecond);

/// The decode workload recorded once to disk in the page-aligned layout,
/// removed at process exit.
class AlignedTraceFile {
public:
  AlignedTraceFile() {
    Path = (std::filesystem::temp_directory_path() /
            ("specctrl-bench-decode-" + std::to_string(::getpid()) + ".sct2"))
               .string();
    std::ofstream OS(Path, std::ios::binary);
    workload::TraceGenerator Gen(decodeSpec(), decodeSpec().refInput());
    workload::writeTraceV2(OS, Gen, workload::TraceV2BlockEvents,
                           workload::TraceV2AlignBytes);
  }
  ~AlignedTraceFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// Whole-trace replay from a read-only mapping: blocks decode in place;
/// the first pass verifies every block, so every later pass runs the
/// trusted SWAR path.
void BM_Replay_Mmap(benchmark::State &State) {
  static const AlignedTraceFile File;
  std::string Error;
  const std::shared_ptr<const workload::MaterializedTrace> Trace =
      workload::MaterializedTrace::mapFile(File.path(), &Error);
  if (!Trace) {
    State.SkipWithError(Error.c_str());
    return;
  }
  std::vector<workload::BranchEvent> Buf(workload::TraceV2BlockEvents);
  uint64_t Events = 0;
  for (auto _ : State) {
    workload::TraceCursor Cursor(Trace);
    Events = 0;
    while (const size_t N = Cursor.nextBatch(Buf))
      Events += N;
    if (Cursor.failed())
      State.SkipWithError(Cursor.error().c_str());
    benchmark::DoNotOptimize(Events);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
  State.counters["mapped_bytes"] =
      benchmark::Counter(static_cast<double>(Trace->bytes()));
}
BENCHMARK(BM_Replay_Mmap)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
