//===- tests/serve/StreamProducer.cpp - Ring producer adapters -----------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "StreamProducer.h"

using namespace specctrl;
using namespace specctrl::workload;

void SkipSource::skipPending() {
  if (Remaining == 0)
    return;
  // Discard in chunks so arena-backed sources decode whole blocks instead
  // of staging one event at a time.
  std::vector<BranchEvent> Scratch(
      static_cast<size_t>(Remaining < DefaultBatchEvents ? Remaining
                                                         : DefaultBatchEvents));
  while (Remaining > 0) {
    const size_t Want = static_cast<size_t>(
        Remaining < Scratch.size() ? Remaining : Scratch.size());
    const size_t Got = Inner.nextBatch({Scratch.data(), Want});
    if (Got == 0)
      break; // source shorter than the skip: nothing left to stream
    Remaining -= Got;
  }
  Remaining = 0;
}

size_t SkipSource::nextBatch(std::span<BranchEvent> Buffer) {
  skipPending();
  return Inner.nextBatch(Buffer);
}

RingProducer::RingProducer(EventSource &Source, SpscRing &Ring,
                           size_t BatchEvents)
    : Source(Source), Ring(Ring), Chunk(BatchEvents < 1 ? 1 : BatchEvents) {}

size_t RingProducer::step() {
  if (ChunkPos == ChunkLen) {
    if (SourceDone)
      return 0;
    ChunkLen = Source.nextBatch(Chunk);
    ChunkPos = 0;
    if (ChunkLen == 0) {
      SourceDone = true;
      return 0;
    }
  }
  const size_t N =
      Ring.push({Chunk.data() + ChunkPos, ChunkLen - ChunkPos});
  ChunkPos += N;
  Produced += N;
  return N;
}
