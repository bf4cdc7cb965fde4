//===- tests/serve/StreamProducer.cpp - Ring producer adapter ------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "StreamProducer.h"

using namespace specctrl;
using namespace specctrl::workload;

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
