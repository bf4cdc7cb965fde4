//===- tests/serve/StreamProducer.h - Ring producer adapter ----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The producer-side adapter that feeds any EventSource (TraceGenerator,
/// TraceCursor) into an SpscRing -- the client half of the streaming
/// ingest service.  RingProducer stages batched reads from a source and
/// pushes them into a ring with partial-push retry, preserving the
/// source's exact event order.  step() is non-blocking so callers own the
/// backoff policy.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_TESTS_SERVE_STREAMPRODUCER_H
#define SPECCTRL_TESTS_SERVE_STREAMPRODUCER_H

#include "workload/EventStream.h"
#include "workload/SpscRing.h"

#include <vector>

namespace specctrl {
namespace workload {

/// Pumps an EventSource into an SpscRing in batches.  Single-threaded on
/// the producer side; pair with one consumer draining the ring.
class RingProducer {
public:
  /// \p BatchEvents bounds the staging chunk (clamped to >= 1).
  RingProducer(EventSource &Source, SpscRing &Ring,
               size_t BatchEvents = DefaultBatchEvents);

  /// Advances the pump without blocking: refills the staging chunk from
  /// the source when it is empty and pushes staged events into the ring.
  /// Returns the number of events pushed by this call -- 0 means the ring
  /// is currently full (back off and retry) or the stream is done().
  size_t step();

  /// True once the source is exhausted and every event has been pushed.
  /// The caller is responsible for closing the ring when done.
  bool done() const { return SourceDone && ChunkPos == ChunkLen; }

  /// Events pushed into the ring so far.
  uint64_t produced() const { return Produced; }

private:
  EventSource &Source;
  SpscRing &Ring;
  std::vector<BranchEvent> Chunk;
  size_t ChunkPos = 0;
  size_t ChunkLen = 0;
  bool SourceDone = false;
  uint64_t Produced = 0;
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_TESTS_SERVE_STREAMPRODUCER_H
