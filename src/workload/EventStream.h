//===- workload/EventStream.h - Batched branch-event sources ----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The branch-event record and the source interface every trace producer
/// (synthetic generation, trace replay) implements.  Sources fill
/// fixed-size chunks into a caller-owned buffer (nextBatch), which
/// amortizes per-event call overhead across the whole pipeline: one
/// virtual dispatch per chunk instead of one per event.  next() is the
/// one-event convenience over the same path.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_EVENTSTREAM_H
#define SPECCTRL_WORKLOAD_EVENTSTREAM_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace specctrl {
namespace workload {

/// Identifies a static conditional-branch site (index into the site table).
/// (Canonical definition in Workload.h; repeated here so the event record
/// has no heavyweight includes.)
using SiteId = uint32_t;

/// One dynamic execution of a static branch site: 16 bytes, so rings,
/// batch buffers and staged blocks hold four events per cache line.  An
/// event does not store its position in the stream; a reader that needs
/// it counts the events it has seen.
struct BranchEvent {
  SiteId Site = 0;
  bool Taken = false;
  /// Non-branch instructions retired since the previous branch
  /// (WorkloadSpec::validate bounds MaxGap by the field).
  uint16_t Gap = 0;
  /// Dynamic instructions retired up to and including this branch,
  /// counted from the start of the run.
  uint64_t InstRet = 0;

  bool operator==(const BranchEvent &) const = default;
};
static_assert(sizeof(BranchEvent) == 16, "BranchEvent is 16 bytes");

/// Default number of events per chunk in the batched pipeline.  Sized so
/// the chunk buffer (64 KiB of events + 8 KiB of verdicts) stays
/// comfortably inside L2 while amortizing per-batch dispatch to noise.
inline constexpr size_t DefaultBatchEvents = 4096;

/// A stream of branch events.
class EventSource {
public:
  virtual ~EventSource();

  /// Fills \p Buffer with as many events as are available and returns the
  /// count (0 = stream done).
  virtual size_t nextBatch(std::span<BranchEvent> Buffer) = 0;

  /// Produces the next event.  Returns false when the stream is done.
  virtual bool next(BranchEvent &Event) { return nextBatch({&Event, 1}) == 1; }
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_EVENTSTREAM_H
