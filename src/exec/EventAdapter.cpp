//===- exec/EventAdapter.cpp - An execution as an EventSource -------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/EventAdapter.h"

#include <limits>

namespace specctrl {
namespace exec {

namespace {

/// Fills a chunk buffer from branch events, pausing the engine when the
/// buffer is full.  `Done` excludes the branch itself, so Done + 1 is
/// BranchEvent::InstRet ("up to and including this branch").
class ChunkCollector final : public NoEvents {
public:
  ChunkCollector(ThreadedBackend &Interp,
                 std::span<workload::BranchEvent> Buffer,
                 uint64_t &PrevInstRet, uint64_t &NextIndex)
      : Interp(Interp), Buffer(Buffer), PrevInstRet(PrevInstRet),
        NextIndex(NextIndex) {}

  void noteBranch(ir::SiteId Site, bool Taken, uint64_t Done) {
    const uint64_t Ret = Done + 1;
    workload::BranchEvent &E = Buffer[Count++];
    E.Site = Site;
    E.Taken = Taken;
    E.Gap = static_cast<uint32_t>(Ret - PrevInstRet - 1);
    E.Index = NextIndex++;
    E.InstRet = Ret;
    PrevInstRet = Ret;
    if (Count == Buffer.size())
      Interp.requestStop();
  }

  size_t Count = 0;

private:
  ThreadedBackend &Interp;
  std::span<workload::BranchEvent> Buffer;
  uint64_t &PrevInstRet;
  uint64_t &NextIndex;
};

} // namespace

size_t InterpreterEventSource::nextBatch(
    std::span<workload::BranchEvent> Buffer) {
  if (Done || Buffer.empty())
    return 0;
  ChunkCollector Collector(Interp, Buffer, PrevInstRet, NextIndex);
  // run() clears any pending stop request on entry, so Stopped here can
  // only mean the collector filled the buffer; everything else ends the
  // stream (Halted, Fault, or an effectively-unbounded budget expiring).
  LastStop = Interp.run(std::numeric_limits<uint64_t>::max() / 2, Collector);
  if (LastStop != StopReason::Stopped)
    Done = true;
  return Collector.Count;
}

} // namespace exec
} // namespace specctrl
