//===- exec/EventAdapter.h - An execution as an EventSource -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adapts a running SimIR execution to the batched workload::EventSource
/// interface, so real SimIR execution can feed the same controller
/// pipeline (core::runTrace, trace recording, the engine) as synthetic
/// generation and file replay.  The adapter resumes the engine in slices:
/// each nextBatch call runs the program until the caller's chunk buffer is
/// full or the program ends, translating branch events into BranchEvent
/// records with the stream's Gap/Index/InstRet bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_EXEC_EVENTADAPTER_H
#define SPECCTRL_EXEC_EVENTADAPTER_H

#include "exec/ThreadedBackend.h"
#include "workload/EventStream.h"

#include <cstdint>

namespace specctrl {
namespace exec {

/// Streams the conditional-branch events of an execution.  The adapter
/// owns the stream position (event index, last branch's retired count) but
/// not the engine, which the caller constructs and may inspect between
/// batches; interleaving other run() calls on the same engine corrupts the
/// stream.
class InterpreterEventSource final : public workload::EventSource {
public:
  explicit InterpreterEventSource(ThreadedBackend &Interp) : Interp(Interp) {}

  InterpreterEventSource(const InterpreterEventSource &) = delete;
  InterpreterEventSource &operator=(const InterpreterEventSource &) = delete;

  size_t nextBatch(std::span<workload::BranchEvent> Buffer) override;

  /// Why the most recent batch stopped producing events.  Streams that end
  /// by Fault did not run to completion; callers that care should check.
  StopReason stopReason() const { return LastStop; }

private:
  ThreadedBackend &Interp;
  /// Instructions retired as of the previous branch (Gap baseline).
  uint64_t PrevInstRet = 0;
  /// 0-based index of the next event to emit.
  uint64_t NextIndex = 0;
  StopReason LastStop = StopReason::Stopped;
  bool Done = false;
};

} // namespace exec
} // namespace specctrl

#endif // SPECCTRL_EXEC_EVENTADAPTER_H
