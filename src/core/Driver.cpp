//===- core/Driver.cpp - Run controllers over workload traces -------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"

#include "workload/TraceFile.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;

TraceObserver::~TraceObserver() = default;

void TraceObserver::onBatch(std::span<const workload::BranchEvent> Events,
                            std::span<const BranchVerdict> Verdicts) {
  for (size_t I = 0; I < Events.size(); ++I)
    onEvent(Events[I], Verdicts[I]);
}

const ControlStats &core::runTrace(SpeculationController &Controller,
                                   workload::EventSource &Source,
                                   TraceObserver *Observer,
                                   size_t BatchEvents,
                                   TraceRunMetrics *Metrics) {
  uint64_t Consumed = 0;
  uint64_t Batches = 0;
  // Reusable chunk arena: one events buffer, one verdicts buffer, both
  // sized once and refilled per chunk.
  const size_t ChunkEvents = std::max<size_t>(BatchEvents, 1);
  std::vector<workload::BranchEvent> Events(ChunkEvents);
  std::vector<BranchVerdict> Verdicts(ChunkEvents);
  while (const size_t N = Source.nextBatch(Events)) {
    const std::span<const workload::BranchEvent> Chunk(Events.data(), N);
    Controller.onBatch(Chunk, Verdicts.data());
    if (Observer)
      Observer->onBatch(Chunk,
                        std::span<const BranchVerdict>(Verdicts.data(), N));
    Consumed += N;
    ++Batches;
  }
  ControlStats &Stats = Controller.stats();
  Stats.EventsConsumed += Consumed;
  if (Metrics) {
    Metrics->Events += Consumed;
    Metrics->Batches += Batches;
  }
  return Stats;
}

const ControlStats &core::runWorkload(SpeculationController &Controller,
                                      const workload::WorkloadSpec &Spec,
                                      const workload::InputConfig &Input,
                                      TraceObserver *Observer,
                                      size_t BatchEvents,
                                      TraceRunMetrics *Metrics) {
  workload::TraceGenerator Gen(Spec, Input);
  return runTrace(Controller, Gen, Observer, BatchEvents, Metrics);
}

const ControlStats &core::runWorkload(SpeculationController &Controller,
                                      const workload::WorkloadSpec &Spec,
                                      const workload::InputConfig &Input,
                                      workload::TraceArena &Arena,
                                      TraceObserver *Observer,
                                      size_t BatchEvents,
                                      TraceRunMetrics *Metrics) {
  const std::unique_ptr<workload::EventSource> Source =
      Arena.open(Spec, Input);
  return runTrace(Controller, *Source, Observer, BatchEvents, Metrics);
}

const ControlStats &core::runTraceFile(SpeculationController &Controller,
                                       const std::string &Path,
                                       TraceObserver *Observer,
                                       size_t BatchEvents,
                                       TraceRunMetrics *Metrics) {
  std::string Error;
  std::shared_ptr<const workload::MaterializedTrace> Trace =
      workload::MaterializedTrace::mapFile(Path, &Error);
  if (!Trace)
    throw std::runtime_error("cannot replay trace " + Error);
  workload::TraceCursor Cursor(std::move(Trace));
  const ControlStats &Stats =
      runTrace(Controller, Cursor, Observer, BatchEvents, Metrics);
  if (Cursor.failed())
    throw std::runtime_error("trace '" + Path + "': " + Cursor.error());
  return Stats;
}
