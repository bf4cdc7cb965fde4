//===- core/Driver.cpp - Run controllers over workload traces -------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"

#include <algorithm>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;

const ControlStats &core::runTrace(SpeculationController &Controller,
                                   workload::EventSource &Source,
                                   size_t BatchEvents) {
  uint64_t Consumed = 0;
  // Reusable chunk arena: one events buffer, one verdicts buffer, both
  // sized once and refilled per chunk.
  const size_t ChunkEvents = std::max<size_t>(BatchEvents, 1);
  std::vector<workload::BranchEvent> Events(ChunkEvents);
  std::vector<BranchVerdict> Verdicts(ChunkEvents);
  while (const size_t N = Source.nextBatch(Events)) {
    const std::span<const workload::BranchEvent> Chunk(Events.data(), N);
    Controller.onBatch(Chunk, Verdicts.data());
    Consumed += N;
  }
  ControlStats &Stats = Controller.stats();
  Stats.EventsConsumed += Consumed;
  return Stats;
}

const ControlStats &core::runWorkload(SpeculationController &Controller,
                                      const workload::WorkloadSpec &Spec,
                                      const workload::InputConfig &Input,
                                      size_t BatchEvents) {
  workload::TraceGenerator Gen(Spec, Input);
  return runTrace(Controller, Gen, BatchEvents);
}

profile::BranchProfile core::collectProfile(workload::EventSource &Source,
                                            uint32_t NumSites) {
  profile::BranchProfile Profile(NumSites);
  std::vector<workload::BranchEvent> Events(workload::DefaultBatchEvents);
  while (const size_t N = Source.nextBatch(Events))
    for (size_t I = 0; I < N; ++I)
      Profile.addOutcome(Events[I].Site, Events[I].Taken);
  return Profile;
}
