//===- workload/TraceGenerator.cpp - Branch-event stream ------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/TraceGenerator.h"

#include <algorithm>
#include <cassert>

using namespace specctrl;
using namespace specctrl::workload;

TraceGenerator::TraceGenerator(const WorkloadSpec &Spec,
                               const InputConfig &In)
    : Spec(Spec), Input(In), R(0) {
  assert(Spec.numSites() > 0 && "workload has no branch sites");
  assert(Spec.NumPhases >= 1 && Spec.NumPhases <= 16 &&
         "phase count out of range");
  assert(Spec.MinGap >= 1 && Spec.MinGap <= Spec.MaxGap &&
         "bad instruction-gap range");
  buildPhaseTables();
  reset();
}

void TraceGenerator::buildPhaseTables() {
  PhaseSites.assign(Spec.NumPhases, {});
  PhaseTables.assign(Spec.NumPhases, AliasTable());
  // Reserve the whole-population upper bound up front so cold-start cost
  // is one allocation per table, not push_back growth.
  ExecCounts.reserve(Spec.numSites());
  States.reserve(Spec.numSites());
  std::vector<double> Weights;
  Weights.reserve(Spec.numSites());
  for (unsigned P = 0; P < Spec.NumPhases; ++P) {
    Weights.clear();
    PhaseSites[P].reserve(Spec.numSites());
    for (SiteId S = 0; S < Spec.numSites(); ++S) {
      if (!Spec.siteActive(S, Input, P))
        continue;
      PhaseSites[P].push_back(S);
      Weights.push_back(Spec.Sites[S].Weight);
    }
    // A phase with no active sites falls back to the whole site table so a
    // badly gated input still produces a full-length run.
    if (PhaseSites[P].empty()) {
      for (SiteId S = 0; S < Spec.numSites(); ++S) {
        PhaseSites[P].push_back(S);
        Weights.push_back(Spec.Sites[S].Weight);
      }
    }
    PhaseTables[P].build(Weights);
  }
  EventsPerPhase = Input.Events / Spec.NumPhases;
  if (EventsPerPhase == 0)
    EventsPerPhase = Input.Events ? Input.Events : 1;
}

void TraceGenerator::reset() {
  // The event stream must be identical across resets and independent of the
  // input's parameter bits, so seed from (workload, input name length,
  // input seed).
  R.reseed(Spec.Seed ^ (Input.Seed * 0x9E3779B97F4A7C15ull));
  ExecCounts.assign(Spec.numSites(), 0);
  States.assign(Spec.numSites(), BehaviorState());
  NextIndex = 0;
  InstRet = 0;
}

size_t TraceGenerator::nextBatch(std::span<BranchEvent> Buffer) {
  size_t Filled = 0;
  while (Filled < Buffer.size() && NextIndex < Input.Events) {
    unsigned Phase = static_cast<unsigned>(NextIndex / EventsPerPhase);
    if (Phase >= Spec.NumPhases)
      Phase = Spec.NumPhases - 1; // remainder events stay in the last phase

    // The run up to the next phase boundary draws from one alias table, so
    // the phase lookup is hoisted out of the per-event loop.  RNG calls
    // happen in event order, so any chunking yields the same stream.
    uint64_t Boundary =
        Phase + 1 >= Spec.NumPhases
            ? Input.Events
            : (static_cast<uint64_t>(Phase) + 1) * EventsPerPhase;
    Boundary = std::min(Boundary, Input.Events);
    const size_t Segment = static_cast<size_t>(std::min<uint64_t>(
        Buffer.size() - Filled, Boundary - NextIndex));

    const AliasTable &Table = PhaseTables[Phase];
    const std::vector<SiteId> &Sites = PhaseSites[Phase];
    const bool FixedGap = Spec.MinGap == Spec.MaxGap;
    for (size_t I = 0; I < Segment; ++I) {
      const uint32_t Pick = Table.sample(R);
      const SiteId Site = Sites[Pick];
      const SiteSpec &SS = Spec.Sites[Site];

      const uint64_t Exec = ExecCounts[Site]++;
      const bool GroupOn =
          SS.Behavior.Kind == BehaviorKind::PhaseGroup
              ? Spec.groupOnInPhase(SS.Behavior.GroupId, Phase)
              : true;
      const bool InputFlip =
          SS.Behavior.Kind == BehaviorKind::InputDependent &&
          Input.parameterBit(Site);
      const bool Taken =
          drawOutcome(SS.Behavior, Exec, GroupOn, InputFlip, States[Site], R);

      const uint32_t Gap =
          FixedGap ? Spec.MinGap
                   : static_cast<uint32_t>(
                         R.nextInRange(Spec.MinGap, Spec.MaxGap));
      InstRet += Gap + 1;

      BranchEvent &Event = Buffer[Filled + I];
      Event.Site = Site;
      Event.Taken = Taken;
      Event.Gap = Gap;
      Event.Index = NextIndex++;
      Event.InstRet = InstRet;
    }
    Filled += Segment;
  }
  return Filled;
}
