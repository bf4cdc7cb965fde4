//===- workload/TraceGenerator.cpp - Branch-event stream ------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/TraceGenerator.h"

#include "support/AliasTable.h"

#include <algorithm>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// The regime drawOutcome's PhaseGroup sites read in \p Phase.
bool groupOn(const WorkloadSpec &Spec, const BehaviorSpec &B,
             unsigned Phase) {
  return B.Kind == BehaviorKind::PhaseGroup
             ? Spec.groupOnInPhase(B.GroupId, Phase)
             : true;
}

/// The input-parameter bit drawOutcome's InputDependent sites read.
bool inputFlip(const InputConfig &In, const BehaviorSpec &B, SiteId Site) {
  return B.Kind == BehaviorKind::InputDependent && In.parameterBit(Site);
}

} // namespace

TraceGenerator::TraceGenerator(const WorkloadSpec &Spec,
                               const InputConfig &In)
    : Spec(Spec), Input(In), R(0) {
  const std::string Violation = Spec.validate();
  if (!Violation.empty())
    throw std::invalid_argument("invalid workload spec '" + Spec.Name +
                                "': " + Violation);
  buildPhaseTables();
  GapDraw = BoundedDraw(uint64_t(Spec.MaxGap) - Spec.MinGap + 1);
  reset();
}

void TraceGenerator::buildPhaseTables() {
  Phases.assign(Spec.NumPhases, PhaseTable());
  // Reserve the whole-population upper bound up front so cold-start cost
  // is one allocation per table, not push_back growth.
  ExecCounts.reserve(Spec.numSites());
  States.reserve(Spec.numSites());
  std::vector<SiteId> Sites;
  std::vector<double> Weights;
  Sites.reserve(Spec.numSites());
  Weights.reserve(Spec.numSites());
  // Per site, its taken probability in the phase being built, or
  // VariesInPhase.  fixedWithinPhase kinds read neither the execution
  // count, the state nor the RNG.
  std::vector<double> SiteP(Spec.numSites());
  BehaviorState Unused;
  Rng Unread;
  for (unsigned P = 0; P < Spec.NumPhases; ++P) {
    Sites.clear();
    Weights.clear();
    for (SiteId S = 0; S < Spec.numSites(); ++S) {
      if (!Spec.siteActive(S, Input, P))
        continue;
      Sites.push_back(S);
      Weights.push_back(Spec.Sites[S].Weight);
    }
    // A phase with no active sites falls back to the whole site table so a
    // badly gated input still produces a full-length run.
    if (Sites.empty()) {
      for (SiteId S = 0; S < Spec.numSites(); ++S) {
        Sites.push_back(S);
        Weights.push_back(Spec.Sites[S].Weight);
      }
    }
    for (const SiteId S : Sites) {
      const BehaviorSpec &B = Spec.Sites[S].Behavior;
      SiteP[S] = fixedWithinPhase(B.Kind)
                     ? takenProbability(B, 0, groupOn(Spec, B, P),
                                        inputFlip(Input, B, S), Unused, Unread)
                     : VariesInPhase;
    }
    const AliasTable Table(Weights);
    PhaseTable &Phase = Phases[P];
    Phase.Pick = BoundedDraw(Sites.size());
    Phase.Slots.resize(Sites.size());
    for (uint32_t I = 0; I < Sites.size(); ++I) {
      const SiteId Own = Sites[I], Other = Sites[Table.alias(I)];
      Phase.Slots[I] = {Table.keepProbability(I), {SiteP[Own], SiteP[Other]},
                        {Own, Other}};
    }
  }
  EventsPerPhase = Input.Events / Spec.NumPhases;
  if (EventsPerPhase == 0)
    EventsPerPhase = Input.Events ? Input.Events : 1;
}

void TraceGenerator::reset() {
  // The event stream must be identical across resets and independent of the
  // input's parameter bits, so seed from (workload seed, input seed) only.
  R.reseed(Spec.Seed ^ (Input.Seed * 0x9E3779B97F4A7C15ull));
  ExecCounts.assign(Spec.numSites(), 0);
  States.assign(Spec.numSites(), BehaviorState());
  Generated = 0;
  InstRet = 0;
}

size_t TraceGenerator::nextBatch(std::span<BranchEvent> Buffer) {
  const bool FixedGap = Spec.MinGap == Spec.MaxGap;
  const uint32_t MinGap = Spec.MinGap;
  uint64_t Position = Generated;
  uint64_t Retired = InstRet;
  // The loop draws from a copy of R that no store through Buffer or
  // ExecCounts can alias, so its state stays in registers; R is synced
  // around drawOutcome and at the end.
  Rng Draws = R;
  size_t Filled = 0;
  while (Filled < Buffer.size() && Position < Input.Events) {
    unsigned Phase = static_cast<unsigned>(Position / EventsPerPhase);
    if (Phase >= Spec.NumPhases)
      Phase = Spec.NumPhases - 1; // remainder events stay in the last phase

    // The run up to the next phase boundary draws from one slot table, so
    // the phase lookup is hoisted out of the per-event loop.  RNG calls
    // happen in event order, so any chunking yields the same stream.
    uint64_t Boundary =
        Phase + 1 >= Spec.NumPhases
            ? Input.Events
            : (static_cast<uint64_t>(Phase) + 1) * EventsPerPhase;
    Boundary = std::min(Boundary, Input.Events);
    const size_t Segment = static_cast<size_t>(std::min<uint64_t>(
        Buffer.size() - Filled, Boundary - Position));

    const PhaseTable &Table = Phases[Phase];
    const Slot *Slots = Table.Slots.data();
    BranchEvent *Out = Buffer.data() + Filled;
    for (size_t I = 0; I < Segment; ++I) {
      // AliasTable::sample's two draws; the keep-or-alias choice indexes
      // the slot rather than branching on a coin flip.
      const Slot &S = Slots[Table.Pick.draw(Draws)];
      const unsigned Which = Draws.nextDouble() < S.Keep ? 0 : 1;
      const SiteId Site = S.Site[Which];
      const double P = S.P[Which];

      const uint64_t Exec = ExecCounts[Site]++;
      bool Taken;
      if (P >= 0.0) {
        Taken = Draws.nextBool(P); // drawOutcome of a fixedWithinPhase kind
      } else {
        const BehaviorSpec &B = Spec.Sites[Site].Behavior;
        R = Draws;
        Taken = drawOutcome(B, Exec, groupOn(Spec, B, Phase),
                            inputFlip(Input, B, Site), States[Site], R);
        Draws = R;
      }

      const uint32_t Gap =
          FixedGap ? MinGap
                   : MinGap + static_cast<uint32_t>(GapDraw.draw(Draws));
      Retired += Gap + 1;
      // One whole-value store: validate() bounds MaxGap by the u16 field.
      Out[I] = BranchEvent{Site, Taken, static_cast<uint16_t>(Gap), Retired};
    }
    Position += Segment;
    Filled += Segment;
  }
  R = Draws;
  Generated = Position;
  InstRet = Retired;
  return Filled;
}
