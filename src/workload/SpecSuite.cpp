//===- workload/SpecSuite.cpp - The 12 calibrated benchmarks --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/SpecSuite.h"

#include "support/Rng.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/TraceFile.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

using namespace specctrl;
using namespace specctrl::workload;

const std::vector<BenchmarkProfile> &workload::suiteProfiles() {
  // Columns: name, paper run length (B insts), Table 3 touch/bias/evict/
  // total-evicts, %spec, input fragility, periodic richness, correlated
  // groups.  Input fragility is high for the programs Table 1 singles out
  // as parameterizable (crafty, parser, perl, vpr; gcc's -O level is input
  // too but its enormous biased population dilutes the effect).
  static const std::vector<BenchmarkProfile> Profiles = {
      {"bzip2", 19.0, 282, 109, 6, 15, 0.441, 0.30, 0.3, 1},
      {"crafty", 45.0, 1124, 396, 138, 276, 0.251, 0.85, 0.2, 2},
      {"eon", 9.0, 403, 95, 3, 3, 0.383, 0.10, 0.0, 0},
      {"gap", 10.0, 3011, 1045, 167, 201, 0.525, 0.35, 0.3, 2},
      {"gcc", 13.0, 7943, 2068, 11, 12, 0.663, 0.45, 0.1, 2},
      {"gzip", 14.0, 314, 66, 7, 12, 0.354, 0.25, 1.0, 1},
      {"mcf", 9.0, 366, 210, 22, 47, 0.336, 0.30, 1.0, 1},
      {"parser", 13.0, 1552, 284, 53, 124, 0.263, 0.80, 0.3, 2},
      {"perl", 35.0, 1968, 1075, 58, 64, 0.634, 0.80, 0.2, 2},
      {"twolf", 36.0, 1542, 440, 19, 22, 0.321, 0.25, 0.2, 1},
      {"vortex", 32.0, 3484, 1671, 67, 104, 0.885, 0.20, 0.2, 8},
      {"vpr", 21.0, 758, 340, 16, 38, 0.316, 0.75, 0.3, 1},
  };
  return Profiles;
}

const BenchmarkProfile &workload::profileByName(const std::string &Name) {
  std::string Valid;
  for (const BenchmarkProfile &P : suiteProfiles()) {
    if (P.Name == Name)
      return P;
    Valid += (Valid.empty() ? "" : ", ") + P.Name;
  }
  throw std::invalid_argument("unknown benchmark '" + Name +
                              "' (valid: " + Valid + ")");
}

namespace {

/// FNV-1a over the benchmark name: a stable per-benchmark seed.
uint64_t nameSeed(const std::string &Name) {
  uint64_t H = 0xCBF29CE484222325ull;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001B3ull;
  }
  return H;
}

uint32_t scaled(uint32_t PaperCount, double Factor, uint32_t Floor = 1) {
  const uint32_t V =
      static_cast<uint32_t>(std::lround(PaperCount * Factor));
  return std::max(V, Floor);
}

/// The statics that enter biased: Table 3's "bias" scaled, at most three
/// quarters of the \p Touch static population.
uint32_t biasTarget(const BenchmarkProfile &Profile, double SiteScale,
                    uint32_t Touch) {
  return std::min(scaled(Profile.PaperBias, SiteScale, 12),
                  Touch - Touch / 4);
}

/// A run must be long enough for its biased-static population to be
/// classified at all (the 10k-execution monitor period per site); this
/// floor widens benchmarks whose paper runs were short relative to their
/// populations (gcc, gap), and scales with the run-length knob.  Each
/// classified site needs ~40k executions (10k monitor + useful
/// speculation), and the classified pool may only occupy PaperSpecShare
/// of the stream -- so the run must host BiasTarget * 42k / share events.
double eventFloor(const BenchmarkProfile &Profile, const SuiteScale &Scale,
                  uint32_t BiasTarget) {
  return BiasTarget * 42000.0 / std::max(Profile.PaperSpecShare, 0.25) *
         (Scale.EventsPerBillion / 6.0e5);
}

std::string formatNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", V);
  return Buf;
}

/// The first rule \p Scale breaks for building \p Profile, or empty.
std::string scaleError(const BenchmarkProfile &Profile,
                       const SuiteScale &Scale) {
  if (!std::isfinite(Scale.EventsPerBillion) ||
      !(Scale.EventsPerBillion > 0.0))
    return "events per billion must be a finite number > 0, got " +
           formatNumber(Scale.EventsPerBillion);
  if (!std::isfinite(Scale.SiteScale) || !(Scale.SiteScale > 0.0))
    return "site scale must be a finite number > 0, got " +
           formatNumber(Scale.SiteScale);
  // scaled() rounds each paper count times the site scale to a 32-bit
  // count.
  for (const uint32_t Count :
       {Profile.PaperTouch, Profile.PaperBias, Profile.PaperEvictStatics,
        Profile.PaperTotalEvicts})
    if (!(Count * Scale.SiteScale < 0x1p32 - 0.5))
      return "site scale " + formatNumber(Scale.SiteScale) + " gives " +
             Profile.Name + " " + formatNumber(Count * Scale.SiteScale) +
             " static branches, more than a 32-bit count holds";
  // Every site id must fit an SCT2 trace.  The bound also keeps the
  // biased-static category products (at most BiasTarget * 30) in 32 bits.
  const uint32_t Touch = scaled(Profile.PaperTouch, Scale.SiteScale, 40);
  if (Touch > TraceFileLimits::MaxSite + 1)
    return "site scale " + formatNumber(Scale.SiteScale) + " gives " +
           Profile.Name + " " + std::to_string(Touch) +
           " static branches, more than a trace's " +
           std::to_string(TraceFileLimits::MaxSite + 1) + " site ids";
  const uint32_t BiasTarget = biasTarget(Profile, Scale.SiteScale, Touch);
  // RefEvents is rounded through a signed 64-bit integer (llround), the
  // event floor converted to an unsigned one.
  const double Events = Profile.PaperLenBillions * Scale.EventsPerBillion;
  if (!(Events < 0x1p63))
    return "events per billion " + formatNumber(Scale.EventsPerBillion) +
           " gives " + Profile.Name + " a run of " + formatNumber(Events) +
           " events, more than a signed 64-bit count holds";
  const double Floor = eventFloor(Profile, Scale, BiasTarget);
  if (!(Floor < 0x1p64))
    return "events per billion " + formatNumber(Scale.EventsPerBillion) +
           " at site scale " + formatNumber(Scale.SiteScale) + " gives " +
           Profile.Name + " an event floor of " + formatNumber(Floor) +
           " events, more than a 64-bit count holds";
  return {};
}

/// Taken probability for a site biased toward \p DirectionTaken with bias
/// level \p Bias (probability of the biased direction).
double takenProb(bool DirectionTaken, double Bias) {
  return DirectionTaken ? Bias : 1.0 - Bias;
}

/// Draws a high bias level in [0.9995, 0.99998]: strong enough for the
/// 99.5% selection threshold, with enough residual misspeculation to
/// reproduce the paper's ~0.02% baseline incorrect rate at compressed run
/// lengths.
double drawHighBias(Rng &R) { return 0.9995 + 0.00048 * R.nextDouble(); }

/// Post-change taken-probability for a flip/soften site whose pre-change
/// direction is \p DirTaken -- matches the Fig. 6 mixture: ~20% become
/// perfectly biased the other way, ~40% drop below 30% in the original
/// direction, ~40% soften to a moderate level.
double drawPostChangeProb(bool DirTaken, Rng &R) {
  const double U = R.nextDouble();
  double BiasInOriginalDir;
  if (U < 0.20)
    BiasInOriginalDir = 0.001 + 0.004 * R.nextDouble();
  else if (U < 0.60)
    BiasInOriginalDir = 0.02 + 0.28 * R.nextDouble();
  else
    BiasInOriginalDir = 0.30 + 0.55 * R.nextDouble();
  return takenProb(DirTaken, BiasInOriginalDir);
}

} // namespace

std::string SuiteScale::validate() const {
  for (const BenchmarkProfile &Profile : suiteProfiles()) {
    std::string Error = scaleError(Profile, *this);
    if (!Error.empty())
      return Error;
  }
  return {};
}

WorkloadSpec workload::makeBenchmark(const BenchmarkProfile &Profile,
                                     const SuiteScale &Scale) {
  const std::string Error = scaleError(Profile, Scale);
  if (!Error.empty())
    throw std::invalid_argument(Error);
  WorkloadSpec Spec;
  Spec.Name = Profile.Name;
  Spec.Seed = nameSeed(Profile.Name);
  Spec.RefEvents = static_cast<uint64_t>(
      std::llround(Profile.PaperLenBillions * Scale.EventsPerBillion));
  Spec.NumPhases = 8;
  Spec.MinGap = 1;
  Spec.MaxGap = 8;

  Rng R(Spec.Seed);

  // ---- Population sizes -------------------------------------------------
  const uint32_t Touch = scaled(Profile.PaperTouch, Scale.SiteScale, 40);
  const uint32_t BiasTarget = biasTarget(Profile, Scale.SiteScale, Touch);

  const uint64_t EventFloor =
      static_cast<uint64_t>(eventFloor(Profile, Scale, BiasTarget));
  if (Spec.RefEvents < EventFloor)
    Spec.RefEvents = EventFloor;
  Spec.TrainEvents = static_cast<uint64_t>(Spec.RefEvents * 0.6);
  // Category budgets within the biased-static population.  Caps keep the
  // pure always-biased pool at least ~35% of the budget (in the paper,
  // evicted statics are a minority of biased statics everywhere).
  const uint32_t NumFlip =
      std::min(scaled(Profile.PaperEvictStatics, Scale.SiteScale),
               std::max(2u, BiasTarget * 22 / 100));
  const uint32_t ExtraEvicts =
      Profile.PaperTotalEvicts > Profile.PaperEvictStatics
          ? scaled(Profile.PaperTotalEvicts - Profile.PaperEvictStatics,
                   Scale.SiteScale, 0)
          : 0;
  const uint32_t NumPeriodic = std::min(
      std::max<uint32_t>(Profile.PeriodicRichness > 0.5 ? 3 : 1,
                         (ExtraEvicts + 1) / 2),
      std::max(2u, BiasTarget / 12));
  const uint32_t NumGroups = Profile.CorrelatedGroups;
  const uint32_t NumGroupSites =
      NumGroups ? std::min<uint32_t>(NumGroups * 4, BiasTarget / 6) : 0;
  const uint32_t NumInduction = 1 + Touch / 500;
  const uint32_t NumInputDep = static_cast<uint32_t>(
      std::lround(Profile.InputFragility * BiasTarget * 0.20));

  uint32_t NumPureBiased = BiasTarget;
  for (uint32_t Part :
       {NumFlip, NumPeriodic, NumGroupSites, NumInduction, NumInputDep})
    NumPureBiased = NumPureBiased > Part ? NumPureBiased - Part : 0;
  NumPureBiased = std::max(NumPureBiased, BiasTarget * 30 / 100);

  const uint32_t HotCount =
      std::min<uint32_t>(Touch, static_cast<uint32_t>(BiasTarget * 1.6));

  // ---- Correlated-group schedules (Fig. 9) ------------------------------
  Spec.GroupOn.resize(NumGroups);
  for (uint32_t G = 0; G < NumGroups; ++G) {
    std::vector<bool> Row(Spec.NumPhases);
    bool On = R.nextBool(0.5);
    unsigned OnCount = 0;
    for (unsigned P = 0; P < Spec.NumPhases; ++P) {
      if (P > 0 && R.nextBool(0.4))
        On = !On;
      Row[P] = On;
      OnCount += On;
    }
    // Guarantee at least one transition and both regimes.
    if (OnCount == 0)
      Row[Spec.NumPhases / 2] = true;
    if (OnCount == Spec.NumPhases)
      Row[Spec.NumPhases - 1] = false;
    Spec.GroupOn[G] = Row;
  }

  // ---- Sites: weights first ---------------------------------------------
  Spec.Sites.resize(Touch);
  constexpr double ZipfAlpha = 0.55;
  constexpr double ColdShare = 0.08;
  double HotTotal = 0.0;
  for (uint32_t S = 0; S < HotCount; ++S) {
    Spec.Sites[S].Weight = 1.0 / std::pow(static_cast<double>(S + 1),
                                          ZipfAlpha);
    HotTotal += Spec.Sites[S].Weight;
  }
  const uint32_t ColdCount = Touch - HotCount;
  if (ColdCount > 0) {
    const double PerCold =
        HotTotal * ColdShare / (1.0 - ColdShare) / ColdCount;
    for (uint32_t S = HotCount; S < Touch; ++S)
      Spec.Sites[S].Weight = PerCold;
  }

  // ---- Category assignment over shuffled hot ranks ----------------------
  std::vector<uint32_t> HotRanks(HotCount);
  for (uint32_t I = 0; I < HotCount; ++I)
    HotRanks[I] = I;
  for (uint32_t I = HotCount; I > 1; --I)
    std::swap(HotRanks[I - 1], HotRanks[R.nextBelow(I)]);

  size_t Cursor = 0;
  auto Take = [&](uint32_t Count) {
    std::vector<uint32_t> Out;
    for (uint32_t I = 0; I < Count && Cursor < HotRanks.size(); ++I)
      Out.push_back(HotRanks[Cursor++]);
    return Out;
  };

  const std::vector<uint32_t> BiasedIdx = Take(NumPureBiased);
  const std::vector<uint32_t> FlipIdx = Take(NumFlip);
  const std::vector<uint32_t> PeriodicIdx = Take(NumPeriodic);
  const std::vector<uint32_t> GroupIdx = Take(NumGroupSites);
  const std::vector<uint32_t> InductionIdx = Take(NumInduction);
  const std::vector<uint32_t> InputDepIdx = Take(NumInputDep);

  for (uint32_t S : BiasedIdx) {
    const bool Dir = R.nextBool(0.5);
    Spec.Sites[S].Behavior =
        BehaviorSpec::fixed(takenProb(Dir, drawHighBias(R)));
  }
  for (uint32_t I = 0; I < PeriodicIdx.size(); ++I) {
    const uint32_t S = PeriodicIdx[I];
    const bool Dir = R.nextBool(0.5);
    const double High = takenProb(Dir, 0.998);
    // Periodic-rich benchmarks (gzip/mcf) get exploitable two-regime
    // branches that fully reverse -- the sites on which reactive control
    // beats static self-training.  Elsewhere they are oscillators that
    // dip toward unbiased.  The first periodic site of a multi-eviction
    // benchmark is a *serial oscillator*: a hot branch that reverses every
    // few thousand executions, the pathology the oscillation cap exists
    // for (the paper's ~50 branches that would otherwise oscillate
    // hundreds of times).
    const bool Serial = I == 0 && ExtraEvicts >= 2;
    const bool Exploitable =
        Serial || R.nextBool(Profile.PeriodicRichness > 0.5 ? 0.7 : 0.4);
    const double Low =
        Exploitable ? takenProb(Dir, 0.002) : takenProb(Dir, 0.45);
    // Period is fixed up after execution counts are known (below).
    Spec.Sites[S].Behavior = BehaviorSpec::periodic(High, Low, 1);
  }
  for (uint32_t I = 0; I < GroupIdx.size(); ++I) {
    const uint32_t S = GroupIdx[I];
    const bool Dir = R.nextBool(0.5);
    const uint32_t Group = I % std::max(1u, NumGroups);
    const double OffBias = R.nextBool(0.5) ? takenProb(Dir, 0.5)
                                           : takenProb(Dir, 0.03);
    Spec.Sites[S].Behavior =
        BehaviorSpec::phaseGroup(Group, takenProb(Dir, 0.998), OffBias);
  }
  for (uint32_t S : InductionIdx)
    Spec.Sites[S].Behavior = BehaviorSpec::inductionFlip(32768);
  for (uint32_t S : InputDepIdx) {
    const bool Dir = R.nextBool(0.5);
    const double Base = takenProb(Dir, drawHighBias(R));
    // Half fully reverse under the other input; half soften to unbiased.
    const double Alt = R.nextBool(0.5)
                           ? 1.0 - Base
                           : takenProb(Dir, 0.40 + 0.30 * R.nextDouble());
    Spec.Sites[S].Behavior = BehaviorSpec::inputDependent(Base, Alt);
  }

  // Remaining hot sites: the moderate-bias continuum that shapes the
  // Pareto curve, plus classification noise.
  while (Cursor < HotRanks.size()) {
    const uint32_t S = HotRanks[Cursor++];
    const double U = R.nextDouble();
    const bool Dir = R.nextBool(0.5);
    if (U < 0.15) {
      Spec.Sites[S].Behavior =
          BehaviorSpec::randomWalk(0.35 + 0.3 * R.nextDouble(), 2000);
    } else if (U < 0.35) {
      // Near-threshold sites: biased but below 99%.
      Spec.Sites[S].Behavior = BehaviorSpec::fixed(
          takenProb(Dir, 0.90 + 0.09 * R.nextDouble()));
    } else if (U < 0.50) {
      // The knee's shoulder: 99-99.3% biased, selectable by self-training
      // at 99% but below the reactive model's 99.5% threshold.
      Spec.Sites[S].Behavior = BehaviorSpec::fixed(
          takenProb(Dir, 0.990 + 0.0043 * R.nextDouble()));
    } else {
      Spec.Sites[S].Behavior = BehaviorSpec::fixed(
          takenProb(Dir, 0.50 + 0.40 * R.nextDouble()));
    }
  }

  // Cold tail: mostly moderate, a sliver of rarely-run biased statics.
  for (uint32_t S = HotCount; S < Touch; ++S) {
    const double U = R.nextDouble();
    const bool Dir = R.nextBool(0.5);
    if (U < 0.10)
      Spec.Sites[S].Behavior =
          BehaviorSpec::fixed(takenProb(Dir, drawHighBias(R)));
    else if (U < 0.30)
      Spec.Sites[S].Behavior = BehaviorSpec::fixed(
          takenProb(Dir, 0.90 + 0.099 * R.nextDouble()));
    else
      Spec.Sites[S].Behavior = BehaviorSpec::fixed(
          takenProb(Dir, 0.20 + 0.60 * R.nextDouble()));
    // Coverage gating and partial-phase activity live in the tail, where
    // inputs plausibly diverge.
    if (R.nextBool(0.35))
      Spec.Sites[S].InputGated = true;
    if (R.nextBool(0.20)) {
      uint16_t Mask = 0;
      const unsigned Lo = static_cast<unsigned>(R.nextBelow(Spec.NumPhases));
      const unsigned Len = 2 + static_cast<unsigned>(R.nextBelow(4));
      for (unsigned P = Lo; P < Lo + Len; ++P)
        Mask |= static_cast<uint16_t>(1u << (P % Spec.NumPhases));
      Spec.Sites[S].PhaseMask = Mask;
    }
  }

  // ---- Execution-count floors and "% spec" calibration -------------------
  //
  // Behavior-changing sites need enough executions to be classified before
  // they change (floors, capped relative to the run length so small runs
  // stay sane), and the dynamic share of whole-run-biased statics must hit
  // the paper's "% spec" column.  The two constraints interact (raising a
  // changing site's weight dilutes the biased pool), so run two rounds of
  // floors + exact proportional calibration.
  const InputConfig Ref = Spec.refInput();
  const double RunEvents = static_cast<double>(Spec.RefEvents);

  // Applies the per-category execution floors; round 0 also assigns the
  // execution-relative behavior parameters.
  auto ApplyFloors = [&](bool AssignParams) {
    std::vector<double> Execs = Spec.expectedSiteExecs(Ref);
    auto EnsureExecs = [&](uint32_t S, double MinExecs, double RunFrac) {
      const double Floor = std::min(MinExecs, RunEvents * RunFrac);
      if (Execs[S] < Floor && Execs[S] > 0.0) {
        Spec.Sites[S].Weight *= Floor / Execs[S];
        Execs[S] = Floor;
      }
    };
    for (uint32_t S : FlipIdx) {
      EnsureExecs(S, 24.0e3, 1.0 / 160.0);
      if (AssignParams) {
        const bool Dir = R.nextBool(0.5);
        const double Before = takenProb(Dir, drawHighBias(R));
        const double After = drawPostChangeProb(Dir, R);
        // Change point: past the monitoring period, inside the run.
        const double Frac = 0.15 + 0.45 * R.nextDouble();
        const uint64_t At = static_cast<uint64_t>(
            std::max(std::min(20.0e3, Execs[S] * 0.55), Execs[S] * Frac));
        if (R.nextBool(0.4))
          Spec.Sites[S].Behavior = BehaviorSpec::soften(
              Before, After, At, 20000 + R.nextBelow(30000));
        else
          Spec.Sites[S].Behavior = BehaviorSpec::flipAt(Before, After, At);
      }
    }
    for (uint32_t I = 0; I < PeriodicIdx.size(); ++I) {
      const uint32_t S = PeriodicIdx[I];
      const bool Serial = I == 0 && ExtraEvicts >= 2;
      const bool Exploitable =
          std::max(Spec.Sites[S].Behavior.BiasA,
                   1.0 - Spec.Sites[S].Behavior.BiasA) > 0.99 &&
          std::max(Spec.Sites[S].Behavior.BiasB,
                   1.0 - Spec.Sites[S].Behavior.BiasB) > 0.99;
      const bool BigRegimes =
          !Serial && Exploitable && Profile.PeriodicRichness > 0.5;
      EnsureExecs(S, Serial ? 280.0e3 : BigRegimes ? 400.0e3 : 44.0e3,
                  Serial ? 1.0 / 50.0 : BigRegimes ? 1.0 / 30.0
                                                   : 1.0 / 150.0);
      Spec.Sites[S].Behavior.Period =
          Serial ? std::max<uint64_t>(
                       static_cast<uint64_t>(Execs[S] / 20.0), 12000)
                 : std::max<uint64_t>(
                       static_cast<uint64_t>(Execs[S] / (4.0 + (S % 3))),
                       20000);
    }
    for (uint32_t S : InductionIdx)
      EnsureExecs(S, 50.0e3, 1.0 / 150.0);
    for (uint32_t S : GroupIdx)
      EnsureExecs(S, 36.0e3, 1.0 / 150.0);
    // Sites that are supposed to reach the biased state need enough
    // executions to finish a monitor period with room to spare, or the
    // "bias" column can never be reached.  (Moderate hot sites need no
    // floor: they classify as unbiased at any execution count.)
    const double ClassFrac =
        0.9 / std::max<size_t>(BiasedIdx.size() + InputDepIdx.size(), 1);
    for (uint32_t S : BiasedIdx)
      EnsureExecs(S, 40.0e3, ClassFrac);
    for (uint32_t S : InputDepIdx)
      EnsureExecs(S, 40.0e3, ClassFrac);
  };

  for (unsigned Round = 0; Round < 4; ++Round) {
    ApplyFloors(/*AssignParams=*/Round == 0);

    // Proportional calibration: the reactive model speculates on the
    // whole-run-biased pool plus the biased *phases* of changing sites.
    // Estimate the changing sites' contribution, then scale the pure pool
    // so the total expected speculated share matches the paper's "% spec".
    const std::vector<double> Execs = Spec.expectedSiteExecs(Ref);
    double TotalW = 0.0, BiasedW = 0.0, ChangingContribution = 0.0;
    std::vector<bool> IsBiased(Touch, false);
    for (uint32_t S = 0; S < Touch; ++S) {
      if (Execs[S] <= 0.0)
        continue;
      TotalW += Execs[S];
      const BehaviorSpec &B = Spec.Sites[S].Behavior;
      // Fraction of this changing site's executions the reactive model
      // speculates on (classified-biased phases).
      double ExploitFrac = 0.0;
      switch (B.Kind) {
      case BehaviorKind::FlipAt:
      case BehaviorKind::Soften:
        ExploitFrac = 0.85 * std::min(1.0, static_cast<double>(B.ChangeAt) /
                                               std::max(Execs[S], 1.0));
        break;
      case BehaviorKind::Periodic:
        ExploitFrac =
            std::max(B.BiasB, 1.0 - B.BiasB) > 0.99 ? 0.70 : 0.30;
        break;
      case BehaviorKind::InductionFlip:
        ExploitFrac = 0.75; // both regimes are perfectly biased
        break;
      case BehaviorKind::PhaseGroup: {
        unsigned On = 0;
        for (unsigned Ph = 0; Ph < Spec.NumPhases; ++Ph)
          On += Spec.groupOnInPhase(B.GroupId, Ph);
        ExploitFrac = 0.7 * On / Spec.NumPhases;
        break;
      }
      default: {
        const double Rate = expectedTakenRate(
            B, static_cast<uint64_t>(Execs[S]),
            B.Kind == BehaviorKind::InputDependent && Ref.parameterBit(S));
        IsBiased[S] = std::max(Rate, 1.0 - Rate) >= 0.99;
        if (IsBiased[S])
          BiasedW += Execs[S];
        break;
      }
      }
      ChangingContribution += ExploitFrac * Execs[S];
    }
    const double OtherW = TotalW - BiasedW;
    // Subtract only half the changing sites' reactive yield: the paper's
    // "% spec" is simultaneously the self-training knee (which excludes
    // changing sites) and the reactive result (which includes them), so
    // splitting the correction keeps both within a few points.
    double Target =
        std::max(0.05, Profile.PaperSpecShare -
                           0.5 * ChangingContribution /
                               std::max(TotalW, 1.0));
    // The first 10k executions of every pool site are burned in the
    // monitor state; inflate the pool so the *speculated* share (not the
    // raw share) hits the target.
    uint32_t PoolSites = 0;
    for (uint32_t S = 0; S < Touch; ++S)
      PoolSites += IsBiased[S];
    const double Burn = std::min(
        0.5, 10000.0 * PoolSites / std::max(Target * TotalW, 1.0));
    Target = std::min(0.92, Target / (1.0 - Burn));
    if (BiasedW > 0.0 && OtherW > 0.0 && Target < 1.0) {
      const double Alpha = Target * OtherW / ((1.0 - Target) * BiasedW);
      for (uint32_t S = 0; S < Touch; ++S)
        if (IsBiased[S])
          Spec.Sites[S].Weight *= Alpha;
    }
  }

  // A final floors pass so the last calibration round cannot dilute the
  // changing sites back below their classification floors (the small
  // weight it adds is within the calibration tolerance).
  ApplyFloors(/*AssignParams=*/false);

  // ---- Clamp change points to the final execution counts -----------------
  {
    const std::vector<double> Execs = Spec.expectedSiteExecs(Ref);
    for (uint32_t S : FlipIdx) {
      BehaviorSpec &B = Spec.Sites[S].Behavior;
      if (Execs[S] < 16.0e3)
        continue; // cannot be classified before changing; stays benign
      const uint64_t Floor = Execs[S] > 40.0e3 ? 20000 : 12000;
      B.ChangeAt = std::max<uint64_t>(
          std::min<uint64_t>(B.ChangeAt,
                             static_cast<uint64_t>(Execs[S] * 0.7)),
          Floor);
    }
    for (uint32_t S : PeriodicIdx) {
      BehaviorSpec &B = Spec.Sites[S].Behavior;
      B.Period = std::max<uint64_t>(
          std::min<uint64_t>(B.Period,
                             static_cast<uint64_t>(Execs[S] / 3.0) + 1),
          20000);
    }
  }

  return Spec;
}

WorkloadSpec workload::makeBenchmark(const std::string &Name,
                                     const SuiteScale &Scale) {
  return makeBenchmark(profileByName(Name), Scale);
}

std::vector<WorkloadSpec> workload::makeSuite(const SuiteScale &Scale) {
  std::vector<WorkloadSpec> Suite;
  Suite.reserve(suiteProfiles().size());
  for (const BenchmarkProfile &P : suiteProfiles())
    Suite.push_back(makeBenchmark(P, Scale));
  return Suite;
}

SynthSpec workload::makeSynthSpecFor(const BenchmarkProfile &Profile,
                                     uint64_t Iterations) {
  SynthSpec Spec;
  Spec.Name = Profile.Name;
  Spec.Seed = nameSeed(Profile.Name) ^ 0x4D535350ull; // "MSSP"
  Spec.Iterations = Iterations;
  Rng R(Spec.Seed);

  constexpr unsigned NumRegions = 4;
  constexpr unsigned SitesPerRegion = 4;
  constexpr unsigned TotalSites = NumRegions * SitesPerRegion;

  // Site mix mirroring the benchmark's character.
  const unsigned Biased = static_cast<unsigned>(std::lround(
      std::min(0.9, Profile.PaperSpecShare * 1.15) * TotalSites));
  const unsigned Flips = std::max<unsigned>(
      1, static_cast<unsigned>(std::lround(
             4.0 * Profile.PaperEvictStatics / Profile.PaperTouch /
             0.05)));
  const unsigned Periodic = Profile.PeriodicRichness > 0.5 ? 1 : 0;
  const unsigned ValueChecks = 2;

  // Category per site index, shuffled.
  std::vector<unsigned> Order(TotalSites);
  for (unsigned I = 0; I < TotalSites; ++I)
    Order[I] = I;
  for (unsigned I = TotalSites; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);

  enum Category { CBiased, CFlip, CPeriodic, CValue, CModerate };
  std::vector<Category> Cat(TotalSites, CModerate);
  unsigned Cursor = 0;
  auto Assign = [&](Category C, unsigned Count) {
    for (unsigned I = 0; I < Count && Cursor < TotalSites; ++I)
      Cat[Order[Cursor++]] = C;
  };
  Assign(CFlip, std::min(Flips, 3u));
  Assign(CPeriodic, Periodic);
  Assign(CValue, ValueChecks);
  Assign(CBiased, Biased > Cursor ? Biased - Cursor : 1);

  const double CallShare = 1.0 / NumRegions;
  unsigned SiteIdx = 0;
  for (unsigned Reg = 0; Reg < NumRegions; ++Reg) {
    SynthRegion Region;
    Region.Name = Profile.Name + ".region" + std::to_string(Reg);
    Region.Weight = 0.7 + 0.6 * R.nextDouble();
    for (unsigned SI = 0; SI < SitesPerRegion; ++SI, ++SiteIdx) {
      SynthSite Site;
      Site.FillerThen = 1 + static_cast<unsigned>(R.nextBelow(3));
      Site.FillerElse = 1 + static_cast<unsigned>(R.nextBelow(3));
      const bool Dir = R.nextBool(0.5);
      const double High = takenProb(Dir, 0.9990 + 0.0009 * R.nextDouble());
      const double SiteExecs = Iterations * CallShare;
      switch (Cat[SiteIdx]) {
      case CBiased:
        Site.Behavior = BehaviorSpec::fixed(High);
        break;
      case CFlip: {
        // Change points land beyond the 10k-execution monitor window so
        // the long-monitor configurations still face re-classification
        // (Fig. 7's O/C gap).
        const uint64_t At = static_cast<uint64_t>(
            SiteExecs * (0.55 + 0.25 * R.nextDouble()));
        Site.Behavior = BehaviorSpec::flipAt(
            High, drawPostChangeProb(Dir, R), std::max<uint64_t>(At, 2000));
        break;
      }
      case CPeriodic: {
        const uint64_t Period =
            std::max<uint64_t>(static_cast<uint64_t>(SiteExecs / 4), 4000);
        Site.Behavior =
            BehaviorSpec::periodic(High, takenProb(Dir, 0.002), Period);
        break;
      }
      case CValue:
        Site.UseValueCheck = true;
        Site.Behavior = BehaviorSpec::fixed(Dir ? 0.999 : 0.001);
        Site.ValueInvariance = 0.999;
        break;
      case CModerate:
        Site.Behavior = BehaviorSpec::fixed(
            takenProb(Dir, 0.55 + 0.40 * R.nextDouble()));
        break;
      }
      Region.Sites.push_back(Site);
    }
    Spec.Regions.push_back(Region);
  }
  return Spec;
}
