//===- tests/oracle/FsmSpecTest.cpp ---------------------------------------===//
//
// core::ReactiveController against the executable FSM spec (FsmSpec.h):
// every verdict and the final ControlStats -- the per-site vectors with
// their lengths, and Fig. 6's transition records in order -- must agree
// for every scaled configuration (core/ScaledVariants.h) over seeded
// random multi-site streams with bias flips, the oscillation pump, and
// the suite's ref and train streams.
//
// FsmSpecTest.* is the ~10^6-event subset in the fast label, which the
// sanitizer legs run; the FsmSpecSoak shards (~1.5 * 10^8 events) and the
// suite streams run in tier-1.  `ctest -R fsm_spec` runs all of them.
//
//===----------------------------------------------------------------------===//

#include "FsmSpec.h"

#include "../core/ScaledVariants.h"

#include "core/ReactiveController.h"
#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::oracle;
using namespace specctrl::workload;

namespace {

/// SplitMix64: the random streams' own generator, so they do not move
/// when the workload layer's generators change.
struct SplitMix {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// A bias for one random site: half lean nearly always one way (above
/// every selection threshold), a fifth are mildly biased (0.97-0.995,
/// near the threshold), the rest anywhere.
double drawBias(SplitMix &Rng) {
  const double Kind = Rng.unit();
  const double Lean = Kind < 0.5    ? 0.998 + 0.002 * Rng.unit()
                      : Kind < 0.7 ? 0.97 + 0.025 * Rng.unit()
                                   : Rng.unit();
  return Rng.unit() < 0.5 ? Lean : 1.0 - Lean;
}

/// A seeded stream of \p Events branches over \p Sites sites whose ids are
/// three apart, so the per-site vectors keep untouched entries.  Low site
/// indices run far more often than high ones.  About every 2000 events one
/// site's bias flips direction or is redrawn, so sites are selected,
/// evicted, revisited and selected again.  Branches are 1-16 dynamic
/// instructions apart.
std::vector<BranchEvent> randomStream(uint64_t Seed, size_t Events,
                                      uint32_t Sites) {
  SplitMix Rng{Seed};
  std::vector<double> TakenBias(Sites);
  for (double &B : TakenBias)
    B = drawBias(Rng);
  std::vector<BranchEvent> Out(Events);
  uint64_t InstRet = 0;
  for (BranchEvent &E : Out) {
    if (Rng.next() % 2000 == 0) {
      double &B = TakenBias[Rng.next() % Sites];
      B = Rng.unit() < 0.5 ? 1.0 - B : drawBias(Rng);
    }
    const double U = Rng.unit();
    const uint32_t Index = static_cast<uint32_t>(U * U * Sites);
    const uint16_t Gap = static_cast<uint16_t>(Rng.next() % 16);
    InstRet += 1 + Gap;
    E.Site = 3 * Index;
    E.Taken = Rng.unit() < TakenBias[Index];
    E.Gap = Gap;
    E.InstRet = InstRet;
  }
  return Out;
}

std::vector<BranchEvent> drain(const WorkloadSpec &Spec,
                               const InputConfig &Input) {
  TraceGenerator Gen(Spec, Input);
  std::vector<BranchEvent> Out;
  BranchEvent E;
  while (Gen.next(E))
    Out.push_back(E);
  return Out;
}

template <typename T>
void diffVector(std::ostream &OS, const char *Name, const std::vector<T> &A,
                const std::vector<T> &B) {
  if (A.size() != B.size()) {
    OS << ' ' << Name << " length " << A.size() << " vs " << B.size();
    return;
  }
  const auto Mismatch = std::mismatch(A.begin(), A.end(), B.begin());
  if (Mismatch.first != A.end())
    OS << ' ' << Name << " differ first at " << (Mismatch.first - A.begin());
}

/// The fields in which \p Got differs from \p Want, for failure messages.
std::string statsDiff(const ControlStats &Got, const ControlStats &Want) {
  std::ostringstream OS;
  const auto Scalar = [&](const char *Name, uint64_t G, uint64_t W) {
    if (G != W)
      OS << ' ' << Name << ' ' << G << " vs " << W;
  };
  Scalar("Branches", Got.Branches, Want.Branches);
  Scalar("LastInstRet", Got.LastInstRet, Want.LastInstRet);
  Scalar("CorrectSpecs", Got.CorrectSpecs, Want.CorrectSpecs);
  Scalar("IncorrectSpecs", Got.IncorrectSpecs, Want.IncorrectSpecs);
  Scalar("DeployRequests", Got.DeployRequests, Want.DeployRequests);
  Scalar("RevokeRequests", Got.RevokeRequests, Want.RevokeRequests);
  Scalar("SuppressedRequests", Got.SuppressedRequests,
         Want.SuppressedRequests);
  Scalar("Evictions", Got.Evictions, Want.Evictions);
  Scalar("Revisits", Got.Revisits, Want.Revisits);
  Scalar("EventsConsumed", Got.EventsConsumed, Want.EventsConsumed);
  diffVector(OS, "Touched", Got.Touched, Want.Touched);
  diffVector(OS, "EverBiased", Got.EverBiased, Want.EverBiased);
  diffVector(OS, "SiteEvictions", Got.SiteEvictions, Want.SiteEvictions);
  diffVector(OS, "Transitions", Got.Transitions, Want.Transitions);
  return OS.str();
}

/// Feeds \p Events to a controller under \p V -- through onBatch in chunks
/// of \p Chunk, or through onBranch when \p Chunk is 0 -- and to the spec,
/// and requires every verdict and the final stats to agree.  Returns the
/// spec's stats.
ControlStats expectAgreement(const scaled::NamedConfig &V,
                             std::span<const BranchEvent> Events,
                             size_t Chunk, const std::string &Stream) {
  const std::string Where =
      V.Name + "/" + Stream + " chunk=" + std::to_string(Chunk);
  ReactiveController C(V.Config);
  FsmSpec Spec(V.Config);
  std::vector<BranchVerdict> Verdicts(std::max<size_t>(Chunk, 1));
  size_t Disagreements = 0, First = 0;
  for (size_t Begin = 0; Begin < Events.size();) {
    const size_t N = Chunk ? std::min(Chunk, Events.size() - Begin) : 1;
    const std::span<const BranchEvent> Slice = Events.subspan(Begin, N);
    if (Chunk)
      C.onBatch(Slice, Verdicts.data());
    else
      Verdicts[0] = C.onBranch(Slice[0].Site, Slice[0].Taken,
                               Slice[0].InstRet);
    for (size_t I = 0; I < N; ++I) {
      const BranchEvent &E = Slice[I];
      const BranchVerdict Want = Spec.step(E.Site, E.Taken, E.InstRet);
      if (Verdicts[I].Speculated != Want.Speculated ||
          Verdicts[I].Correct != Want.Correct) {
        if (Disagreements++ == 0)
          First = Begin + I;
      }
    }
    Begin += N;
  }
  EXPECT_EQ(Disagreements, 0u)
      << Where << ": verdicts differ first at event " << First;
  EXPECT_TRUE(C.stats() == Spec.stats())
      << Where << ": stats differ:" << statsDiff(C.stats(), Spec.stats());
  return Spec.stats();
}

/// Adds the activity of \p S to \p Total.
void accumulate(ControlStats &Total, const ControlStats &S) {
  Total.CorrectSpecs += S.CorrectSpecs;
  Total.DeployRequests += S.DeployRequests;
  Total.SuppressedRequests += S.SuppressedRequests;
  Total.Evictions += S.Evictions;
  Total.Revisits += S.Revisits;
  Total.Transitions.insert(Total.Transitions.end(), S.Transitions.begin(),
                           S.Transitions.end());
}

/// Requires \p Total, the activity of variant \p V over its streams, to
/// have exercised every arc its config enables.
void expectEveryArc(const scaled::NamedConfig &V, const ControlStats &Total) {
  EXPECT_GT(Total.DeployRequests, 0u) << V.Name;
  EXPECT_GT(Total.CorrectSpecs, 0u) << V.Name;
  if (V.Config.EnableEviction) {
    EXPECT_GT(Total.Evictions, 0u) << V.Name;
    EXPECT_FALSE(Total.Transitions.empty()) << V.Name;
  }
  if (V.Config.EnableRevisit) {
    EXPECT_GT(Total.Revisits, 0u) << V.Name;
  }
}

std::vector<std::string> suiteNames() {
  std::vector<std::string> Names;
  for (const BenchmarkProfile &P : suiteProfiles())
    Names.push_back(P.Name);
  return Names;
}

} // namespace

// ---- Fast: ~10^6 events --------------------------------------------------

TEST(FsmSpecTest, RandomStreamsAndPumpAgree) {
  const std::vector<BranchEvent> A = randomStream(1, 1 << 14, 48);
  const std::vector<BranchEvent> B = randomStream(2, 1 << 14, 48);
  const WorkloadSpec Pump = scaled::scaledPump(80000);
  const std::vector<BranchEvent> Pumped = drain(Pump, Pump.refInput());
  uint64_t Suppressed = 0;
  for (const scaled::NamedConfig &V : scaled::variants()) {
    ControlStats Total;
    accumulate(Total, expectAgreement(V, A, DefaultBatchEvents, "random-1"));
    accumulate(Total, expectAgreement(V, B, 0, "random-2"));
    accumulate(Total, expectAgreement(V, Pumped, 257, Pump.Name));
    expectEveryArc(V, Total);
    if (V.Config.OscillationLimit == 0) {
      EXPECT_EQ(Total.SuppressedRequests, 0u) << V.Name;
    }
    Suppressed += Total.SuppressedRequests;
  }
  // The pump exists to reach the oscillation cap.
  EXPECT_GT(Suppressed, 0u);
}

// ---- Tier-1: ~1.5 * 10^8 events in 16 shards, and the suite ------------

class FsmSpecSoak : public ::testing::TestWithParam<int> {};

TEST_P(FsmSpecSoak, RandomStreamAgrees) {
  const uint64_t Seed = 1000 + static_cast<uint64_t>(GetParam());
  const std::vector<BranchEvent> Events = randomStream(Seed, 1 << 20, 96);
  for (const scaled::NamedConfig &V : scaled::variants())
    expectEveryArc(V, expectAgreement(V, Events, DefaultBatchEvents,
                                      "random-" + std::to_string(Seed)));
}

INSTANTIATE_TEST_SUITE_P(Shards, FsmSpecSoak, ::testing::Range(0, 16));

class FsmSpecSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(FsmSpecSuite, RefAndTrainAgree) {
  const WorkloadSpec Spec = makeBenchmark(GetParam(), scaled::TestScale);
  for (const InputConfig &Input : {Spec.refInput(), Spec.trainInput()}) {
    const std::vector<BranchEvent> Events = drain(Spec, Input);
    for (const scaled::NamedConfig &V : scaled::variants())
      expectAgreement(V, Events, DefaultBatchEvents,
                      Spec.Name + "/" + Input.Name);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, FsmSpecSuite,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto &Info) { return Info.param; });
