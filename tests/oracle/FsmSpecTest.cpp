//===- tests/oracle/FsmSpecTest.cpp ---------------------------------------===//
//
// core::ReactiveController against the executable FSM spec (FsmSpec.h):
// every verdict and the final ControlStats -- the per-site vectors with
// their lengths, and Fig. 6's transition records in order -- must agree
// for every scaled configuration (core/ScaledVariants.h) over seeded
// random multi-site streams with bias flips, the oscillation pump, and
// the suite's ref and train streams.
//
// The same holds in the mode MSSP runs the controller in, with a request
// sink: under those configurations and fig7's four control columns, a
// sink that completes requests at later chunk boundaries (some inside
// onRequest) receives the same requests from both, the controller fed in
// chunks of one, of 50-300 events (a task's worth) and of 4096.
//
// FsmSpecTest.* is the ~10^7-event subset in the fast label, which the
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
#include <functional>
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
/// indices run far more often than high ones.  About every \p FlipPeriod
/// events one site's bias flips direction or is redrawn, so sites are selected,
/// evicted, revisited and selected again.  Branches are 1-16 dynamic
/// instructions apart.
std::vector<BranchEvent> randomStream(uint64_t Seed, size_t Events,
                                      uint32_t Sites,
                                      uint64_t FlipPeriod = 2000) {
  SplitMix Rng{Seed};
  std::vector<double> TakenBias(Sites);
  for (double &B : TakenBias)
    B = drawBias(Rng);
  std::vector<BranchEvent> Out(Events);
  uint64_t InstRet = 0;
  for (BranchEvent &E : Out) {
    if (Rng.next() % FlipPeriod == 0) {
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

/// fig7's four control columns (bench/fig7_mssp_reactivity.cpp): open and
/// closed loop at 1k and 10k monitor periods, with its short-run eviction
/// saturation and wait period.  MSSP ignores OptLatency.
std::vector<scaled::NamedConfig> fig7Controls() {
  std::vector<scaled::NamedConfig> Out;
  for (const uint64_t Monitor : {1000u, 10000u}) {
    for (const bool Eviction : {false, true}) {
      ReactiveConfig C;
      C.MonitorPeriod = Monitor;
      C.EnableEviction = Eviction;
      C.EvictSaturation = 2000;
      C.WaitPeriod = 100000;
      Out.push_back({std::string(Eviction ? "closed-" : "open-") +
                         (Monitor == 1000 ? "1k" : "10k"),
                     C});
    }
  }
  return Out;
}

/// One request as a sink received it.  Chunk is the first event of the
/// chunk it arrived in: the requesting event itself at chunks of one.
struct LoggedRequest {
  OptRequestKind Kind;
  uint32_t Site;
  bool Direction;
  size_t Chunk;
  bool operator==(const LoggedRequest &) const = default;
};

/// The optimizer as MSSP drives it: a request for a site whose id is a
/// multiple of five completes inside onRequest, as MSSP completes its
/// control sites' requests; every other completes at the first, second or
/// third chunk boundary after it (by arrival order), as MSSP completes
/// requests at a later task's start.  Completions go to \p Target's
/// completeRequest, in arrival order.
template <class TargetT> class ScheduledSink : public OptRequestSink {
public:
  explicit ScheduledSink(TargetT &Target) : Target(Target) {}

  void onRequest(const OptRequest &Request) override {
    Log.push_back(
        {Request.Kind, Request.Site, Request.Direction, ChunkStart});
    if (Request.Site % 5 == 0) {
      ++Synchronous;
      Target.completeRequest(Request.Site);
      return;
    }
    Queue.push_back({Request.Site, Boundaries + 1 + Log.size() % 3});
  }

  /// A chunk ended: completes every queued request now due.
  void boundary() {
    ++Boundaries;
    size_t Kept = 0;
    for (size_t I = 0; I < Queue.size(); ++I) {
      if (Queue[I].Due <= Boundaries) {
        ++Deferred;
        Target.completeRequest(Queue[I].Site);
      } else {
        Queue[Kept++] = Queue[I];
      }
    }
    Queue.resize(Kept);
  }

  size_t ChunkStart = 0;
  std::vector<LoggedRequest> Log;
  uint64_t Synchronous = 0, Deferred = 0;

private:
  struct Queued {
    uint32_t Site;
    size_t Due;
  };
  TargetT &Target;
  std::vector<Queued> Queue;
  size_t Boundaries = 0;
};

/// What one sink-mode comparison exercised.
struct SinkActivity {
  ControlStats Stats;
  uint64_t Synchronous = 0, Deferred = 0;
};

/// Feeds \p Events, with a ScheduledSink on each side, to a controller in
/// chunks whose sizes \p NextChunk draws and to the spec one event at a
/// time; both sinks see the same chunk boundaries.  Requires identical
/// request logs, verdicts and final stats.
SinkActivity expectSinkAgreement(const scaled::NamedConfig &V,
                                 std::span<const BranchEvent> Events,
                                 const std::function<size_t()> &NextChunk,
                                 const std::string &Where) {
  ReactiveController C(V.Config);
  FsmSpec Spec(V.Config);
  ScheduledSink<ReactiveController> CSink(C);
  ScheduledSink<FsmSpec> SpecSink(Spec);
  C.setRequestSink(&CSink);
  Spec.setRequestSink(&SpecSink);
  std::vector<BranchVerdict> Verdicts;
  size_t Disagreements = 0, First = 0;
  for (size_t Begin = 0; Begin < Events.size();) {
    const size_t N = std::min(NextChunk(), Events.size() - Begin);
    const std::span<const BranchEvent> Slice = Events.subspan(Begin, N);
    Verdicts.resize(N);
    CSink.ChunkStart = SpecSink.ChunkStart = Begin;
    C.onBatch(Slice, Verdicts.data());
    for (size_t I = 0; I < N; ++I) {
      const BranchEvent &E = Slice[I];
      const BranchVerdict Want = Spec.step(E.Site, E.Taken, E.InstRet);
      if (Verdicts[I].Speculated != Want.Speculated ||
          Verdicts[I].Correct != Want.Correct) {
        if (Disagreements++ == 0)
          First = Begin + I;
      }
    }
    CSink.boundary();
    SpecSink.boundary();
    Begin += N;
  }
  EXPECT_EQ(Disagreements, 0u)
      << Where << ": verdicts differ first at event " << First;
  const auto Mismatch = std::mismatch(CSink.Log.begin(), CSink.Log.end(),
                                      SpecSink.Log.begin(),
                                      SpecSink.Log.end());
  EXPECT_TRUE(Mismatch.first == CSink.Log.end() &&
              Mismatch.second == SpecSink.Log.end())
      << Where << ": " << CSink.Log.size() << " vs " << SpecSink.Log.size()
      << " requests, differing first at request "
      << (Mismatch.first - CSink.Log.begin());
  EXPECT_TRUE(C.stats() == Spec.stats())
      << Where << ": stats differ:" << statsDiff(C.stats(), Spec.stats());
  return {Spec.stats(), SpecSink.Synchronous, SpecSink.Deferred};
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

TEST(FsmSpecTest, RequestSinkAgreesAtTaskSizedChunks) {
  const std::vector<BranchEvent> Random = randomStream(3, 1 << 17, 24);
  const WorkloadSpec Pump = scaled::scaledPump(80000);
  const std::vector<BranchEvent> Pumped = drain(Pump, Pump.refInput());
  // fig7's 1k and 10k monitor periods need sites that run tens of
  // thousands of times between bias flips.
  const std::vector<BranchEvent> Steady = randomStream(4, 1 << 18, 8, 20000);
  using Stream = std::pair<std::string, std::span<const BranchEvent>>;
  const std::vector<Stream> Scaled = {{"random-3", Random},
                                      {Pump.Name, Pumped}};
  const std::vector<Stream> Fig7 = {{"steady-4", Steady}};
  std::vector<std::pair<scaled::NamedConfig, const std::vector<Stream> *>>
      Configs;
  for (scaled::NamedConfig &V : scaled::variants())
    Configs.push_back({std::move(V), &Scaled});
  for (scaled::NamedConfig &V : fig7Controls())
    Configs.push_back({std::move(V), &Fig7});

  for (const auto &[V, Streams] : Configs) {
    SplitMix Rng{7};
    const std::pair<const char *, std::function<size_t()>> Chunkings[] = {
        {"1", [] { return size_t{1}; }},
        {"50-300",
         [&Rng] { return static_cast<size_t>(50 + Rng.next() % 251); }},
        {"4096", [] { return size_t{4096}; }},
    };
    ControlStats Total;
    uint64_t Synchronous = 0, Deferred = 0;
    for (const auto &[Name, NextChunk] : Chunkings) {
      for (const auto &[StreamName, Events] : *Streams) {
        const SinkActivity A = expectSinkAgreement(
            V, Events, NextChunk,
            V.Name + "/" + StreamName + " sink chunks=" + Name);
        accumulate(Total, A.Stats);
        Synchronous += A.Synchronous;
        Deferred += A.Deferred;
      }
    }
    // Both completion paths and the arcs the config enables ran.
    EXPECT_GT(Synchronous, 0u) << V.Name;
    EXPECT_GT(Deferred, 0u) << V.Name;
    EXPECT_GT(Total.DeployRequests, 0u) << V.Name;
    if (V.Config.EnableEviction) {
      EXPECT_GT(Total.Evictions, 0u) << V.Name;
    }
  }
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
