//===- tests/serve/ServeEquivalenceTest.cpp -------------------------------===//
//
// The serve layer's correctness bar: every stream hosted by a live
// StreamServer -- events arriving through lock-free rings, read in place
// by consumer shards in chunks cut at epoch boundaries and ring wrap
// points -- finishes with ControlStats byte-identical to batch
// core::runTrace over the same trace.  Exercised over the full
// twelve-benchmark paper suite on both inputs, at one and four consumer
// threads, with the default producer batch and a deliberately odd one
// (partial pushes, ragged ring occupancy), and with an epoch that does
// not divide the ring.
//
// `ctest -R serve_equivalence` is the stable handle for this suite (see
// tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "ClientFleet.h"
#include "serve/StreamServer.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"

#include <gtest/gtest.h>

#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::serve;
using namespace specctrl::workload;

namespace {

/// Same scale as core BatchEquivalenceTest: seconds for the whole sweep,
/// yet large enough for classification, deployment, and eviction.
constexpr SuiteScale TestScale{3.0e3, 0.1};

/// One server and producer configuration of the live runs.
struct Shape {
  uint64_t EpochEvents;
  uint32_t RingEvents;
  size_t Batch; ///< producer-side staging batch
};

/// A small epoch and ring so boundary-capped drains and producer
/// backpressure both happen many times per stream, fed with the pipeline
/// default batch and with an odd one so ring pushes are ragged and partial
/// pushes occur; then an epoch that does not divide the ring, so one
/// service pass splits at both wrap points and epoch boundaries.
constexpr Shape TestShapes[] = {
    {1024, 2048, workload::DefaultBatchEvents},
    {1024, 2048, 257},
    {1000, 1024, workload::DefaultBatchEvents},
};

ReactiveConfig scaledConfig() {
  ReactiveConfig C = ReactiveConfig::baseline();
  C.MonitorPeriod = 100;
  C.WaitPeriod = 2000;
  C.OptLatency = 0;
  return C;
}

} // namespace

TEST(ServeEquivalenceTest, LiveStreamsMatchBatchAcrossSuiteAndShards) {
  TraceArena Arena;

  // Batch oracle: one runTrace per (benchmark, input), arena-backed so
  // the live runs below replay the identical event stream.
  std::vector<WorkloadSpec> Specs;
  Specs.reserve(12);
  std::vector<InputConfig> Inputs;
  std::vector<ControlStats> Reference;
  std::vector<const WorkloadSpec *> SpecOf;
  for (const BenchmarkProfile &P : suiteProfiles()) {
    Specs.push_back(makeBenchmark(P, TestScale));
  }
  for (const WorkloadSpec &Spec : Specs) {
    for (const InputConfig &Input : {Spec.refInput(), Spec.trainInput()}) {
      ReactiveController C(scaledConfig());
      runTrace(C, *Arena.open(Spec, Input));
      Reference.push_back(C.stats());
      Inputs.push_back(Input);
      SpecOf.push_back(&Spec);
    }
  }
  ASSERT_EQ(Reference.size(), 24u);

  uint64_t NonTrivialRuns = 0;
  for (const unsigned Consumers : {1u, 4u}) {
    for (const Shape &Sh : TestShapes) {
      ServeConfig Config;
      Config.Consumers = Consumers;
      Config.EpochEvents = Sh.EpochEvents;
      Config.RingEvents = Sh.RingEvents;
      StreamServer Server(Config);

      // All 24 runs live in the server concurrently: the multi-tenant
      // case, with streams interleaving inside every consumer shard.
      std::vector<ClientSpec> Clients;
      for (size_t I = 0; I < Reference.size(); ++I) {
        ClientSpec Client;
        Client.Spec = SpecOf[I];
        Client.Input = Inputs[I];
        Client.Control = scaledConfig();
        Client.BatchEvents = Sh.Batch;
        Clients.push_back(Client);
      }
      const FleetResult Fleet = driveFleet(Server, Clients,
                                           /*ProducerThreads=*/2, &Arena);
      ASSERT_EQ(Fleet.Streams.size(), Reference.size());

      uint64_t ExpectedEvents = 0;
      for (size_t I = 0; I < Reference.size(); ++I) {
        EXPECT_EQ(Server.streamStats(Fleet.Streams[I]), Reference[I])
            << SpecOf[I]->Name << "/" << Inputs[I].Name
            << " consumers=" << Consumers << " epoch=" << Sh.EpochEvents
            << " ring=" << Sh.RingEvents << " batch=" << Sh.Batch;
        EXPECT_EQ(Server.processed(Fleet.Streams[I]),
                  Reference[I].EventsConsumed);
        ExpectedEvents += Reference[I].EventsConsumed;
        if (Reference[I].DeployRequests > 0)
          ++NonTrivialRuns;
      }
      EXPECT_EQ(Fleet.EventsProduced, ExpectedEvents);

      const ServeMetrics M = Server.metrics();
      EXPECT_EQ(M.StreamsOpened, Reference.size());
      EXPECT_EQ(M.StreamsFinished, Reference.size());
      EXPECT_EQ(M.EventsIngested, ExpectedEvents);
    }
  }
  // The property must be exercising real controller activity.
  EXPECT_GT(NonTrivialRuns, 0u);
}

TEST(ServeEquivalenceTest, GeneratorBackedClientsMatchArenaBackedClients) {
  // The fleet's non-arena path (private TraceGenerator per client) must
  // land on the same stats -- stream identity is source-independent.
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();

  ReactiveController C(scaledConfig());
  runWorkload(C, Spec, Input);
  const ControlStats Reference = C.stats();

  StreamServer Server;
  ClientSpec Client;
  Client.Spec = &Spec;
  Client.Input = Input;
  Client.Control = scaledConfig();
  const FleetResult Fleet =
      driveFleet(Server, {&Client, 1}, /*ProducerThreads=*/1, nullptr);
  ASSERT_EQ(Fleet.Streams.size(), 1u);
  EXPECT_EQ(Server.streamStats(Fleet.Streams[0]), Reference);
}
