//===- tests/serve/RingBufferTest.cpp -------------------------------------===//
//
// The SPSC ingest ring under the interleavings that break lock-free
// queues: full/empty/wraparound edges single-threaded, producer-faster
// and consumer-faster two-thread runs checking FIFO order and event
// conservation, the close/drained handshake, and a whole-server soak
// (4 producers x 4 consumer shards) checking per-stream event-count
// conservation.  Built into the TSAN tree like engine ArenaRaceTest, so
// the memory-ordering claims in SpscRing.h are machine-checked.
//
//===----------------------------------------------------------------------===//

#include "ClientFleet.h"
#include "serve/StreamServer.h"
#include "workload/SpecSuite.h"
#include "workload/SpscRing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

using namespace specctrl;
using namespace specctrl::serve;
using namespace specctrl::workload;

namespace {

BranchEvent mk(uint64_t I) {
  BranchEvent E;
  E.Site = static_cast<SiteId>(I % 7);
  E.Taken = (I & 1) != 0;
  E.Gap = static_cast<uint32_t>(I % 13);
  E.Index = I;
  E.InstRet = I * 3 + 1;
  return E;
}

std::vector<BranchEvent> sequence(uint64_t Begin, uint64_t End) {
  std::vector<BranchEvent> Out;
  Out.reserve(static_cast<size_t>(End - Begin));
  for (uint64_t I = Begin; I < End; ++I)
    Out.push_back(mk(I));
  return Out;
}

} // namespace

TEST(RingBufferTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing(1).capacity(), 2u);
  EXPECT_EQ(SpscRing(2).capacity(), 2u);
  EXPECT_EQ(SpscRing(3).capacity(), 4u);
  EXPECT_EQ(SpscRing(4096).capacity(), 4096u);
  EXPECT_EQ(SpscRing(4097).capacity(), 8192u);
}

TEST(RingBufferTest, FullEmptyAndPartialPushEdges) {
  SpscRing Ring(4);
  ASSERT_EQ(Ring.capacity(), 4u);
  std::vector<BranchEvent> Out(8);

  // Empty: nothing to pop.
  EXPECT_EQ(Ring.pop(Out), 0u);

  // Oversized push accepts exactly the free prefix.
  const std::vector<BranchEvent> Six = sequence(0, 6);
  EXPECT_EQ(Ring.push(Six), 4u);
  EXPECT_EQ(Ring.push({Six.data() + 4, 2}), 0u) << "push into a full ring";
  EXPECT_EQ(Ring.sizeApprox(), 4u);

  // Pop two, and the freed slots accept the remainder (FIFO preserved).
  EXPECT_EQ(Ring.pop({Out.data(), 2}), 2u);
  EXPECT_EQ(Out[0], mk(0));
  EXPECT_EQ(Out[1], mk(1));
  EXPECT_EQ(Ring.push({Six.data() + 4, 2}), 2u);
  EXPECT_EQ(Ring.pop(Out), 4u);
  for (uint64_t I = 0; I < 4; ++I)
    EXPECT_EQ(Out[I], mk(2 + I));
  EXPECT_EQ(Ring.pop(Out), 0u);
}

TEST(RingBufferTest, WraparoundPreservesFifoOverManyLaps) {
  SpscRing Ring(8);
  uint64_t Pushed = 0, Popped = 0;
  std::vector<BranchEvent> Out(3);
  // Ragged push/pop sizes lap the buffer hundreds of times; every popped
  // event must carry the next expected index.
  while (Popped < 2000) {
    const std::vector<BranchEvent> In =
        sequence(Pushed, Pushed + 1 + (Pushed % 5));
    Pushed += Ring.push(In);
    const size_t N = Ring.pop({Out.data(), 1 + (Popped % 3)});
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Out[I], mk(Popped + I));
    Popped += N;
  }
}

TEST(RingBufferTest, CloseDrainedHandshake) {
  SpscRing Ring(8);
  const std::vector<BranchEvent> In = sequence(0, 3);
  ASSERT_EQ(Ring.push(In), 3u);
  EXPECT_FALSE(Ring.closed());
  EXPECT_FALSE(Ring.drained()) << "drained before close";
  Ring.close();
  EXPECT_TRUE(Ring.closed());
  EXPECT_FALSE(Ring.drained()) << "drained with events still queued";
  std::vector<BranchEvent> Out(8);
  EXPECT_EQ(Ring.pop(Out), 3u);
  EXPECT_TRUE(Ring.drained());
  EXPECT_EQ(Ring.pushedApprox(), 3u);
}

namespace {

/// Two-thread FIFO conservation run: the producer pushes [0, Total) with
/// the given per-call batch, the consumer pops with its own batch; the
/// slower side optionally yields every call.  The consumer asserts the
/// exact sequence.
void runPair(uint32_t RingEvents, uint64_t Total, size_t PushBatch,
             size_t PopBatch, bool SlowProducer, bool SlowConsumer) {
  SpscRing Ring(RingEvents);
  std::thread Producer([&] {
    uint64_t Next = 0;
    while (Next < Total) {
      const uint64_t End = std::min(Total, Next + PushBatch);
      const std::vector<BranchEvent> In = sequence(Next, End);
      size_t Pos = 0;
      while (Pos < In.size()) {
        const size_t N = Ring.push({In.data() + Pos, In.size() - Pos});
        if (N == 0)
          std::this_thread::yield();
        Pos += N;
      }
      Next = End;
      if (SlowProducer)
        std::this_thread::yield();
    }
    Ring.close();
  });

  uint64_t Seen = 0;
  std::vector<BranchEvent> Out(PopBatch);
  while (!Ring.drained()) {
    const size_t N = Ring.pop(Out);
    if (N == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Out[I], mk(Seen + I)) << "event " << Seen + I;
    Seen += N;
    if (SlowConsumer)
      std::this_thread::yield();
  }
  Producer.join();
  EXPECT_EQ(Seen, Total) << "events lost or duplicated";
  EXPECT_EQ(Ring.pushedApprox(), Total);
}

} // namespace

TEST(RingBufferTest, ProducerFasterThanConsumer) {
  runPair(/*RingEvents=*/64, /*Total=*/100000, /*PushBatch=*/97,
          /*PopBatch=*/5, /*SlowProducer=*/false, /*SlowConsumer=*/true);
}

TEST(RingBufferTest, ConsumerFasterThanProducer) {
  runPair(/*RingEvents=*/64, /*Total=*/100000, /*PushBatch=*/3,
          /*PopBatch=*/256, /*SlowProducer=*/true, /*SlowConsumer=*/false);
}

TEST(RingBufferTest, TinyRingMaximalContention) {
  runPair(/*RingEvents=*/2, /*Total=*/20000, /*PushBatch=*/7,
          /*PopBatch=*/4, /*SlowProducer=*/false, /*SlowConsumer=*/false);
}

TEST(RingBufferTest, ServerSoakConservesPerStreamEventCounts) {
  // 4 producer threads x 4 consumer shards, 12 concurrent streams over
  // real workload traces: every stream must finish having fed its
  // controller exactly the events its trace contains, independent of the
  // interleaving.  (Run under TSAN this is the serve layer's end-to-end
  // race check.)
  constexpr SuiteScale SoakScale{1.5e3, 0.1};
  TraceArena Arena;

  std::vector<WorkloadSpec> Specs;
  for (const BenchmarkProfile &P : suiteProfiles())
    Specs.push_back(makeBenchmark(P, SoakScale));

  ServeConfig Config;
  Config.Consumers = 4;
  Config.EpochEvents = 256;
  Config.RingEvents = 512; // small: constant backpressure
  StreamServer Server(Config);

  std::vector<ClientSpec> Clients;
  std::vector<uint64_t> WantEvents;
  for (const WorkloadSpec &Spec : Specs) {
    ClientSpec Client;
    Client.Spec = &Spec;
    Client.Input = Spec.refInput();
    Client.Control = core::ReactiveConfig::baseline();
    Client.BatchEvents = 257;
    Clients.push_back(Client);
    WantEvents.push_back(Spec.refInput().Events);
  }

  const FleetResult Fleet =
      driveFleet(Server, Clients, /*ProducerThreads=*/4, &Arena);
  ASSERT_EQ(Fleet.Streams.size(), Clients.size());

  uint64_t Total = 0;
  for (size_t I = 0; I < Fleet.Streams.size(); ++I) {
    const core::ControlStats &S = Server.streamStats(Fleet.Streams[I]);
    EXPECT_EQ(S.EventsConsumed, WantEvents[I])
        << Specs[I].Name << ": events lost or duplicated in flight";
    EXPECT_EQ(S.Branches, WantEvents[I]);
    EXPECT_EQ(Server.processed(Fleet.Streams[I]), WantEvents[I]);
    Total += WantEvents[I];
  }
  EXPECT_EQ(Fleet.EventsProduced, Total);
  EXPECT_EQ(Server.metrics().EventsIngested, Total);
}
