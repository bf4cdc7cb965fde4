//===- tests/serve/RingBufferTest.cpp -------------------------------------===//
//
// The SPSC ingest ring under the interleavings that break lock-free
// queues: full/empty/wraparound edges and the in-place peek/consume
// contract single-threaded, producer-faster and consumer-faster
// two-thread runs checking FIFO order and event conservation on slots
// the consumer still holds, the close/drained handshake, and a
// whole-server soak
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
  E.Gap = static_cast<uint16_t>(I % 13);
  E.InstRet = I * 3 + 1; // unique per I, so a reordered event shows
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

/// Consumes everything queued, one peek at a time, and returns a copy.
std::vector<BranchEvent> drainAll(SpscRing &Ring) {
  std::vector<BranchEvent> Out;
  for (std::span<const BranchEvent> Got = Ring.peek(Ring.capacity());
       !Got.empty(); Got = Ring.peek(Ring.capacity())) {
    Out.insert(Out.end(), Got.begin(), Got.end());
    Ring.consume(Got.size());
  }
  return Out;
}

TEST(RingBufferTest, FullEmptyAndPartialPushEdges) {
  SpscRing Ring(4);
  ASSERT_EQ(Ring.capacity(), 4u);

  // Empty: nothing to peek.
  EXPECT_TRUE(Ring.peek(8).empty());

  // Oversized push accepts exactly the free prefix.
  const std::vector<BranchEvent> Six = sequence(0, 6);
  EXPECT_EQ(Ring.push(Six), 4u);
  EXPECT_EQ(Ring.push({Six.data() + 4, 2}), 0u) << "push into a full ring";
  EXPECT_EQ(Ring.sizeApprox(), 4u);

  // Consume two, and the freed slots accept the remainder (FIFO preserved).
  const std::span<const BranchEvent> Two = Ring.peek(2);
  ASSERT_EQ(Two.size(), 2u);
  EXPECT_EQ(Two[0], mk(0));
  EXPECT_EQ(Two[1], mk(1));
  Ring.consume(2);
  EXPECT_EQ(Ring.push({Six.data() + 4, 2}), 2u);
  EXPECT_EQ(drainAll(Ring), sequence(2, 6));
  EXPECT_TRUE(Ring.peek(8).empty());
}

TEST(RingBufferTest, PeekStopsAtWrapPointAndNextPeekReturnsRest) {
  SpscRing Ring(8);
  ASSERT_EQ(Ring.push(sequence(0, 6)), 6u);
  Ring.consume(Ring.peek(6).size()); // the read position is now slot 6
  ASSERT_EQ(Ring.push(sequence(6, 11)), 5u); // slots 6, 7, 0, 1, 2

  const std::span<const BranchEvent> Before = Ring.peek(8);
  ASSERT_EQ(Before.size(), 2u) << "peek ran past the wrap point";
  EXPECT_EQ(Before[0], mk(6));
  EXPECT_EQ(Before[1], mk(7));
  EXPECT_EQ(Ring.peek(8).data(), Before.data())
      << "a repeated peek moved without a consume";
  Ring.consume(Before.size());

  const std::span<const BranchEvent> After = Ring.peek(8);
  ASSERT_EQ(After.size(), 3u);
  EXPECT_EQ(After.data(), Before.data() - 6) << "not the ring's first slot";
  for (size_t I = 0; I < After.size(); ++I)
    EXPECT_EQ(After[I], mk(8 + I));
}

TEST(RingBufferTest, PushIntoRingHeldByUnconsumedPeekIsRejected) {
  SpscRing Ring(4);
  ASSERT_EQ(Ring.push(sequence(0, 4)), 4u);
  const std::span<const BranchEvent> Held = Ring.peek(4);
  ASSERT_EQ(Held.size(), 4u);
  const std::vector<BranchEvent> More = sequence(4, 5);
  EXPECT_EQ(Ring.push(More), 0u) << "push overwrote a peeked slot";
  for (size_t I = 0; I < Held.size(); ++I)
    EXPECT_EQ(Held[I], mk(I));
  Ring.consume(1);
  EXPECT_EQ(Ring.push(More), 1u) << "a consumed slot was not released";
}

TEST(RingBufferTest, ConsumingPartOfAPeekLeavesTheRestPeekable) {
  SpscRing Ring(8);
  ASSERT_EQ(Ring.push(sequence(0, 5)), 5u);
  const std::span<const BranchEvent> All = Ring.peek(8);
  ASSERT_EQ(All.size(), 5u);
  Ring.consume(2);
  const std::span<const BranchEvent> Rest = Ring.peek(8);
  ASSERT_EQ(Rest.size(), 3u);
  EXPECT_EQ(Rest.data(), All.data() + 2);
  for (size_t I = 0; I < Rest.size(); ++I)
    EXPECT_EQ(Rest[I], mk(2 + I));
  EXPECT_EQ(Ring.sizeApprox(), 3u);
}

TEST(RingBufferTest, WraparoundPreservesFifoOverManyLaps) {
  SpscRing Ring(8);
  uint64_t Pushed = 0, Consumed = 0;
  // Ragged push/peek sizes lap the buffer hundreds of times; every peeked
  // event must carry the next expected index.
  while (Consumed < 2000) {
    const std::vector<BranchEvent> In =
        sequence(Pushed, Pushed + 1 + (Pushed % 5));
    Pushed += Ring.push(In);
    const std::span<const BranchEvent> Got = Ring.peek(1 + (Consumed % 3));
    for (size_t I = 0; I < Got.size(); ++I)
      ASSERT_EQ(Got[I], mk(Consumed + I));
    Ring.consume(Got.size());
    Consumed += Got.size();
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
  EXPECT_EQ(Ring.peek(8).size(), 3u);
  EXPECT_FALSE(Ring.drained()) << "drained while a peek holds events";
  Ring.consume(3);
  EXPECT_TRUE(Ring.drained());
  EXPECT_EQ(Ring.pushedApprox(), 3u);
}

namespace {

/// Two-thread FIFO conservation run: the producer pushes [0, Total) with
/// the given per-call batch, the consumer peeks at most PeekMax events,
/// checks them in place, and consumes them; the slower side optionally
/// yields every call -- the consumer between peek and consume, while it
/// still holds the slots, so a producer writing a held slot is a race.
void runPair(uint32_t RingEvents, uint64_t Total, size_t PushBatch,
             size_t PeekMax, bool SlowProducer, bool SlowConsumer) {
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
  while (!Ring.drained()) {
    const std::span<const BranchEvent> Got = Ring.peek(PeekMax);
    if (Got.empty()) {
      std::this_thread::yield();
      continue;
    }
    // Holding the slots across a yield gives the producer every chance to
    // overwrite one; the check below would see it, and TSan flags it.
    if (SlowConsumer)
      std::this_thread::yield();
    for (size_t I = 0; I < Got.size(); ++I)
      ASSERT_EQ(Got[I], mk(Seen + I)) << "event " << Seen + I;
    Ring.consume(Got.size());
    Seen += Got.size();
  }
  Producer.join();
  EXPECT_EQ(Seen, Total) << "events lost or duplicated";
  EXPECT_EQ(Ring.pushedApprox(), Total);
}

} // namespace

TEST(RingBufferTest, ProducerFasterThanConsumer) {
  runPair(/*RingEvents=*/64, /*Total=*/100000, /*PushBatch=*/97,
          /*PeekMax=*/5, /*SlowProducer=*/false, /*SlowConsumer=*/true);
}

TEST(RingBufferTest, ConsumerFasterThanProducer) {
  runPair(/*RingEvents=*/64, /*Total=*/100000, /*PushBatch=*/3,
          /*PeekMax=*/256, /*SlowProducer=*/true, /*SlowConsumer=*/false);
}

TEST(RingBufferTest, TinyRingMaximalContention) {
  runPair(/*RingEvents=*/2, /*Total=*/20000, /*PushBatch=*/7,
          /*PeekMax=*/4, /*SlowProducer=*/false, /*SlowConsumer=*/false);
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
