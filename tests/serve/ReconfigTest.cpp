//===- tests/serve/ReconfigTest.cpp ---------------------------------------===//
//
// Live reconfiguration: controller parameters replaced on a running
// stream exactly at the requested epoch boundary, with no events dropped
// or reordered -- the stream's final stats equal a reference controller
// fed the same events with reconfigure() called at the same position.
// Plus the rejection rules (passed boundary, non-boundary, bad
// parameters, finished stream), the no-hang guarantee for operations a
// stream finishes before reaching, the server's own rejection of a zero
// epoch or ring capacity, and std::out_of_range from every per-stream
// accessor on an unknown id.
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "serve/StreamServer.h"
#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::serve;
using namespace specctrl::workload;

namespace {

constexpr SuiteScale TestScale{3.0e3, 0.1};
constexpr uint64_t Epoch = 512;

ReactiveConfig configA() {
  ReactiveConfig C = ReactiveConfig::baseline();
  C.MonitorPeriod = 100;
  C.WaitPeriod = 2000;
  C.OptLatency = 0;
  return C;
}

ReactiveConfig configB() {
  ReactiveConfig C = configA();
  C.MonitorPeriod = 50;
  C.SelectThreshold = 0.9;
  C.WaitPeriod = 1000;
  C.EvictSaturation = 500;
  return C;
}

std::vector<BranchEvent> materialize(const WorkloadSpec &Spec,
                                     const InputConfig &Input) {
  std::vector<BranchEvent> All;
  TraceGenerator Gen(Spec, Input);
  std::vector<BranchEvent> Chunk(DefaultBatchEvents);
  while (const size_t N = Gen.nextBatch(Chunk))
    All.insert(All.end(), Chunk.begin(), Chunk.begin() + N);
  return All;
}

void pushAll(SpscRing &Ring, std::span<const BranchEvent> Events) {
  size_t Pos = 0;
  while (Pos < Events.size()) {
    const size_t N = Ring.push(Events.subspan(Pos));
    if (N == 0)
      std::this_thread::yield();
    Pos += N;
  }
}

void waitProcessed(StreamServer &Server, StreamId Id, uint64_t Target) {
  while (Server.processed(Id) < Target)
    std::this_thread::yield();
}

/// Feeds \p Events to \p Controller the way the serve consumer does
/// (onBatch chunks plus driver-style EventsConsumed accounting).
void feed(ReactiveController &Controller,
          std::span<const BranchEvent> Events) {
  std::vector<BranchVerdict> Verdicts(DefaultBatchEvents);
  size_t Pos = 0;
  while (Pos < Events.size()) {
    const size_t N = std::min(Verdicts.size(), Events.size() - Pos);
    Controller.onBatch(Events.subspan(Pos, N), Verdicts.data());
    Controller.stats().EventsConsumed += N;
    Pos += N;
  }
}

ServeConfig smallServe() {
  ServeConfig C;
  C.EpochEvents = Epoch;
  C.RingEvents = 1024;
  return C;
}

/// Calls \p Access on a server holding one finished stream, with an id the
/// server never assigned, and checks that it throws std::out_of_range
/// naming that id.
template <typename AccessFn> void expectUnknownIdRejected(AccessFn Access) {
  StreamServer Server(smallServe());
  const StreamServer::StreamHandle Handle = Server.openStream(configA());
  Handle.Ring->close();
  Server.waitFinished(Handle.Id);
  const StreamId Unknown = Handle.Id + 1000;
  try {
    Access(Server, Unknown);
    ADD_FAILURE() << "unknown stream id accepted";
  } catch (const std::out_of_range &E) {
    EXPECT_NE(std::string(E.what()).find(std::to_string(Unknown)),
              std::string::npos)
        << E.what();
  }
}

} // namespace

TEST(ReconfigTest, LandsExactlyAtRequestedEpochWhileStreaming) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const std::vector<BranchEvent> Events =
      materialize(Spec, Spec.refInput());
  const uint64_t At = 4 * Epoch;
  ASSERT_LT(At, Events.size());

  // Reference: the same event sequence with the parameter switch at
  // exactly At events.
  ReactiveController Reference(configA());
  feed(Reference, {Events.data(), static_cast<size_t>(At)});
  Reference.reconfigure(configB());
  feed(Reference, std::span(Events).subspan(At));
  const ControlStats Want = Reference.stats();

  // Live: the producer streams the prefix concurrently with the
  // reconfiguration request.  The consumer cannot pass At (only At events
  // are pushed before the request completes), so the request lands on the
  // requested boundary deterministically -- while events are in flight.
  StreamServer Server(smallServe());
  const StreamServer::StreamHandle Handle = Server.openStream(configA());
  std::thread Producer([&] {
    pushAll(*Handle.Ring, {Events.data(), static_cast<size_t>(At)});
  });
  std::string Error;
  ASSERT_TRUE(Server.reconfigureStream(Handle.Id, At, configB(), Error))
      << Error;
  Producer.join();
  EXPECT_EQ(Server.processed(Handle.Id), At)
      << "reconfiguration applied off the requested boundary";

  pushAll(*Handle.Ring, std::span(Events).subspan(At));
  Handle.Ring->close();
  Server.waitFinished(Handle.Id);

  EXPECT_EQ(Server.streamStats(Handle.Id), Want);
  EXPECT_EQ(Server.streamControl(Handle.Id).MonitorPeriod,
            configB().MonitorPeriod);
  EXPECT_EQ(Server.streamControl(Handle.Id).SelectThreshold,
            configB().SelectThreshold);
  EXPECT_EQ(Server.metrics().Reconfigs, 1u);
}

TEST(ReconfigTest, RejectsPassedNonBoundaryAndInvalidRequests) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const std::vector<BranchEvent> Events =
      materialize(Spec, Spec.refInput());
  const uint64_t At = 3 * Epoch;
  ASSERT_LT(At, Events.size());

  StreamServer Server(smallServe());
  const StreamServer::StreamHandle Handle = Server.openStream(configA());
  pushAll(*Handle.Ring, {Events.data(), static_cast<size_t>(At)});
  waitProcessed(Server, Handle.Id, At);

  std::string Error;
  EXPECT_FALSE(Server.reconfigureStream(Handle.Id, Epoch, configB(), Error))
      << "passed boundary accepted";
  EXPECT_FALSE(
      Server.reconfigureStream(Handle.Id, 2 * Epoch + 1, configB(), Error))
      << "non-boundary position accepted";

  ReactiveConfig Bad = configB();
  Bad.SelectThreshold = 0.2; // outside (0.5, 1.0]
  EXPECT_FALSE(Server.reconfigureStream(Handle.Id, 10 * Epoch, Bad, Error))
      << "invalid parameters accepted";
  Bad = configB();
  Bad.MonitorPeriod = 0;
  EXPECT_FALSE(Server.reconfigureStream(Handle.Id, 10 * Epoch, Bad, Error))
      << "zero monitor period accepted";

  EXPECT_FALSE(Server.reconfigureStream(99999, At, configB(), Error))
      << "unknown stream accepted";

  Handle.Ring->close();
  Server.waitFinished(Handle.Id);
  EXPECT_FALSE(
      Server.reconfigureStream(Handle.Id, 100 * Epoch, configB(), Error))
      << "finished stream accepted";
  EXPECT_EQ(Server.metrics().Reconfigs, 0u);
}

TEST(ReconfigTest, PendingOperationFailsWhenStreamFinishesFirst) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const std::vector<BranchEvent> Events =
      materialize(Spec, Spec.refInput());
  const size_t Prefix = static_cast<size_t>(2 * Epoch + 100);
  ASSERT_LT(Prefix, Events.size());

  StreamServer Server(smallServe());
  const StreamServer::StreamHandle Handle = Server.openStream(configA());
  pushAll(*Handle.Ring, {Events.data(), Prefix});
  waitProcessed(Server, Handle.Id, Prefix);

  // Request a boundary the stream will never reach, then end the stream.
  // Whether the post lands before or after the finish transition, the
  // waiter must get a clean failure -- never a hang.
  bool Ok = true;
  std::string Error;
  std::thread Waiter([&] {
    Ok = Server.reconfigureStream(Handle.Id, 1000 * Epoch, configB(), Error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Handle.Ring->close();
  Waiter.join();
  EXPECT_FALSE(Ok);
  EXPECT_FALSE(Error.empty());
  Server.waitFinished(Handle.Id);

  // The stream itself finished normally: stats match an op-free run.
  ReactiveController Reference(configA());
  feed(Reference, {Events.data(), Prefix});
  EXPECT_EQ(Server.streamStats(Handle.Id), Reference.stats());
}

TEST(ReconfigTest, ServerRejectsZeroEpochOrRingCapacity) {
  // A zero epoch has no boundaries to land operations on, and a zero ring
  // holds no events; both are configuration errors, not defaults.
  ServeConfig ZeroEpoch = smallServe();
  ZeroEpoch.EpochEvents = 0;
  EXPECT_THROW(StreamServer{ZeroEpoch}, std::invalid_argument);
  ServeConfig ZeroRing = smallServe();
  ZeroRing.RingEvents = 0;
  EXPECT_THROW(StreamServer{ZeroRing}, std::invalid_argument);

  const StreamServer Default;
  EXPECT_EQ(Default.config().EpochEvents, 8192u);
  EXPECT_EQ(Default.config().RingEvents, 8192u);
}

TEST(ReconfigTest, ProcessedRejectsUnknownId) {
  expectUnknownIdRejected(
      [](StreamServer &S, StreamId Id) { (void)S.processed(Id); });
}

TEST(ReconfigTest, FinishedRejectsUnknownId) {
  expectUnknownIdRejected(
      [](StreamServer &S, StreamId Id) { (void)S.finished(Id); });
}

TEST(ReconfigTest, WaitFinishedRejectsUnknownId) {
  expectUnknownIdRejected(
      [](StreamServer &S, StreamId Id) { S.waitFinished(Id); });
}

TEST(ReconfigTest, StreamStatsRejectsUnknownId) {
  expectUnknownIdRejected(
      [](StreamServer &S, StreamId Id) { (void)S.streamStats(Id); });
}

TEST(ReconfigTest, StreamControlRejectsUnknownId) {
  expectUnknownIdRejected(
      [](StreamServer &S, StreamId Id) { (void)S.streamControl(Id); });
}
