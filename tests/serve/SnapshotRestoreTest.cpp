//===- tests/serve/SnapshotRestoreTest.cpp --------------------------------===//
//
// The failover contract: a stream snapshotted at any epoch boundary and
// restored into a fresh server -- with the producer resuming the trace
// tail -- finishes with ControlStats bit-identical to the uninterrupted
// run.  Plus the rejection half: corrupt or truncated snapshot bytes are
// refused with a clean error (no crash, no partial stream), fuzzed over
// 200 seeded mutations.
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "core/Snapshot.h"
#include "ClientFleet.h"
#include "serve/StreamServer.h"
#include "support/Rng.h"
#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::serve;
using namespace specctrl::workload;

namespace {

constexpr SuiteScale TestScale{3.0e3, 0.1};
constexpr uint64_t Epoch = 512;

ReactiveConfig scaledConfig() {
  ReactiveConfig C = ReactiveConfig::baseline();
  C.MonitorPeriod = 100;
  C.WaitPeriod = 2000;
  C.OptLatency = 0;
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

/// Blocking push of the whole span (the consumer drains concurrently).
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

ServeConfig smallServe() {
  ServeConfig C;
  C.EpochEvents = Epoch;
  C.RingEvents = 1024;
  return C;
}

} // namespace

TEST(SnapshotRestoreTest, RestoredTailMatchesUninterruptedRunAtRandomEpochs) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  const std::vector<BranchEvent> Events = materialize(Spec, Input);

  ReactiveController Reference(scaledConfig());
  runWorkload(Reference, Spec, Input);
  const ControlStats Want = Reference.stats();
  ASSERT_EQ(Want.EventsConsumed, Events.size());

  const uint64_t Boundaries = Events.size() / Epoch;
  ASSERT_GT(Boundaries, 3u) << "trace too short to snapshot mid-stream";

  Rng R(2026);
  for (int Round = 0; Round < 5; ++Round) {
    const uint64_t At = (1 + R.nextBelow(Boundaries - 1)) * Epoch;
    SCOPED_TRACE("snapshot at " + std::to_string(At));

    // Live-stream the run, snapshotting at the boundary.  The snapshot is
    // requested while the stream sits exactly on it, so the request is
    // served deterministically; the snapshotted server then keeps going
    // and must be unaffected.
    std::vector<uint8_t> Snapshot;
    {
      StreamServer Server(smallServe());
      const StreamServer::StreamHandle Handle =
          Server.openStream(scaledConfig());
      pushAll(*Handle.Ring, {Events.data(), static_cast<size_t>(At)});
      waitProcessed(Server, Handle.Id, At);
      std::string Error;
      ASSERT_TRUE(Server.snapshotStream(Handle.Id, At, Snapshot, Error))
          << Error;
      EXPECT_FALSE(Snapshot.empty());
      pushAll(*Handle.Ring, std::span(Events).subspan(At));
      Handle.Ring->close();
      Server.waitFinished(Handle.Id);
      EXPECT_EQ(Server.streamStats(Handle.Id), Want)
          << "snapshot perturbed the live stream";
    }

    // Failover: restore into a fresh server and replay only the tail.
    {
      StreamServer Server(smallServe());
      std::string Error;
      const StreamServer::StreamHandle Handle =
          Server.restoreStream(Snapshot, Error);
      ASSERT_NE(Handle.Ring, nullptr) << Error;
      EXPECT_EQ(Server.processed(Handle.Id), At);
      pushAll(*Handle.Ring, std::span(Events).subspan(At));
      Handle.Ring->close();
      Server.waitFinished(Handle.Id);
      EXPECT_EQ(Server.streamStats(Handle.Id), Want)
          << "restored tail diverged from the uninterrupted run";
    }
  }
}

TEST(SnapshotRestoreTest, FleetResumesRestoredStreamViaSkipSource) {
  // The production resume path: the failover producer re-opens the whole
  // trace and SkipSource drops the already-consumed prefix.
  const WorkloadSpec Spec = makeBenchmark("mcf", TestScale);
  const InputConfig Input = Spec.trainInput();
  const std::vector<BranchEvent> Events = materialize(Spec, Input);

  ReactiveController Reference(scaledConfig());
  runWorkload(Reference, Spec, Input);
  const ControlStats Want = Reference.stats();

  const uint64_t At = 4 * Epoch;
  ASSERT_LT(At, Events.size());

  std::vector<uint8_t> Snapshot;
  {
    StreamServer Server(smallServe());
    const StreamServer::StreamHandle Handle =
        Server.openStream(scaledConfig());
    pushAll(*Handle.Ring, {Events.data(), static_cast<size_t>(At)});
    waitProcessed(Server, Handle.Id, At);
    std::string Error;
    ASSERT_TRUE(Server.snapshotStream(Handle.Id, At, Snapshot, Error))
        << Error;
    Handle.Ring->close();
    Server.waitFinished(Handle.Id);
  }

  StreamServer Server(smallServe());
  std::string Error;
  const StreamServer::StreamHandle Handle =
      Server.restoreStream(Snapshot, Error);
  ASSERT_NE(Handle.Ring, nullptr) << Error;

  ClientSpec Client;
  Client.Spec = &Spec;
  Client.Input = Input;
  Client.SkipEvents = Server.processed(Handle.Id);
  Client.Existing = Handle.Id;
  const FleetResult Fleet = driveFleet(Server, {&Client, 1});
  ASSERT_EQ(Fleet.Streams.size(), 1u);
  EXPECT_EQ(Fleet.EventsProduced, Events.size() - At);
  EXPECT_EQ(Server.streamStats(Handle.Id), Want);
}

TEST(SnapshotRestoreTest, CorruptAndTruncatedSnapshotsRejectedCleanly) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  const std::vector<BranchEvent> Events = materialize(Spec, Input);
  const uint64_t At = 2 * Epoch;
  ASSERT_LT(At, Events.size());

  std::vector<uint8_t> Snapshot;
  {
    StreamServer Server(smallServe());
    const StreamServer::StreamHandle Handle =
        Server.openStream(scaledConfig());
    pushAll(*Handle.Ring, {Events.data(), static_cast<size_t>(At)});
    waitProcessed(Server, Handle.Id, At);
    std::string Error;
    ASSERT_TRUE(Server.snapshotStream(Handle.Id, At, Snapshot, Error))
        << Error;
    Handle.Ring->close();
    Server.waitFinished(Handle.Id);
  }

  StreamServer Server(smallServe());
  {
    // The pristine blob must restore (the fuzz below mutates from it).
    std::string Error;
    EXPECT_NE(Server.restoreStream(Snapshot, Error).Ring, nullptr) << Error;
  }

  Rng R(7);
  for (int I = 0; I < 200; ++I) {
    std::vector<uint8_t> Bad = Snapshot;
    if (I % 4 == 0) {
      Bad.resize(static_cast<size_t>(R.nextBelow(Bad.size())));
    } else {
      const size_t Pos = static_cast<size_t>(R.nextBelow(Bad.size()));
      Bad[Pos] ^= static_cast<uint8_t>(1 + R.nextBelow(255));
    }
    std::string Error;
    const StreamServer::StreamHandle Handle =
        Server.restoreStream(Bad, Error);
    EXPECT_EQ(Handle.Ring, nullptr) << "mutation " << I << " accepted";
    EXPECT_EQ(Handle.Id, 0u);
    EXPECT_FALSE(Error.empty()) << "mutation " << I << " gave no error";
  }

  // The degenerate inputs too.
  std::string Error;
  EXPECT_EQ(Server.restoreStream({}, Error).Ring, nullptr);
  EXPECT_FALSE(Error.empty());

  // A controller blob is not a stream snapshot (magic distinguishes them).
  ReactiveController C(scaledConfig());
  const std::vector<uint8_t> ControllerBlob = snapshotController(C);
  EXPECT_EQ(Server.restoreStream(ControllerBlob, Error).Ring, nullptr);
  EXPECT_FALSE(Error.empty());
}

TEST(SnapshotRestoreTest, SnapshotRejectsNonBoundaryAndPassedPositions) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  const std::vector<BranchEvent> Events = materialize(Spec, Input);
  const uint64_t At = 2 * Epoch;

  StreamServer Server(smallServe());
  const StreamServer::StreamHandle Handle =
      Server.openStream(scaledConfig());
  pushAll(*Handle.Ring, {Events.data(), static_cast<size_t>(At)});
  waitProcessed(Server, Handle.Id, At);

  std::vector<uint8_t> Out;
  std::string Error;
  EXPECT_FALSE(Server.snapshotStream(Handle.Id, Epoch + 1, Out, Error))
      << "non-boundary position accepted";
  EXPECT_FALSE(Server.snapshotStream(Handle.Id, Epoch, Out, Error))
      << "passed boundary accepted";
  EXPECT_FALSE(Server.snapshotStream(12345, Epoch, Out, Error))
      << "unknown stream accepted";

  Handle.Ring->close();
  Server.waitFinished(Handle.Id);
  EXPECT_FALSE(Server.snapshotStream(Handle.Id, 100 * Epoch, Out, Error))
      << "finished stream accepted";
}
