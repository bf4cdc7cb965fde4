//===- tests/serve/StreamServerTest.cpp -----------------------------------===//
//
// The server's own rejection of a zero ring capacity, and
// std::out_of_range from every per-stream accessor on an unknown id.
//
//===----------------------------------------------------------------------===//

#include "serve/StreamServer.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::serve;

namespace {

ServeConfig smallServe() {
  ServeConfig C;
  C.RingEvents = 1024;
  return C;
}

/// Calls \p Access on a server holding one finished stream, with an id the
/// server never assigned, and checks that it throws std::out_of_range
/// naming that id.
template <typename AccessFn> void expectUnknownIdRejected(AccessFn Access) {
  StreamServer Server(smallServe());
  const StreamServer::StreamHandle Handle =
      Server.openStream(ReactiveConfig::baseline());
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

TEST(StreamServerTest, ServerRejectsZeroRingCapacity) {
  // A zero ring holds no events: a configuration error, not a default.
  ServeConfig ZeroRing = smallServe();
  ZeroRing.RingEvents = 0;
  EXPECT_THROW(StreamServer{ZeroRing}, std::invalid_argument);

  const StreamServer Default;
  EXPECT_EQ(Default.config().RingEvents, 8192u);
}

TEST(StreamServerTest, ProcessedRejectsUnknownId) {
  expectUnknownIdRejected(
      [](StreamServer &S, StreamId Id) { (void)S.processed(Id); });
}

TEST(StreamServerTest, FinishedRejectsUnknownId) {
  expectUnknownIdRejected(
      [](StreamServer &S, StreamId Id) { (void)S.finished(Id); });
}

TEST(StreamServerTest, WaitFinishedRejectsUnknownId) {
  expectUnknownIdRejected(
      [](StreamServer &S, StreamId Id) { S.waitFinished(Id); });
}

TEST(StreamServerTest, StreamStatsRejectsUnknownId) {
  expectUnknownIdRejected(
      [](StreamServer &S, StreamId Id) { (void)S.streamStats(Id); });
}
