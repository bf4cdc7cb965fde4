//===- tests/serve/ClientFleet.h - Simulated client populations -*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives N simulated client populations against a StreamServer: each
/// client opens one stream and pumps a workload trace --
/// generator-backed or arena replay -- through its ingest ring; a few
/// producer threads share the clients, each taking the next unpumped one
/// until none is left.  This is the load half of the serve tests; the
/// server half never knows events are synthetic.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_TESTS_SERVE_CLIENTFLEET_H
#define SPECCTRL_TESTS_SERVE_CLIENTFLEET_H

#include "serve/StreamServer.h"
#include "workload/TraceArena.h"
#include "workload/Workload.h"

#include <span>
#include <vector>

namespace specctrl {
namespace serve {

/// One simulated client: a (workload, input) trace streamed under a
/// controller configuration.  \p Spec must outlive the fleet run (the
/// trace generator holds a reference to it).
struct ClientSpec {
  const workload::WorkloadSpec *Spec = nullptr;
  workload::InputConfig Input;
  core::ReactiveConfig Control;
  /// Producer-side staging batch (events per ring push attempt).
  size_t BatchEvents = workload::DefaultBatchEvents;
};

/// What driveFleet returns once every stream has fully drained.
struct FleetResult {
  /// Stream ids, parallel to the input client list.
  std::vector<StreamId> Streams;
  /// Total events pushed across all clients.
  uint64_t EventsProduced = 0;
};

/// Opens one stream per client, pumps every trace through its ring on
/// \p ProducerThreads threads (the calling thread one of them; 0 means 1),
/// closes the rings, and blocks until the server has drained and finished
/// every stream.  With \p Arena non-null,
/// traces replay from the arena's one materialization per key (cheap per
/// client); otherwise each client synthesizes with a private
/// TraceGenerator.
FleetResult driveFleet(StreamServer &Server,
                       std::span<const ClientSpec> Clients,
                       unsigned ProducerThreads = 1,
                       workload::TraceArena *Arena = nullptr);

} // namespace serve
} // namespace specctrl

#endif // SPECCTRL_TESTS_SERVE_CLIENTFLEET_H
