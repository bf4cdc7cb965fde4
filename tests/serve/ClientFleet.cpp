//===- tests/serve/ClientFleet.cpp - Simulated client populations --------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "ClientFleet.h"

#include "StreamProducer.h"
#include "workload/TraceGenerator.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <thread>

using namespace specctrl;
using namespace specctrl::serve;

namespace {

/// Pumps one source to completion: non-blocking steps with a yield when
/// the ring is full, then closes the ring so the consumer can finish.
void pumpStream(workload::EventSource &Source, workload::SpscRing &Ring,
                size_t BatchEvents, std::atomic<uint64_t> &Produced) {
  workload::RingProducer Producer(Source, Ring, BatchEvents);
  while (!Producer.done()) {
    if (Producer.step() == 0 && !Producer.done())
      std::this_thread::yield();
  }
  Ring.close();
  Produced.fetch_add(Producer.produced(), std::memory_order_relaxed);
}

} // namespace

FleetResult serve::driveFleet(StreamServer &Server,
                              std::span<const ClientSpec> Clients,
                              unsigned ProducerThreads,
                              workload::TraceArena *Arena) {
  FleetResult Result;
  Result.Streams.reserve(Clients.size());
  std::vector<workload::SpscRing *> Rings;
  std::vector<std::unique_ptr<workload::EventSource>> Sources;
  for (const ClientSpec &Client : Clients) {
    assert(Client.Spec && "client without a workload spec");
    const StreamServer::StreamHandle Handle =
        Server.openStream(Client.Control);
    Result.Streams.push_back(Handle.Id);
    Rings.push_back(Handle.Ring);
    Sources.push_back(Arena ? Arena->open(*Client.Spec, Client.Input)
                            : std::make_unique<workload::TraceGenerator>(
                                  *Client.Spec, Client.Input));
  }

  // Each producer pumps the next unclaimed client until none is left; the
  // calling thread is one of them, and the others join when the block
  // ends.
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Produced{0};
  const auto Produce = [&] {
    for (size_t I = Next++; I < Clients.size(); I = Next++)
      pumpStream(*Sources[I], *Rings[I], Clients[I].BatchEvents, Produced);
  };
  {
    std::vector<std::jthread> Producers;
    for (unsigned T = 1; T < std::max(ProducerThreads, 1u); ++T)
      Producers.emplace_back(Produce);
    Produce();
  }
  for (StreamId Id : Result.Streams)
    Server.waitFinished(Id);
  Result.EventsProduced = Produced.load(std::memory_order_relaxed);
  return Result;
}
