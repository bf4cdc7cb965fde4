//===- tests/serve/ClientFleet.cpp - Simulated client populations --------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "ClientFleet.h"

#include "StreamProducer.h"
#include "engine/ThreadPool.h"
#include "workload/TraceGenerator.h"

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
  std::atomic<uint64_t> Produced{0};

  engine::ThreadPool Pool(ProducerThreads ? ProducerThreads : 1);
  for (const ClientSpec &Client : Clients) {
    assert(Client.Spec && "client without a workload spec");
    const StreamServer::StreamHandle Handle =
        Server.openStream(Client.Control);
    Result.Streams.push_back(Handle.Id);

    // The pump task owns its replay cursor; shared, since pool tasks
    // are copyable.
    std::shared_ptr<workload::EventSource> Source =
        Arena ? Arena->open(*Client.Spec, Client.Input)
              : std::make_unique<workload::TraceGenerator>(*Client.Spec,
                                                           Client.Input);
    Pool.submit([Source, Handle, Batch = Client.BatchEvents, &Produced] {
      pumpStream(*Source, *Handle.Ring, Batch, Produced);
    });
  }

  Pool.wait();
  for (StreamId Id : Result.Streams)
    Server.waitFinished(Id);
  Result.EventsProduced = Produced.load(std::memory_order_relaxed);
  return Result;
}
