//===- serve/StreamServer.cpp - Multi-tenant live ingest ------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/StreamServer.h"

#include "core/ReactiveController.h"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

using namespace specctrl;
using namespace specctrl::serve;

/// One hosted stream.  The consumer thread that owns the stream's shard is
/// the only mutator of Controller, Processed and Finished; producers touch
/// only the ring.
struct StreamServer::Stream {
  Stream(uint32_t RingEvents, const core::ReactiveConfig &Control)
      : Ring(RingEvents), Controller(Control) {}

  workload::SpscRing Ring;
  core::ReactiveController Controller;
  /// Events fed to the controller; each release store publishes the
  /// controller writes before it.
  std::atomic<uint64_t> Processed{0};
  std::atomic<bool> Finished{false};
};

/// One consumer shard: the streams it owns and the thread draining them.
struct StreamServer::Shard {
  explicit Shard(size_t RingCapacity) : Verdicts(RingCapacity) {}
  std::mutex Mutex; ///< guards Streams (append-only)
  std::vector<std::unique_ptr<Stream>> Streams;
  std::thread Worker;
  /// Raw-pointer snapshot reused across service passes; refreshed under
  /// Mutex when the size changed (streams are never removed).
  std::vector<Stream *> Scan;
  /// Verdicts of one onBatch call, reused for every stream of the shard;
  /// a drain chunk never spans more than a ring's capacity.
  std::vector<core::BranchVerdict> Verdicts;
};

StreamServer::StreamServer(ServeConfig Config) : Cfg(Config) {
  if (Cfg.RingEvents == 0)
    throw std::invalid_argument("ServeConfig::RingEvents must be nonzero");
  if (Cfg.Consumers == 0)
    Cfg.Consumers = 1;

  Shards.reserve(Cfg.Consumers);
  for (unsigned I = 0; I < Cfg.Consumers; ++I)
    Shards.push_back(std::make_unique<Shard>(
        workload::SpscRing::capacityFor(Cfg.RingEvents)));
  for (auto &S : Shards)
    S->Worker = std::thread([this, Raw = S.get()] { consumerLoop(*Raw); });
}

StreamServer::~StreamServer() {
  Stopping.store(true, std::memory_order_release);
  for (auto &S : Shards)
    if (S->Worker.joinable())
      S->Worker.join();
}

StreamServer::StreamHandle
StreamServer::openStream(const core::ReactiveConfig &Control) {
  // The controller's constructor validates Control: nothing is registered
  // when it throws.
  auto NewStream = std::make_unique<Stream>(Cfg.RingEvents, Control);
  Stream *Raw = NewStream.get();
  StreamId Id;
  {
    std::lock_guard<std::mutex> Lock(MapMutex);
    Id = NextId++;
    ById.emplace(Id, Raw);
  }
  Shard &Home = *Shards[Id % Shards.size()];
  {
    std::lock_guard<std::mutex> Lock(Home.Mutex);
    Home.Streams.push_back(std::move(NewStream));
  }
  return {Id, &Raw->Ring};
}

StreamServer::Stream &StreamServer::streamRef(StreamId Id) const {
  std::lock_guard<std::mutex> Lock(MapMutex);
  auto It = ById.find(Id);
  if (It == ById.end())
    throw std::out_of_range("StreamServer: unknown stream id " +
                            std::to_string(Id));
  return *It->second;
}

void StreamServer::waitFinished(StreamId Id) {
  Stream &S = streamRef(Id);
  unsigned Spins = 0;
  while (!S.Finished.load(std::memory_order_acquire)) {
    if (++Spins < 64)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

bool StreamServer::finished(StreamId Id) const {
  return streamRef(Id).Finished.load(std::memory_order_acquire);
}

uint64_t StreamServer::processed(StreamId Id) const {
  return streamRef(Id).Processed.load(std::memory_order_acquire);
}

const core::ControlStats &StreamServer::streamStats(StreamId Id) const {
  Stream &S = streamRef(Id);
  assert(S.Finished.load(std::memory_order_acquire) &&
         "streamStats before waitFinished");
  return S.Controller.stats();
}

ServeMetrics StreamServer::metrics() const {
  ServeMetrics M;
  M.StreamsFinished = StreamsFinished.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(MapMutex);
  M.StreamsOpened = ById.size();
  for (const auto &[Id, S] : ById)
    M.EventsIngested += S->Processed.load(std::memory_order_relaxed);
  return M;
}

bool StreamServer::serviceStream(Stream &S, Shard &Home) {
  // Budget one ring's worth of events per service pass so a fast producer
  // cannot starve the shard's other streams.  A chunk ends at the ring's
  // wrap point or the end of the budget.
  size_t Budget = S.Ring.capacity();
  uint64_t Processed = S.Processed.load(std::memory_order_relaxed);
  while (Budget > 0) {
    const std::span<const workload::BranchEvent> Chunk = S.Ring.peek(Budget);
    const size_t Got = Chunk.size();
    if (Got == 0)
      break;
    // The controller reads the ring's slots in place; they go back to the
    // producer only once onBatch has returned.
    S.Controller.onBatch(Chunk, Home.Verdicts.data());
    S.Ring.consume(Got);
    // The driver accounts EventsConsumed outside onBatch (core::runTrace
    // does the same), keeping live stats comparable to batch runs.
    S.Controller.stats().EventsConsumed += Got;
    Processed += Got;
    S.Processed.store(Processed, std::memory_order_release);
    Budget -= Got;
  }

  const bool Fed = Budget < S.Ring.capacity();
  if (!Fed && S.Ring.drained()) {
    // Counted before the release store, so a waiter that sees Finished
    // also sees the stream in metrics().StreamsFinished; stats readers
    // that acquire-load Finished observe every controller write.
    StreamsFinished.fetch_add(1, std::memory_order_relaxed);
    S.Finished.store(true, std::memory_order_release);
  }
  return Fed;
}

void StreamServer::consumerLoop(Shard &Home) {
  unsigned IdleSpins = 0;
  while (true) {
    {
      std::lock_guard<std::mutex> Lock(Home.Mutex);
      if (Home.Scan.size() != Home.Streams.size()) {
        Home.Scan.clear();
        for (auto &S : Home.Streams)
          Home.Scan.push_back(S.get());
      }
    }
    bool DidWork = false;
    for (Stream *S : Home.Scan)
      if (!S->Finished.load(std::memory_order_acquire))
        DidWork |= serviceStream(*S, Home);
    if (DidWork) {
      IdleSpins = 0;
      continue;
    }
    if (Stopping.load(std::memory_order_acquire))
      return;
    // Nothing to drain anywhere in the shard: back off so producers (and
    // other shards) get the cores, ramping from yield to a short sleep.
    if (++IdleSpins < 64)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}
