//===- serve/StreamServer.cpp - Multi-tenant live ingest ------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/StreamServer.h"

#include "core/ReactiveController.h"
#include "core/Snapshot.h"

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <stdexcept>
#include <thread>

using namespace specctrl;
using namespace specctrl::serve;

/// A control operation queued for an epoch boundary.  The poster blocks on
/// Done; the consumer fills the result fields and signals.
struct StreamServer::PendingOp {
  enum class Kind : uint8_t { Snapshot, Reconfig };

  Kind K = Kind::Snapshot;
  uint64_t AtEvents = 0;
  core::ReactiveConfig NewControl; ///< Reconfig only

  std::mutex Mutex;
  std::condition_variable Cv;
  bool Done = false;
  bool Ok = false;
  std::string Error;
  std::vector<uint8_t> Bytes; ///< Snapshot only

  void complete(bool Success, std::string Err = {},
                std::vector<uint8_t> Blob = {}) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Done = true;
      Ok = Success;
      Error = std::move(Err);
      Bytes = std::move(Blob);
    }
    Cv.notify_all();
  }

  bool wait(std::vector<uint8_t> *Out, std::string &Err) {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [this] { return Done; });
    if (!Ok) {
      Err = Error;
      return false;
    }
    if (Out)
      *Out = std::move(Bytes);
    return true;
  }
};

/// One hosted stream.  The consumer thread that owns the stream's shard is
/// the only mutator of Controller and Processed; producers touch only the
/// ring; the control plane touches only Ops (under Mutex).
struct StreamServer::Stream {
  Stream(StreamId Id, uint32_t RingEvents, uint64_t EpochEvents,
         const core::ReactiveConfig &Control)
      : Id(Id), Ring(RingEvents), Controller(Control),
        EpochEvents(EpochEvents) {}

  const StreamId Id;
  workload::SpscRing Ring;
  core::ReactiveController Controller;
  const uint64_t EpochEvents;

  /// Events fed to the controller; written by the owning consumer only.
  uint64_t Processed = 0;
  /// Processed, republished for control-plane reads (reject-fast checks
  /// and metrics; the authoritative value is Processed).
  std::atomic<uint64_t> ProcessedPublic{0};
  std::atomic<bool> Finished{false};

  /// Guards Ops and the finish transition.
  std::mutex Mutex;
  std::vector<std::shared_ptr<PendingOp>> Ops;
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
  if (Cfg.EpochEvents == 0)
    throw std::invalid_argument("ServeConfig::EpochEvents must be nonzero");
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
  // Fail any operations still queued so no poster is left blocked.
  for (auto &S : Shards)
    for (auto &St : S->Streams) {
      std::lock_guard<std::mutex> Lock(St->Mutex);
      for (auto &Op : St->Ops)
        Op->complete(false, "server shut down before the requested epoch");
      St->Ops.clear();
    }
}

StreamServer::StreamHandle
StreamServer::registerStream(std::unique_ptr<Stream> NewStream) {
  Stream *Raw = NewStream.get();
  Shard &Home = *Shards[Raw->Id % Shards.size()];
  {
    std::lock_guard<std::mutex> Lock(MapMutex);
    ById.emplace(Raw->Id, Raw);
  }
  {
    std::lock_guard<std::mutex> Lock(Home.Mutex);
    Home.Streams.push_back(std::move(NewStream));
  }
  return {Raw->Id, &Raw->Ring};
}

StreamServer::StreamHandle
StreamServer::openStream(const core::ReactiveConfig &Control) {
  StreamId Id;
  {
    std::lock_guard<std::mutex> Lock(MapMutex);
    Id = NextId++;
  }
  return registerStream(
      std::make_unique<Stream>(Id, Cfg.RingEvents, Cfg.EpochEvents, Control));
}

StreamServer::StreamHandle
StreamServer::restoreStream(std::span<const uint8_t> Snapshot,
                            std::string &Error) {
  namespace snap = core::snapshot;
  std::span<const uint8_t> Payload;
  if (!snap::unframe(Snapshot, snap::StreamMagic, Payload, Error))
    return {};
  snap::ByteReader R(Payload);
  uint64_t EpochEvents = 0, Processed = 0;
  std::span<const uint8_t> ControllerBytes;
  if (!R.u64(EpochEvents) || !R.u64(Processed) ||
      !R.blob(ControllerBytes) || !R.done()) {
    Error = "stream snapshot truncated or has trailing bytes";
    return {};
  }
  if (EpochEvents == 0) {
    Error = "stream snapshot invalid: epoch length is zero";
    return {};
  }
  if (Processed % EpochEvents != 0) {
    Error = "stream snapshot invalid: position not on an epoch boundary";
    return {};
  }
  std::unique_ptr<core::ReactiveController> Restored =
      core::restoreController(ControllerBytes, Error);
  if (!Restored)
    return {};

  StreamId Id;
  {
    std::lock_guard<std::mutex> Lock(MapMutex);
    Id = NextId++;
  }
  auto NewStream = std::make_unique<Stream>(Id, Cfg.RingEvents, EpochEvents,
                                            Restored->config());
  NewStream->Controller = std::move(*Restored);
  NewStream->Processed = Processed;
  NewStream->ProcessedPublic.store(Processed, std::memory_order_relaxed);
  return registerStream(std::move(NewStream));
}

StreamServer::Stream *StreamServer::findStream(StreamId Id) const {
  std::lock_guard<std::mutex> Lock(MapMutex);
  auto It = ById.find(Id);
  return It == ById.end() ? nullptr : It->second;
}

StreamServer::Stream &StreamServer::streamRef(StreamId Id) const {
  if (Stream *S = findStream(Id))
    return *S;
  throw std::out_of_range("StreamServer: unknown stream id " +
                          std::to_string(Id));
}

StreamServer::StreamHandle StreamServer::handleOf(StreamId Id) const {
  Stream *S = findStream(Id);
  return S ? StreamHandle{Id, &S->Ring} : StreamHandle{};
}

bool StreamServer::postOp(StreamId Id, std::shared_ptr<PendingOp> Op,
                          std::vector<uint8_t> *Out, std::string &Error) {
  Stream *S = findStream(Id);
  if (!S) {
    Error = "unknown stream id";
    return false;
  }
  if (Op->AtEvents % S->EpochEvents != 0) {
    Error = "requested position is not an epoch boundary";
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    if (S->Finished.load(std::memory_order_acquire)) {
      Error = "stream already finished";
      return false;
    }
    if (S->ProcessedPublic.load(std::memory_order_acquire) > Op->AtEvents) {
      Error = "epoch boundary already passed";
      return false;
    }
    S->Ops.push_back(Op);
  }
  return Op->wait(Out, Error);
}

bool StreamServer::snapshotStream(StreamId Id, uint64_t AtEvents,
                                  std::vector<uint8_t> &Out,
                                  std::string &Error) {
  auto Op = std::make_shared<PendingOp>();
  Op->K = PendingOp::Kind::Snapshot;
  Op->AtEvents = AtEvents;
  return postOp(Id, std::move(Op), &Out, Error);
}

bool StreamServer::reconfigureStream(StreamId Id, uint64_t AtEvents,
                                     const core::ReactiveConfig &NewControl,
                                     std::string &Error) {
  const std::string Violation = NewControl.validate();
  if (!Violation.empty()) {
    Error = "reconfiguration rejected: " + Violation;
    return false;
  }
  auto Op = std::make_shared<PendingOp>();
  Op->K = PendingOp::Kind::Reconfig;
  Op->AtEvents = AtEvents;
  Op->NewControl = NewControl;
  return postOp(Id, std::move(Op), nullptr, Error);
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
  return streamRef(Id).ProcessedPublic.load(std::memory_order_acquire);
}

const core::ControlStats &StreamServer::streamStats(StreamId Id) const {
  Stream &S = streamRef(Id);
  assert(S.Finished.load(std::memory_order_acquire) &&
         "streamStats before waitFinished");
  return S.Controller.stats();
}

const core::ReactiveConfig &StreamServer::streamControl(StreamId Id) const {
  Stream &S = streamRef(Id);
  assert(S.Finished.load(std::memory_order_acquire) &&
         "streamControl before waitFinished");
  return S.Controller.config();
}

ServeMetrics StreamServer::metrics() const {
  ServeMetrics M;
  M.SnapshotsTaken = SnapshotsTaken.load(std::memory_order_relaxed);
  M.Reconfigs = Reconfigs.load(std::memory_order_relaxed);
  M.StreamsFinished = StreamsFinished.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(MapMutex);
  M.StreamsOpened = ById.size();
  for (const auto &[Id, S] : ById)
    M.EventsIngested += S->ProcessedPublic.load(std::memory_order_relaxed);
  return M;
}

std::vector<uint8_t> StreamServer::serializeStream(const Stream &S) {
  namespace snap = core::snapshot;
  snap::ByteWriter W;
  W.u64(S.EpochEvents);
  W.u64(S.Processed);
  const std::vector<uint8_t> Controller =
      core::snapshotController(S.Controller);
  W.blob(Controller);
  const std::vector<uint8_t> Payload = W.take();
  return snap::frame(snap::StreamMagic, Payload);
}

void StreamServer::applyDueOps(Stream &S) {
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (S.Ops.empty())
    return;
  std::vector<std::shared_ptr<PendingOp>> Keep;
  Keep.reserve(S.Ops.size());
  for (auto &Op : S.Ops) {
    if (Op->AtEvents == S.Processed) {
      if (Op->K == PendingOp::Kind::Snapshot) {
        SnapshotsTaken.fetch_add(1, std::memory_order_relaxed);
        Op->complete(true, {}, serializeStream(S));
      } else {
        S.Controller.reconfigure(Op->NewControl);
        Reconfigs.fetch_add(1, std::memory_order_relaxed);
        Op->complete(true);
      }
    } else if (Op->AtEvents < S.Processed) {
      // Posted for a boundary the consumer had already crossed by the
      // time it looked: the poster lost the race, deterministically.
      Op->complete(false, "epoch boundary already passed");
    } else {
      Keep.push_back(std::move(Op));
    }
  }
  S.Ops = std::move(Keep);
}

void StreamServer::finishStream(Stream &S) {
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    for (auto &Op : S.Ops)
      Op->complete(false, "stream finished before the requested epoch");
    S.Ops.clear();
    // Release store inside the critical section: posters that saw
    // Finished under the mutex observe the failed ops; stats readers
    // that acquire-load Finished observe every controller write.
    S.Finished.store(true, std::memory_order_release);
  }
  StreamsFinished.fetch_add(1, std::memory_order_relaxed);
}

bool StreamServer::serviceStream(Stream &S, Shard &Home) {
  // Control operations may be due while the stream idles exactly on a
  // boundary (including before the first event).
  if (S.Processed % S.EpochEvents == 0)
    applyDueOps(S);

  // Budget one ring's worth of events per service pass so a fast producer
  // cannot starve the shard's other streams.  A chunk ends at the next
  // epoch boundary, the ring's wrap point, or the end of the budget.
  size_t Budget = S.Ring.capacity();
  size_t Drained = 0;
  while (Budget > 0) {
    const uint64_t ToBoundary =
        S.EpochEvents - (S.Processed % S.EpochEvents);
    const std::span<const workload::BranchEvent> Chunk = S.Ring.peek(
        ToBoundary < Budget ? static_cast<size_t>(ToBoundary) : Budget);
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
    S.Processed += Got;
    S.ProcessedPublic.store(S.Processed, std::memory_order_release);
    Drained += Got;
    Budget -= Got;
    if (S.Processed % S.EpochEvents == 0)
      applyDueOps(S);
  }

  if (Drained == 0 && S.Ring.drained())
    finishStream(S);
  return Drained > 0;
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
