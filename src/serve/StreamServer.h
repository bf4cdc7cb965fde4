//===- serve/StreamServer.h - Multi-tenant live ingest ----------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming control-plane service: a long-lived server hosting many
/// concurrent branch-event streams, each owning an independent
/// ReactiveController.  This is the paper's controller lifted from a
/// batch post-processor into the online setting its Sec. 3 model actually
/// describes -- events arrive live from producers and control decisions
/// are made as they stream through.
///
/// Architecture:
///
///   producer threads          consumer shard threads
///   (one per client)          (Config.Consumers of them)
///        |                              |
///        |  SpscRing (per stream)       |
///        +-->[][][][][][][]------------>+--> ReactiveController
///                                       |      + ControlStats
///                                       |
///                         epoch boundaries: snapshot / reconfigure
///
/// Streams are sharded by id over the consumer threads; each consumer
/// exclusively owns its streams' controllers, so the event hot path takes
/// no locks (the ring is the only producer/consumer contact point).  A
/// consumer runs onBatch on ring slots in place and releases them to the
/// producer after onBatch returns: nothing is copied on the way, and a
/// stream's footprint is its ring plus its controller.  The control plane
/// (snapshot, live reconfiguration) posts operations under a per-stream
/// mutex; the consumer applies them exactly at the requested epoch
/// boundary (a multiple of EpochEvents processed), which gives every
/// control operation a deterministic position in the event stream.
///
/// Determinism contract: a controller only ever sees onBatch calls, and
/// onBatch is chunking-invariant (core BatchEquivalenceTest), so the final
/// ControlStats of a live-streamed run are byte-identical to batch
/// core::runWorkload over the same trace -- regardless of ring capacity,
/// producer timing, where a drain chunk ends (epoch boundary, ring wrap
/// point, or service budget), or consumer count.  Snapshots taken
/// at a boundary serialize the complete controller state (core/Snapshot.h)
/// plus the stream position; restoring into a fresh server and replaying
/// the remaining tail (the serve tests' SkipSource) reproduces the
/// uninterrupted run's decisions bit-identically.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_SERVE_STREAMSERVER_H
#define SPECCTRL_SERVE_STREAMSERVER_H

#include "core/ControlStats.h"
#include "core/ReactiveConfig.h"
#include "workload/SpscRing.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace specctrl {
namespace serve {

/// Identifies one hosted stream (assigned by openStream, starting at 1).
using StreamId = uint64_t;

/// Server-wide configuration.
struct ServeConfig {
  /// Consumer shard threads.  Streams are assigned round-robin by id;
  /// each consumer exclusively services its shard's controllers.
  unsigned Consumers = 1;
  /// Events per epoch: control operations (snapshot, reconfigure) land
  /// exactly on multiples of this.  Must be nonzero.
  uint64_t EpochEvents = 8192;
  /// Per-stream ingest ring capacity in events (rounded up to a power of
  /// two).  Must be nonzero.
  uint32_t RingEvents = 8192;
};

/// Server-wide counters (metrics()).
struct ServeMetrics {
  uint64_t StreamsOpened = 0;
  uint64_t StreamsFinished = 0;
  uint64_t EventsIngested = 0; ///< events fed to controllers so far
  uint64_t SnapshotsTaken = 0;
  uint64_t Reconfigs = 0;
};

/// A multi-tenant live-ingest server.  Thread contract: openStream /
/// restoreStream / control-plane calls may come from any thread; each
/// stream's ring must be fed by exactly one producer thread at a time.
class StreamServer {
public:
  /// What a producer needs to feed a stream: its id and its ingest ring.
  /// The ring pointer stays valid for the server's lifetime.
  struct StreamHandle {
    StreamId Id = 0;
    workload::SpscRing *Ring = nullptr;
  };

  /// Throws std::invalid_argument when Config.EpochEvents or
  /// Config.RingEvents is zero.
  explicit StreamServer(ServeConfig Config = {});
  ~StreamServer();

  StreamServer(const StreamServer &) = delete;
  StreamServer &operator=(const StreamServer &) = delete;

  const ServeConfig &config() const { return Cfg; }

  /// Opens a fresh stream whose controller runs \p Control.  The producer
  /// pushes events into the handle's ring and close()s it when done.
  StreamHandle openStream(const core::ReactiveConfig &Control);

  /// Opens a stream from a snapshot blob (snapshotStream output),
  /// restoring the controller state and stream position.  The producer
  /// must feed the stream's *tail* -- the events after processed(Id)
  /// (the serve tests' SkipSource does exactly this) -- and the subsequent
  /// decisions are bit-identical to the uninterrupted run.  Returns a
  /// null handle with \p Error set on corrupt or truncated bytes.
  StreamHandle restoreStream(std::span<const uint8_t> Snapshot,
                             std::string &Error);

  /// The handle of an already-open stream (e.g. after restoreStream).
  StreamHandle handleOf(StreamId Id) const;

  /// Serializes stream \p Id's complete state exactly when its event
  /// count reaches \p AtEvents, which must be a multiple of the epoch
  /// length and not yet passed.  Blocks until the consumer reaches that
  /// boundary (or the stream finishes first).  Returns false with
  /// \p Error on a passed boundary, a finished stream, or an unknown id.
  bool snapshotStream(StreamId Id, uint64_t AtEvents,
                      std::vector<uint8_t> &Out, std::string &Error);

  /// Replaces stream \p Id's controller parameters exactly when its event
  /// count reaches \p AtEvents (same boundary rules as snapshotStream);
  /// no events are dropped or reordered.  Blocks until applied.
  bool reconfigureStream(StreamId Id, uint64_t AtEvents,
                         const core::ReactiveConfig &NewControl,
                         std::string &Error);

  /// The per-stream accessors below throw std::out_of_range on an unknown
  /// id.

  /// Blocks until stream \p Id's ring is closed and fully drained.
  void waitFinished(StreamId Id);

  bool finished(StreamId Id) const;

  /// Events fed to the stream's controller so far (exact once finished).
  uint64_t processed(StreamId Id) const;

  /// The stream's final ControlStats.  Call after waitFinished: the
  /// finished flag's release/acquire pair makes the read race-free.
  const core::ControlStats &streamStats(StreamId Id) const;

  /// The stream's current controller parameters (reflects applied
  /// reconfigurations).  Call after waitFinished.
  const core::ReactiveConfig &streamControl(StreamId Id) const;

  ServeMetrics metrics() const;

private:
  struct Stream;
  struct Shard;
  struct PendingOp;

  Stream *findStream(StreamId Id) const;
  Stream &streamRef(StreamId Id) const;
  bool postOp(StreamId Id, std::shared_ptr<PendingOp> Op,
              std::vector<uint8_t> *Out, std::string &Error);
  void consumerLoop(Shard &S);
  bool serviceStream(Stream &S, Shard &Home);
  void applyDueOps(Stream &S);
  void finishStream(Stream &S);
  static std::vector<uint8_t> serializeStream(const Stream &S);
  StreamHandle registerStream(std::unique_ptr<Stream> NewStream);

  ServeConfig Cfg;
  std::vector<std::unique_ptr<Shard>> Shards;

  mutable std::mutex MapMutex;
  std::unordered_map<StreamId, Stream *> ById;
  StreamId NextId = 1;

  std::atomic<bool> Stopping{false};
  std::atomic<uint64_t> SnapshotsTaken{0};
  std::atomic<uint64_t> Reconfigs{0};
  std::atomic<uint64_t> StreamsFinished{0};
};

} // namespace serve
} // namespace specctrl

#endif // SPECCTRL_SERVE_STREAMSERVER_H
