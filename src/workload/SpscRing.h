//===- workload/SpscRing.h - Lock-free SPSC event ring ----------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded lock-free single-producer/single-consumer ring buffer carrying
/// BranchEvent batches -- the per-stream ingest queue of the streaming
/// ingest service (src/serve).  The design follows the classic
/// per-producer buffering split of tracing frameworks: exactly one thread
/// pushes (the stream's producer/client) and exactly one thread reads (the
/// consumer shard that owns the stream's controller), so the only shared
/// state is a pair of monotonic positions published with release stores and
/// read with acquire loads.  Each side additionally caches the other side's
/// last observed position, so steady-state batch transfers touch the remote
/// cache line only when the cached bound is insufficient.  Nothing is
/// copied out: the serve consumer runs onBatch on a peek()ed span and
/// consume()s it afterwards, so no slot is overwritten while still being
/// read, and a stream's footprint is its ring plus its controller.
///
/// Positions are unwrapped 64-bit counters (they never wrap in practice);
/// the buffer index is position & Mask with a power-of-two capacity.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_SPSCRING_H
#define SPECCTRL_WORKLOAD_SPSCRING_H

#include "workload/EventStream.h"

#include <atomic>
#include <bit>
#include <cstddef>
#include <span>
#include <vector>

namespace specctrl {
namespace workload {

/// A bounded SPSC ring of BranchEvents.  Thread contract: push/close are
/// producer-side (one thread at a time), peek/consume/drained are
/// consumer-side (one thread at a time); the two sides may run
/// concurrently.
class SpscRing {
public:
  /// The capacity of a ring built for \p MinEvents events: the next power
  /// of two, minimum 2.
  static size_t capacityFor(uint32_t MinEvents) {
    return std::bit_ceil(MinEvents < 2 ? size_t{2} : size_t{MinEvents});
  }

  /// Creates a ring holding capacityFor(MinEvents) events.
  explicit SpscRing(uint32_t MinEvents)
      : Buf(capacityFor(MinEvents)), Mask(Buf.size() - 1) {}

  SpscRing(const SpscRing &) = delete;
  SpscRing &operator=(const SpscRing &) = delete;

  size_t capacity() const { return Buf.size(); }

  /// Producer: appends as many of \p Events as fit and returns the count
  /// accepted (0 when the ring is full).  Partial pushes take a prefix, so
  /// the caller retries with the remainder and FIFO order is preserved.
  size_t push(std::span<const BranchEvent> Events) {
    const uint64_t T = Tail.load(std::memory_order_relaxed);
    size_t Free = capacity() - static_cast<size_t>(T - CachedHead);
    if (Free < Events.size()) {
      CachedHead = Head.load(std::memory_order_acquire);
      Free = capacity() - static_cast<size_t>(T - CachedHead);
    }
    const size_t N = Events.size() < Free ? Events.size() : Free;
    for (size_t I = 0; I < N; ++I)
      Buf[static_cast<size_t>(T + I) & Mask] = Events[I];
    if (N)
      Tail.store(T + N, std::memory_order_release);
    return N;
  }

  /// Consumer: the oldest unconsumed events, at most \p Max, as a span of
  /// the ring's own slots (empty when the ring is empty).  The span stops
  /// at the wrap point; the next peek returns the rest.  The producer
  /// cannot overwrite these slots until consume() releases them.
  std::span<const BranchEvent> peek(size_t Max) {
    const uint64_t H = Head.load(std::memory_order_relaxed);
    const size_t First = static_cast<size_t>(H) & Mask;
    if (Max > capacity() - First)
      Max = capacity() - First;
    size_t Avail = static_cast<size_t>(CachedTail - H);
    if (Avail < Max) {
      CachedTail = Tail.load(std::memory_order_acquire);
      Avail = static_cast<size_t>(CachedTail - H);
    }
    return {Buf.data() + First, Avail < Max ? Avail : Max};
  }

  /// Consumer: hands the first \p N events of the last peek back to the
  /// producer.  Call it only once nothing reads those slots any more.
  void consume(size_t N) {
    Head.store(Head.load(std::memory_order_relaxed) + N,
               std::memory_order_release);
  }

  /// Producer: marks the stream complete.  Must follow the final push.
  void close() { Closed.store(true, std::memory_order_release); }

  bool closed() const { return Closed.load(std::memory_order_acquire); }

  /// Consumer: true once the producer closed the ring and every pushed
  /// event has been consumed.  The acquire load of Closed orders the final
  /// Tail publication, so a true result is final.
  bool drained() const {
    if (!Closed.load(std::memory_order_acquire))
      return false;
    return Tail.load(std::memory_order_acquire) ==
           Head.load(std::memory_order_relaxed);
  }

  /// Approximate occupancy (either side; exact only on the calling side).
  size_t sizeApprox() const {
    return static_cast<size_t>(Tail.load(std::memory_order_acquire) -
                               Head.load(std::memory_order_acquire));
  }

  /// Total events ever pushed (producer-side exact, elsewhere approximate).
  uint64_t pushedApprox() const {
    return Tail.load(std::memory_order_acquire);
  }

private:
  std::vector<BranchEvent> Buf;
  size_t Mask = 0;
  /// Producer-published write position (events ever pushed).
  alignas(64) std::atomic<uint64_t> Tail{0};
  /// Consumer-published read position (events ever consumed).
  alignas(64) std::atomic<uint64_t> Head{0};
  std::atomic<bool> Closed{false};
  /// Producer-owned cache of Head; refreshed only when the ring looks full.
  alignas(64) uint64_t CachedHead = 0;
  /// Consumer-owned cache of Tail; refreshed only when it looks empty.
  alignas(64) uint64_t CachedTail = 0;
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_SPSCRING_H
