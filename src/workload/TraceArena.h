//===- workload/TraceArena.h - Shared materialized traces -------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe store that materializes each branch trace once for as
/// long as its readers need it.  Parameter sweeps (Table 4, Fig. 5, the
/// ablations) replay the identical (workload, input) event stream under
/// many controller configurations; without the arena every sweep cell
/// re-synthesizes that stream from the statistical model, so sweep wall
/// time scales with configurations x synthesis cost.  The arena
/// materializes each trace once -- in the compact SCT2 block encoding --
/// and hands out independent zero-copy TraceCursors that decode blocks
/// straight into the caller's batch buffer, making sweeps scale with
/// configurations x replay cost.
///
/// Guarantees:
///  * Stream identity -- a cursor's event stream is bit-identical to the
///    TraceGenerator stream for the same (spec, input), including the
///    derived InstRet (the SCT2 round-trip property; pinned by
///    TraceArenaTest).
///  * Generate-once under concurrency -- the first thread to request a key
///    materializes it under that key's mutex; racing threads block on
///    that key only, then share the immutable encoded trace.
///  * Bounded residency -- the arena retains a key's trace until
///    release(), which engine::runPlan calls when a key's last plan cell
///    ends.  The trace is freed when its last cursor closes; a later open
///    materializes it again, unless a cursor still reads it.  Keys nobody
///    releases stay retained for the arena's life.
///  * Graceful fallback -- a trace that cannot be encoded (site or gap
///    beyond the SCT2 format limits) is served by a private TraceGenerator
///    instead, so callers never need a non-arena code path for
///    correctness.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_TRACEARENA_H
#define SPECCTRL_WORKLOAD_TRACEARENA_H

#include "workload/TraceFile.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace specctrl {
namespace workload {

/// Arena accounting (snapshot via TraceArena::stats()).  The counts are
/// cumulative over the arena's life: a key released and materialized
/// again counts twice in Materializations, ResidentEvents and
/// ResidentBytes, which never fall on release.
struct TraceArenaStats {
  uint64_t Materializations = 0; ///< traces generated into memory
  uint64_t CursorOpens = 0;      ///< replay cursors handed out
  uint64_t Fallbacks = 0;        ///< opens served by a private generator
  uint64_t ResidentEvents = 0;   ///< events generated into memory
  uint64_t ResidentBytes = 0;    ///< encoded bytes generated into memory
  uint64_t Releases = 0;         ///< retained traces release() dropped
  /// High-water count of keys whose trace the arena retained at once
  /// (materialized and not yet released).
  uint64_t PeakResidentKeys = 0;
};

/// The trace store.  Keyed by an injective serialization of
/// (WorkloadSpec, InputConfig) -- every field that can influence the
/// generated stream, seeds included -- so distinct runs never alias.
class TraceArena {
public:
  TraceArena();
  TraceArena(const TraceArena &) = delete;
  TraceArena &operator=(const TraceArena &) = delete;

  /// Returns a TraceCursor over materialize(Spec, Input).  Thread-safe;
  /// concurrent opens of a cold key block until the single
  /// materialization finishes.  When the trace cannot be encoded, returns
  /// a private TraceGenerator instead (identical stream, no sharing).
  std::unique_ptr<EventSource> open(const WorkloadSpec &Spec,
                                    const InputConfig &Input);

  /// The materialized trace for (Spec, Input), or nullptr when the trace
  /// cannot be encoded.  The arena retains it until release().
  /// Same thread-safety as open().
  std::shared_ptr<const MaterializedTrace>
  materialize(const WorkloadSpec &Spec, const InputConfig &Input);

  /// Drops the arena's own reference to (Spec, Input)'s trace; a no-op
  /// when it retains none.  Open cursors keep replaying it, and the trace
  /// is freed when the last one closes.  Thread-safe.
  void release(const WorkloadSpec &Spec, const InputConfig &Input);

  TraceArenaStats stats() const;

private:
  struct Entry {
    /// Serializes this key's materialization and release.
    std::mutex Mutex;
    /// The trace while anyone holds it, so a key reopened while a cursor
    /// still reads it is not materialized twice.
    std::weak_ptr<const MaterializedTrace> Live;
    /// The arena's own reference; release() resets it.
    std::shared_ptr<const MaterializedTrace> Retained;
    bool Unencodable = false; ///< served by private generators
  };

  /// Injective byte-string key over every stream-relevant field.
  static std::string keyOf(const WorkloadSpec &Spec,
                           const InputConfig &Input);

  /// Generates (Spec, Input)'s trace into memory; nullptr when it cannot
  /// be encoded.
  std::shared_ptr<const MaterializedTrace>
  materializeKey(const WorkloadSpec &Spec, const InputConfig &Input);

  /// Log materializations (events, encoded bytes, per-block compression
  /// ratio) and releases to stderr: SPECCTRL_ARENA_VERBOSE=1 (RunConfig).
  const bool Verbose;
  mutable std::mutex Mutex;
  std::unordered_map<std::string, std::unique_ptr<Entry>> Entries;
  TraceArenaStats Stats;     ///< guarded by Mutex
  uint64_t ResidentKeys = 0; ///< keys retained now; guarded by Mutex
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_TRACEARENA_H
