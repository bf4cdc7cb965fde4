//===- workload/TraceArena.h - Materialize-once trace store -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, thread-safe, generate-once store for materialized branch
/// traces.  Parameter sweeps (Tables 3/4, Figs. 5/6) replay the identical
/// (workload, input) event stream under many controller configurations;
/// without the arena every sweep cell re-synthesizes that stream from the
/// statistical model, so sweep wall time scales with configurations x
/// synthesis cost.  The arena materializes each trace exactly once -- in
/// the compact SCT2 block encoding -- and hands out independent zero-copy
/// TraceCursors that decode blocks straight into the caller's batch
/// buffer, making sweeps scale with configurations x replay cost.
///
/// Guarantees:
///  * Stream identity -- a cursor's event stream is bit-identical to the
///    TraceGenerator stream for the same (spec, input), including Index and
///    InstRet (the SCT2 round-trip property; pinned by TraceArenaTest).
///  * Generate-once under concurrency -- the first thread to request a key
///    materializes under a per-key std::call_once; racing threads block on
///    that key only, then share the immutable encoded trace.
///  * Graceful fallback -- a trace that cannot be encoded (site or gap
///    beyond the SCT2 format limits) is served by a private TraceGenerator
///    instead, so callers never need a non-arena code path for
///    correctness.
///
/// An optional disk tier (Config::CacheDir) persists materializations as
/// page-aligned SCT2 files named by the key hash, so repeated tool
/// invocations amortize the same way sweep cells do.  With a disk tier,
/// materialize() returns the cache file mapped read-only: cursors decode
/// blocks in place from a mapping the kernel shares across every process
/// replaying the same file, so the trace is never resident at all.  A miss stream-generates
/// straight to the file; a hit verifies the whole file (checksums +
/// checked decode, bounded by one block buffer) before serving it and
/// regenerates it on any mismatch, so a stream never fails mid-replay on
/// stale corruption.
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

/// Arena accounting (snapshot via TraceArena::stats()).
struct TraceArenaStats {
  uint64_t Materializations = 0; ///< traces generated into memory
  uint64_t CursorOpens = 0;      ///< replay cursors handed out
  uint64_t Fallbacks = 0;        ///< opens served by a private generator
  uint64_t ResidentEvents = 0;   ///< events materialized in memory
  uint64_t ResidentBytes = 0;    ///< encoded bytes resident in memory
  uint64_t MmapLoads = 0;        ///< keys served from a disk-tier hit
  uint64_t MmapStores = 0;       ///< keys stream-generated to the disk tier
  uint64_t MappedBytes = 0;      ///< file bytes served via the disk tier
};

/// The materialize-once store.  Keyed by an injective serialization of
/// (WorkloadSpec, InputConfig) -- every field that can influence the
/// generated stream, seeds included -- so distinct runs never alias.
class TraceArena {
public:
  struct Config {
    /// Disk tier directory; empty keeps every trace resident.
    std::string CacheDir;
    /// Events per SCT2 block (default matches the pipeline chunk size).
    uint32_t BlockEvents = TraceV2BlockEvents;
    /// Log materializations (events, encoded bytes, per-block compression
    /// ratio, tier) to stderr.  Also enabled by SPECCTRL_ARENA_VERBOSE=1 (RunConfig).
    bool Verbose = false;
  };

  TraceArena();
  explicit TraceArena(Config C);
  TraceArena(const TraceArena &) = delete;
  TraceArena &operator=(const TraceArena &) = delete;

  /// Returns a TraceCursor over materialize(Spec, Input).  Thread-safe;
  /// concurrent opens of a cold key block until the single
  /// materialization finishes.  When the trace cannot be encoded, returns
  /// a private TraceGenerator instead (identical stream, no sharing).
  std::unique_ptr<EventSource> open(const WorkloadSpec &Spec,
                                    const InputConfig &Input);

  /// The materialized trace for (Spec, Input) -- the mapped disk-tier
  /// file with a CacheDir, the resident image otherwise -- or nullptr when
  /// the trace cannot be encoded.  Same thread-safety as open().
  std::shared_ptr<const MaterializedTrace>
  materialize(const WorkloadSpec &Spec, const InputConfig &Input);

  TraceArenaStats stats() const;

private:
  struct Entry {
    std::once_flag Once;
    std::shared_ptr<const MaterializedTrace> Trace; ///< null = fallback key
  };

  /// Injective byte-string key over every stream-relevant field.
  static std::string keyOf(const WorkloadSpec &Spec,
                           const InputConfig &Input);

  std::shared_ptr<const MaterializedTrace>
  materializeKey(const std::string &Key, const WorkloadSpec &Spec,
                 const InputConfig &Input);
  /// The disk-tier file for \p Key, verified on a hit and generated on a
  /// miss; nullptr when it cannot be served (unencodable trace, disk
  /// trouble), in which case the key falls back to the resident image.
  std::shared_ptr<const MaterializedTrace>
  mapCached(const std::string &Key, const WorkloadSpec &Spec,
            const InputConfig &Input);
  /// The disk-tier cache file path for \p Key.
  std::string cachePathOf(const std::string &Key) const;

  Config Cfg;
  mutable std::mutex Mutex;
  std::unordered_map<std::string, std::unique_ptr<Entry>> Entries;
  TraceArenaStats Stats; ///< guarded by Mutex
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_TRACEARENA_H
