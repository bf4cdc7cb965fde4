//===- support/RunConfig.h - Process-wide run configuration -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single typed carrier for cross-cutting run knobs.  The environment
/// is parsed exactly once into RunConfig::global(); tool and bench mains
/// may override it from the command line (BenchCommon's --verify-distill
/// / --arena-verbose) before any work starts, and libraries read the
/// parsed struct instead of calling getenv.
///
/// Canonical environment variables:
///
///   SPECCTRL_VERIFY=1            deploy-time distill verification gate
///   SPECCTRL_ARENA_VERBOSE=1     per-materialization trace-arena logging
///   SPECCTRL_SERVE_EPOCH_EVENTS=N   serve-layer epoch length (events)
///   SPECCTRL_SERVE_RING_EVENTS=N    serve-layer ingest ring capacity
///   SPECCTRL_SWEEP_PROCS=N       specctrl-sweep worker processes (0=cores)
///   SPECCTRL_VERIFY_SPECLEAK=0   opt out of the SpecLeak verifier check
///
/// Removed variables (SPECCTRL_VERIFY_DISTILL, SPECCTRL_ARENA_DEBUG,
/// SPECCTRL_TRACE_MMAP) are not read; a one-line warning says so when one
/// is set, so a script relying on one learns it has no effect.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_SUPPORT_RUNCONFIG_H
#define SPECCTRL_SUPPORT_RUNCONFIG_H

#include <cstdint>
#include <string>

namespace specctrl {

/// Typed run configuration, parsed once per process.
struct RunConfig {
  /// Deploy-time static speculation-safety verification: the distiller,
  /// code cache, and execution engine verify every code version before it
  /// can be dispatched (analysis/DistillVerifier.h).
  bool VerifyDistill = false;
  /// Per-materialization trace-arena logging to stderr.
  bool ArenaVerbose = false;
  /// Default epoch length (events per stream between control-op points)
  /// for serve/StreamServer; snapshots and reconfigurations land exactly
  /// on multiples of this.
  uint64_t ServeEpochEvents = 8192;
  /// Default per-stream ingest ring capacity, in events (rounded up to a
  /// power of two by the ring).
  uint64_t ServeRingEvents = 8192;
  /// Worker-process count for multi-process sweeps (engine/ProcessPool.h,
  /// tools/specctrl-sweep); 0 selects the hardware concurrency.
  uint64_t SweepProcs = 0;
  /// Run the speculative-leak check (analysis/SpecInterp.h) as part of
  /// deploy-time verification.  On by default when VerifyDistill is on;
  /// SPECCTRL_VERIFY_SPECLEAK=0 opts out while the check stabilizes.
  bool VerifySpecLeak = true;

  /// Parses the environment.  Pure: no warnings are printed; when
  /// \p Warnings is non-null any notes (malformed values, removed
  /// variables) are appended to it, one per line.
  static RunConfig fromEnv(std::string *Warnings = nullptr);

  /// The process-wide configuration.  First use parses the environment
  /// (printing any warnings to stderr once); later reads are plain loads.
  static const RunConfig &global();

  /// Replaces the process-wide configuration (CLI override).  Call from
  /// main before spawning workers; not synchronized against concurrent
  /// global() readers.
  static void setGlobal(const RunConfig &Config);
};

} // namespace specctrl

#endif // SPECCTRL_SUPPORT_RUNCONFIG_H
