//===- core/Driver.h - Run controllers over workload traces -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between the workload substrate and speculation controllers: feeds
/// a trace to a controller (and optional per-event observers), the
/// single-run primitive behind the abstract-model experiments (Figs.
/// 2/5/6, Tables 3/4).  Multi-run experiments (suites, config sweeps)
/// go through engine::runPlan, which calls these primitives once per
/// cell.
///
/// There is one run path, batched: events stream through a reusable chunk
/// arena (workload::DefaultBatchEvents per chunk by default), the
/// controller scores each chunk via one onBatch call, and observers see
/// the same chunk through TraceObserver::onBatch.  Every chunk size gives
/// bit-identical ControlStats and observer event sequences; the
/// equivalence property tests pin this against a per-event loop of their
/// own.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_CORE_DRIVER_H
#define SPECCTRL_CORE_DRIVER_H

#include "core/Controller.h"
#include "profile/BranchProfile.h"
#include "workload/TraceGenerator.h"

namespace specctrl {
namespace core {

/// Per-event observer: sees every (event, verdict) pair the driver feeds.
/// Benches use observers to collect bias series or profiles alongside the
/// controller; the engine constructs one per cell so collection composes
/// with parallel runs.  Observers are move-only by design: the engine
/// hands each cell's observer around by unique_ptr, and an accidental
/// copy would silently fork (and then drop) collected state.
class TraceObserver {
public:
  virtual ~TraceObserver();
  virtual void onEvent(const workload::BranchEvent &Event,
                       const BranchVerdict &Verdict) = 0;

  /// Sees one driver chunk (parallel arrays, one verdict per event).  The
  /// default forwards to onEvent in order, so per-event observers work
  /// unchanged under the batched path; throughput-sensitive observers
  /// override it.
  virtual void onBatch(std::span<const workload::BranchEvent> Events,
                       std::span<const BranchVerdict> Verdicts);
};

/// An observer that accumulates a whole-run branch profile (the common
/// per-cell collection need).
class ProfileObserver final : public TraceObserver {
public:
  explicit ProfileObserver(uint32_t NumSites) : Profile(NumSites) {}
  ProfileObserver(const ProfileObserver &) = delete;
  ProfileObserver &operator=(const ProfileObserver &) = delete;
  void onEvent(const workload::BranchEvent &Event,
               const BranchVerdict &) override {
    Profile.addOutcome(Event.Site, Event.Taken);
  }
  void onBatch(std::span<const workload::BranchEvent> Events,
               std::span<const BranchVerdict>) override {
    for (const workload::BranchEvent &Event : Events)
      Profile.addOutcome(Event.Site, Event.Taken);
  }
  const profile::BranchProfile &profile() const { return Profile; }

private:
  profile::BranchProfile Profile;
};

/// Feeds the entire remaining stream of \p Source to \p Controller in
/// chunks of \p BatchEvents (at least one event each), notifying
/// \p Observer (when non-null) of every chunk.  Records the number of
/// events consumed into the controller's ControlStats::EventsConsumed and
/// returns the final stats (also available via Controller.stats()).
const ControlStats &
runTrace(SpeculationController &Controller, workload::EventSource &Source,
         TraceObserver *Observer = nullptr,
         size_t BatchEvents = workload::DefaultBatchEvents);

/// Convenience: build the generator for (Spec, Input) and run it.
const ControlStats &
runWorkload(SpeculationController &Controller,
            const workload::WorkloadSpec &Spec,
            const workload::InputConfig &Input,
            TraceObserver *Observer = nullptr,
            size_t BatchEvents = workload::DefaultBatchEvents);

} // namespace core
} // namespace specctrl

#endif // SPECCTRL_CORE_DRIVER_H
