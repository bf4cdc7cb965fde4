//===- core/Driver.h - Run controllers over workload traces -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between the workload substrate and speculation controllers: feeds
/// a trace to a controller, the single-run primitive behind the
/// abstract-model experiments (Figs. 5/6, Tables 3/4), and drains a trace
/// into a whole-run branch profile, the primitive behind the profile
/// computations (Fig. 2, Fig. 5's self-training line).  Multi-run
/// experiments (suites, config sweeps) go through engine::runPlan, whose
/// cells call these primitives.
///
/// There is one run path, batched: events stream through a reusable chunk
/// arena (workload::DefaultBatchEvents per chunk by default) and the
/// controller scores each chunk via one onBatch call.  Every chunk size
/// gives bit-identical ControlStats and verdicts; the equivalence
/// property tests pin this against a per-event loop of their own.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_CORE_DRIVER_H
#define SPECCTRL_CORE_DRIVER_H

#include "core/Controller.h"
#include "profile/BranchProfile.h"
#include "workload/TraceGenerator.h"

namespace specctrl {
namespace core {

/// Feeds the entire remaining stream of \p Source to \p Controller in
/// chunks of \p BatchEvents (at least one event each).  Records the
/// number of events consumed into the controller's
/// ControlStats::EventsConsumed and returns the final stats (also
/// available via Controller.stats()).
const ControlStats &
runTrace(SpeculationController &Controller, workload::EventSource &Source,
         size_t BatchEvents = workload::DefaultBatchEvents);

/// Convenience: build the generator for (Spec, Input) and run it.
const ControlStats &
runWorkload(SpeculationController &Controller,
            const workload::WorkloadSpec &Spec,
            const workload::InputConfig &Input,
            size_t BatchEvents = workload::DefaultBatchEvents);

/// Drains the remaining stream of \p Source into a whole-run profile of
/// per-site outcome counts over \p NumSites sites.
profile::BranchProfile collectProfile(workload::EventSource &Source,
                                      uint32_t NumSites);

} // namespace core
} // namespace specctrl

#endif // SPECCTRL_CORE_DRIVER_H
