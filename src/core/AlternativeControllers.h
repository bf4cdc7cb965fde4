//===- core/AlternativeControllers.h - Related-work policies ----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Speculation-control policies from the paper's related-work discussion,
/// implemented so its comparative claims can be tested:
///
///  * DynamoFlushController (Sec. 5): Dynamo does not monitor behavior but
///    preemptively flushes its fragment cache when program phases change,
///    forcing wholesale re-optimization.  The paper predicts this policy
///    "will likely perform somewhere between closed-loop and open-loop
///    policies".  Modeled as one-shot classification plus a periodic
///    global flush that revokes everything and re-monitors.
///
///  * HardwareCounterController (Sec. 1): hardware speculation decides
///    per *instance* with saturating counters consulted in the pipeline's
///    front end.  It needs no re-optimization at all, so it serves as the
///    fine-grain-control reference the paper contrasts software
///    speculation against -- maximal adaptivity, but only available when
///    the optimization can be applied in flight.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_CORE_ALTERNATIVECONTROLLERS_H
#define SPECCTRL_CORE_ALTERNATIVECONTROLLERS_H

#include "core/Controller.h"
#include "core/ReactiveConfig.h"

#include <vector>

namespace specctrl {
namespace core {

/// Dynamo-style control: classify each site once (open loop), but flush
/// every deployment and restart monitoring every FlushInterval dynamic
/// instructions, coarsely tracking phase changes without per-site
/// feedback.
class DynamoFlushController : public SpeculationController {
public:
  /// \p FlushInterval is in dynamic instructions (Dynamo's preemptive
  /// fragment-cache flushes).  Classification parameters (monitor period,
  /// threshold, latency) come from \p Config; the reactive arcs are
  /// ignored -- flushing is the only feedback.  Throws
  /// std::invalid_argument when \p FlushInterval is 0.
  DynamoFlushController(const ReactiveConfig &Config,
                        uint64_t FlushInterval);

  BranchVerdict onBranch(SiteId Site, bool Taken, uint64_t InstRet) override;
  bool isDeployed(SiteId Site) const override;
  bool deployedDirection(SiteId Site) const override;
  const ControlStats &stats() const override { return Stats; }
  ControlStats &stats() override { return Stats; }
  const char *name() const override { return "dynamo-flush"; }

  uint64_t flushes() const { return Flushes; }

private:
  struct SiteState {
    uint32_t MonitorExecs = 0;
    uint32_t MonitorTaken = 0;
    bool Classified = false; ///< one-shot decision made (this epoch)
    bool Deployed = false;
    bool Direction = false;
    uint64_t ReadyAt = 0;
    bool Pending = false;
    bool PendingDir = false;
  };

  SiteState &state(SiteId Site);

  ReactiveConfig Config;
  uint64_t FlushInterval;
  uint64_t NextFlushAt;
  uint64_t Flushes = 0;
  std::vector<SiteState> States;
  ControlStats Stats;
};

/// Hardware-style per-instance control: a table of 2-bit saturating
/// counters (one per static site -- an idealized untagged predictor)
/// decides each execution individually; "speculated" means the counter
/// was confident (saturated) for that instance.  No code changes, no
/// latency -- the fine-grain reference point.
class HardwareCounterController : public SpeculationController {
public:
  HardwareCounterController() = default;

  BranchVerdict onBranch(SiteId Site, bool Taken, uint64_t InstRet) override;
  bool isDeployed(SiteId Site) const override;
  bool deployedDirection(SiteId Site) const override;
  const ControlStats &stats() const override { return Stats; }
  ControlStats &stats() override { return Stats; }
  const char *name() const override { return "hardware-2bit"; }

private:
  std::vector<uint8_t> Counters; ///< 0..3 per site, init weakly-not-taken
  ControlStats Stats;
};

} // namespace core
} // namespace specctrl

#endif // SPECCTRL_CORE_ALTERNATIVECONTROLLERS_H
