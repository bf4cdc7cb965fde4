//===- core/ReactiveController.h - The Fig. 4(b) FSM policy -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's reactive speculation-control model (Sec. 3, Fig. 4(b)): a
/// per-static-branch finite state machine
///
///        +--------------------- eviction ----------------------+
///        v                                                      |
///   [ monitor ] --(bias >= select threshold)---------------> [ biased ]
///        |  ^
///        |  +------------------ revisit -----------------+
///        +--(bias < select threshold)--> [ unbiased ] ----+
///
/// with the paper's oscillation mitigations: a 10k-execution monitor
/// period, hysteresis via a +50/-1 saturating counter capped at 10k, a
/// 1M-execution wait in the unbiased state, and a hard per-site
/// optimization cap.  Transitions into/out of the biased state request
/// code re-optimization, which completes after a modeled latency (the
/// paper's 1M instructions) or, with an external sink attached, whenever
/// the real optimizer (e.g. the MSSP distiller) reports completion.
/// Correct/incorrect speculation is accounted against the *deployed* code,
/// not the FSM state, exactly as the paper specifies.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_CORE_REACTIVECONTROLLER_H
#define SPECCTRL_CORE_REACTIVECONTROLLER_H

#include "core/Controller.h"
#include "core/ReactiveConfig.h"

#include <vector>

namespace specctrl {
namespace core {

/// The reactive control policy (and, with arcs disabled via the config,
/// the one-shot/open-loop baselines).
class ReactiveController : public SpeculationController {
public:
  /// Throws std::invalid_argument naming the violation when
  /// Config.validate() reports one, in every build.
  explicit ReactiveController(const ReactiveConfig &Config = {},
                              const char *Name = "reactive");

  /// Routes re-optimization requests to \p Sink instead of the built-in
  /// instruction-latency model; the caller must then invoke
  /// completeRequest() when each optimization finishes.
  void setRequestSink(OptRequestSink *Sink) { ExternalSink = Sink; }

  /// Completes the outstanding request for \p Site (external mode).
  void completeRequest(SiteId Site);

  /// True if \p Site has an outstanding (unfinished) request.
  bool hasPendingRequest(SiteId Site) const;

  /// Per-site FSM state, exposed for tests and the MSSP optimizer.
  enum class FsmState : uint8_t { Monitor, Biased, Unbiased };
  FsmState fsmState(SiteId Site) const;

  /// True if the site hit the oscillation cap and is permanently excluded.
  bool isOscillationCapped(SiteId Site) const;

  // SpeculationController interface.
  BranchVerdict onBranch(SiteId Site, bool Taken, uint64_t InstRet) override;
  /// Batch path: identical verdicts and final stats to per-event feeding,
  /// with whole-run accounting (branch count, last instret) hoisted out of
  /// the FSM loop.
  void onBatch(std::span<const workload::BranchEvent> Events,
               BranchVerdict *Verdicts) override;
  bool isDeployed(SiteId Site) const override;
  bool deployedDirection(SiteId Site) const override;
  const ControlStats &stats() const override { return Stats; }
  ControlStats &stats() override { return Stats; }
  const char *name() const override { return PolicyName; }

  const ReactiveConfig &config() const { return Config; }

private:
  enum class PendingKind : uint8_t { None, Deploy, Revoke };

  /// Field order packs the struct into exactly one cache line (bytes,
  /// then u32s, then u64s), and the alignment keeps each site from
  /// straddling two: step() touches one line per event, which bounds the
  /// FSM's cache footprint on wide-site workloads.
  struct alignas(64) SiteState {
    FsmState State = FsmState::Monitor;
    bool Deployed = false;
    bool DeployedDir = false;
    bool Blacklisted = false;
    PendingKind Pending = PendingKind::None;
    bool PendingDir = false;
    // Fig. 6 transition recording.
    uint8_t TransRemaining = 0;
    uint8_t TransWrong = 0;
    bool TransOriginalDir = false;
    uint32_t Optimizations = 0;
    // Monitor state.
    uint32_t MonitorExecs = 0;
    uint32_t MonitorSampled = 0;
    uint32_t MonitorTaken = 0;
    // Biased state: eviction by sampling.
    uint32_t WindowPos = 0;
    uint32_t SampleSeen = 0;
    uint32_t SampleWrong = 0;
    uint64_t ReadyAt = 0;
    // Biased state: continuous eviction counter.
    uint64_t EvictCounter = 0;
    // Unbiased state.
    uint64_t WaitExecs = 0;
  };
  static_assert(sizeof(SiteState) == 64,
                "SiteState must stay within one cache line");

  SiteState &state(SiteId Site);
  /// The per-event FSM work minus the whole-run accounting (which
  /// onBranch/onBatch perform per event resp. per chunk).
  BranchVerdict step(SiteId Site, bool Taken, uint64_t InstRet);
  void applyPending(SiteState &S);
  void issueRequest(SiteId Site, SiteState &S, OptRequestKind Kind,
                    bool Direction, uint64_t InstRet);
  void enterMonitor(SiteState &S);
  void classify(SiteId Site, SiteState &S, uint64_t InstRet);
  void updateBiased(SiteId Site, SiteState &S, bool Taken, uint64_t InstRet);
  void evict(SiteId Site, SiteState &S, uint64_t InstRet);

  ReactiveConfig Config;
  const char *PolicyName;
  OptRequestSink *ExternalSink = nullptr;
  std::vector<SiteState> States;
  ControlStats Stats;
};

} // namespace core
} // namespace specctrl

#endif // SPECCTRL_CORE_REACTIVECONTROLLER_H
