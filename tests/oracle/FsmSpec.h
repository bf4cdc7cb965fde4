//===- tests/oracle/FsmSpec.h - The Fig. 4(b) FSM as rules ---*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test oracle for core::ReactiveController: the paper's per-branch
/// control FSM (Sec. 3, Fig. 4(b)) written down as rules from PAPER.md,
/// DESIGN.md, Table 2 and the field comments of core/ReactiveConfig.h.
/// It shares no code with core/ReactiveController.cpp: it keeps one plain
/// record per site, steps one event at a time, applies every code change
/// lazily (even at zero latency), and uses no packing, no batching and no
/// branchless accounting.  Only the data types it reports in
/// (ReactiveConfig, ControlStats, BranchVerdict) come from src/core.
/// Where those documents leave a detail open (which monitored execution
/// is sampled, where a tie classifies, what a classification does while
/// a change is in flight, what a second eviction does to Fig. 6's count),
/// the rule below states the controller's choice, so a disagreement there
/// is a change of behaviour to be made on purpose in both.
///
/// The rules, per execution of a site, in order:
///
///  1. The site is touched.  A code change requested at dynamic
///     instruction X is live from the site's first execution at or after
///     X + OptLatency (deployment only matters when the branch runs).
///  2. The execution is speculated iff the live code speculates on the
///     site, and correct iff it also went the speculated way: accounting
///     is against the deployed code, never the FSM state.
///  3. Fig. 6: the first 64 executions after an eviction are counted
///     against the direction that was deployed when it happened; the 64th
///     emits a TransitionRecord (a later eviction restarts the count).
///  4. The FSM moves:
///     - monitor: count the execution, and sample it when it is the N-th
///       of N (monitor sampling, N = MonitorSampleRate).  After at least
///       MonitorPeriod executions with a sample, classify: the majority
///       direction (ties go taken) over the samples is the bias.  Below
///       SelectThreshold the site goes unbiased.  Otherwise, with a code
///       change still in flight, it monitors again from zero; having
///       been optimized OscillationLimit times (0 = no limit), it is
///       excluded for good (unbiased, never revisited; a suppressed
///       request); else it goes biased and requests a deploy.
///     - biased: with eviction enabled, and only once the deploy is live,
///       each execution is right or wrong against the deployed direction.
///       The continuous rule adds EvictUp per wrong and takes EvictDown
///       per right (not below zero), evicting when the count reaches
///       EvictSaturation.  The sampled rule looks at the first
///       EvictSampleCount executions of every EvictSampleWindow and
///       evicts when the fraction right among them, taken when the
///       last of them runs, is below EvictSampleBias.  An eviction
///       requests a revoke and returns the site to monitor.
///     - unbiased: with revisits enabled and the site not excluded, after
///       WaitPeriod executions it returns to monitor (a revisit).
///
/// With a request sink (the mode MSSP runs the controller in), rule 1's
/// latency is not used: each requested change is reported to the sink as
/// it is requested, in stream order, and goes live at the site's first
/// execution after completeRequest() -- which the sink may call from
/// inside its onRequest, before the next event.  These are the contract
/// ReactiveController::setRequestSink documents.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_TESTS_ORACLE_FSMSPEC_H
#define SPECCTRL_TESTS_ORACLE_FSMSPEC_H

#include "core/Controller.h"
#include "core/ReactiveConfig.h"

#include <cstdint>
#include <vector>

namespace specctrl {
namespace oracle {

class FsmSpec {
public:
  explicit FsmSpec(const core::ReactiveConfig &Config) : Config(Config) {}

  /// Reports code changes to \p Sink; each takes effect only once
  /// completeRequest() is called for its site.
  void setRequestSink(core::OptRequestSink *Sink) { RequestSink = Sink; }
  /// The optimizer finished the change requested for \p Site.
  void completeRequest(uint32_t Site);

  /// Feeds one dynamic branch of site \p Site; \p InstRet is the dynamic
  /// instruction count at the branch.
  core::BranchVerdict step(uint32_t Site, bool Taken, uint64_t InstRet);

  /// Everything observed so far, in the controller's report shape.
  const core::ControlStats &stats() const { return Stats; }

private:
  enum class Phase { Monitor, Biased, Unbiased };

  struct SiteRecord {
    Phase State = Phase::Monitor;

    // The code the site runs, and the change requested for it.
    bool Speculating = false;
    bool SpeculatedTaken = false;
    bool ChangeRequested = false;
    bool ChangeSpeculates = false;
    bool ChangeTaken = false;
    uint64_t ChangeLiveAt = 0;

    // Monitor.
    uint64_t Executions = 0;
    uint64_t Samples = 0;
    uint64_t SampledTaken = 0;

    // Biased.
    uint64_t EvictCount = 0;
    uint64_t WindowPosition = 0;
    uint64_t WindowWrong = 0;

    // Unbiased.
    uint64_t Waited = 0;
    bool Excluded = false;

    uint64_t Optimizations = 0;

    // Fig. 6 vicinity after the latest eviction.
    uint64_t VicinityLeft = 0;
    uint64_t VicinityAgainst = 0;
    bool VicinityTaken = false;
  };

  void monitor(uint32_t Site, SiteRecord &R, bool Taken, uint64_t InstRet);
  void biased(uint32_t Site, SiteRecord &R, bool Taken, uint64_t InstRet);
  void unbiased(SiteRecord &R);
  void classify(uint32_t Site, SiteRecord &R, uint64_t InstRet);
  void evict(uint32_t Site, SiteRecord &R, uint64_t InstRet);
  void requestChange(uint32_t Site, SiteRecord &R, bool Speculate,
                     bool Taken, uint64_t InstRet);
  static void startMonitoring(SiteRecord &R);

  core::ReactiveConfig Config;
  core::OptRequestSink *RequestSink = nullptr;
  std::vector<SiteRecord> Sites;
  core::ControlStats Stats;
};

} // namespace oracle
} // namespace specctrl

#endif // SPECCTRL_TESTS_ORACLE_FSMSPEC_H
