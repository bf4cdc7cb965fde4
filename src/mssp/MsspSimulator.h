//===- mssp/MsspSimulator.h - MSSP execution-driven simulation --*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Master/Slave Speculative Parallelization timing simulation of
/// Sec. 4.  A synthesized SimIR program runs twice, in lockstep at task
/// granularity:
///
///  * the MASTER executes the speculative (distilled) code versions on the
///    leading core's timing model;
///  * the CHECKER executes the original program on the trailing cores'
///    timing model, providing ground truth: it feeds the branch and
///    value-invariance controllers, and its per-task state digest
///    verifies the master's.
///
/// Tasks are fixed iteration windows of the program's main loop.  Each
/// task is shipped to the earliest-free trailing core for verification
/// (paying coherence hops); tasks commit in order; the master stalls when
/// its checkpoint buffer fills.  A state mismatch is a task
/// misspeculation: the master's architectural state is restored from the
/// trailing execution and the master restarts after detection + recovery
/// latency -- hundreds of cycles, exactly the penalty regime that makes
/// speculation control matter.
///
/// Both executions run on the one SimIR engine (exec/ThreadedBackend.h)
/// under CoreTiming policies; verification compares only the writable
/// words either execution stored to in the task (see DESIGN.md for the
/// exactness argument).
///
/// The dynamic optimizer is the distiller: the controller's deploy/revoke
/// requests complete after a configurable optimization latency, at which
/// point the affected region is re-distilled under the current assertion
/// set and swapped into the master's code map.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_MSSP_MSSPSIMULATOR_H
#define SPECCTRL_MSSP_MSSPSIMULATOR_H

#include "core/ReactiveConfig.h"
#include "core/ReactiveController.h"
#include "core/ValueInvariance.h"
#include "distill/CodeCache.h"
#include "exec/ThreadedBackend.h"
#include "mssp/CoreTiming.h"
#include "mssp/MachineConfig.h"
#include "support/FlatHash.h"
#include "workload/ProgramSynthesizer.h"

#include <string>
#include <vector>

namespace specctrl {
namespace mssp {

/// MSSP simulation parameters.
struct MsspConfig {
  MachineConfig Machine;
  /// Speculation control policy (latency is handled by the simulator, not
  /// the controller's built-in model).
  core::ReactiveConfig Control;
  /// Cycles from a controller request to the new code version going live.
  uint64_t OptLatencyCycles = 0;
  /// Main-loop iterations per task (a task is a few hundred instructions);
  /// must be at least 1.
  unsigned TaskIterations = 4;
  /// Checkpoint-buffer depth: max unverified tasks in flight.
  unsigned MaxOutstandingTasks = 8;
  /// Also control load-value speculation reactively: a second instance of
  /// the Fig. 4(b) FSM watches every region load's value invariance and
  /// deploys/revokes compiled-in constants through the same distiller
  /// (Fig. 1's value half, under closed-loop control).
  bool EnableValueSpeculation = false;
  /// Policy for the value controller (defaults to Control with a shorter
  /// monitor; see the constructor).
  core::ReactiveConfig ValueControl;
  /// Stop after this many checker (architectural) instructions; 0 = run
  /// the program to completion.
  uint64_t MaxInstructions = 0;

  /// Names the first rule the configuration breaks ("" if valid).  The
  /// controller configs are checked by the controllers themselves.
  std::string validate() const {
    if (TaskIterations == 0)
      return "TaskIterations must be at least 1";
    if (MaxOutstandingTasks == 0)
      return "MaxOutstandingTasks must be at least 1";
    if (std::string Rule = Machine.validate(); !Rule.empty())
      return "Machine." + Rule;
    return {};
  }
};

/// Simulation outputs.
struct MsspResult {
  uint64_t TotalCycles = 0;   ///< end-to-end time (master + commit drain)
  uint64_t Tasks = 0;
  uint64_t TaskSquashes = 0;
  uint64_t MasterInstructions = 0;  ///< distilled instructions executed
  uint64_t CheckerInstructions = 0; ///< original instructions executed
  uint64_t OptRequests = 0;      ///< controller deploy+revoke requests
  /// Region code redeployments (each completed request batch rebuilds the
  /// affected regions once, running the distiller for each).
  uint64_t Regenerations = 0;
  /// Always 0: every rebuild runs the distiller.  This field and
  /// DistillCacheMisses stay because perfbench digests and reports both,
  /// so deleting them is a change to perfbench and its pinned digests.
  uint64_t DistillCacheHits = 0;
  /// Distiller runs, always equal to Regenerations (see DistillCacheHits).
  uint64_t DistillCacheMisses = 0;
  uint64_t MasterBranchMispredicts = 0;
  core::ControlStats Controller; ///< final branch-controller statistics
  core::ControlStats ValueController; ///< value-controller statistics

  /// Dynamic code shrinkage: distilled / original instruction counts.
  double distillationRatio() const {
    return CheckerInstructions
               ? static_cast<double>(MasterInstructions) /
                     static_cast<double>(CheckerInstructions)
               : 1.0;
  }
};

/// Runs one MSSP simulation over a synthesized program.
class MsspSimulator : private core::OptRequestSink {
public:
  /// Throws std::runtime_error naming the rule when Config.validate()
  /// reports one, in every build.  Borrows Program's memory image, as it
  /// borrows its module: Program must outlive the simulator.
  MsspSimulator(const workload::SynthProgram &Program,
                const MsspConfig &Config);
  ~MsspSimulator() override;

  /// Runs to completion (or the instruction cap) and returns the results.
  /// Single-shot: construct a new simulator for another run.  Throws
  /// std::runtime_error when either execution faults.
  MsspResult run();

private:
  /// The engine policies of the two executions (defined in the
  /// implementation file): the master's charges the leading core and
  /// marks task boundaries and dirty words; the checker's adds the
  /// controller feeds.
  class MasterPolicy;
  class CheckerPolicy;

  struct PendingOpt {
    core::OptRequest Request;
    uint64_t ReadyCycle = 0;
    bool IsValue = false;
  };

  /// Identifies a load site across the module (function + location).
  struct ValueSite {
    uint32_t Func = 0;
    distill::LocKey Loc;
  };

  // core::OptRequestSink (branch requests)
  void onRequest(const core::OptRequest &Request) override;
  /// Value-controller requests, tagged by the sink adapter.
  void onValueRequest(const core::OptRequest &Request);

  /// Maps a load location to a dense value-site id (lazily).
  uint32_t valueSiteId(uint32_t Func, distill::LocKey Loc);
  /// Feeds one region load to the value-invariance controller.
  void noteRegionLoad(const exec::InstLocation &L, uint64_t Value,
                      uint64_t InstRet);

  /// Records a store to \p Addr for this task's verification.
  void markDirty(uint64_t Addr) {
    // First store to a writable word this task marks it dirty; stores
    // outside the writable set are never compared.
    if ((Addr >> exec::ThreadedBackend::PageBits) < ClassPage.size()) {
      uint8_t &Class = classOf(Addr);
      if (Class == 1) {
        Class = 2;
        DirtyAddrs.push_back(Addr);
      }
    }
  }
  /// The class byte of \p Addr, a word on a page below ClassPage.size().
  uint8_t &classOf(uint64_t Addr) {
    return ClassBytes[ClassPage[Addr >> exec::ThreadedBackend::PageBits] *
                          exec::ThreadedBackend::PageWords +
                      (Addr & (exec::ThreadedBackend::PageWords - 1))];
  }
  bool dirtyStateMatches() const;
  void restoreMasterDirty();
  void clearDirtyAddrs();

  void processOptCompletions();
  void rebuildRegion(uint32_t FunctionId);
  distill::DistillRequest buildDistillRequest(uint32_t FunctionId) const;
  void setValueConstant(uint32_t Func, distill::LocKey Loc, int64_t Value);
  void clearValueConstant(uint32_t Func, distill::LocKey Loc);

  /// The task loop.  Returns the final commit time.
  uint64_t taskLoop(MasterPolicy &MasterP, CheckerPolicy &CheckerP);

  const workload::SynthProgram &Program;
  MsspConfig Config;

  exec::ThreadedBackend Master;
  exec::ThreadedBackend Checker;
  CacheModel SharedL2;
  CoreTiming MasterTiming;
  CoreTiming TrailTiming;
  core::ReactiveController Controller;
  core::ValueInvarianceController ValueCtrl;
  distill::CodeCache Cache;

  /// Forwards the value controller's requests with an is-value tag.
  class ValueSinkAdapter : public core::OptRequestSink {
  public:
    explicit ValueSinkAdapter(MsspSimulator &Sim) : Sim(Sim) {}
    void onRequest(const core::OptRequest &Request) override {
      Sim.onValueRequest(Request);
    }

  private:
    MsspSimulator &Sim;
  };
  ValueSinkAdapter ValueSink{*this};

  /// SiteId-indexed: loop/dispatch sites the optimizer never asserts.
  std::vector<bool> IsControlSite;
  /// FunctionId-indexed: region functions (value-speculation candidates).
  std::vector<bool> IsRegionFunc;
  std::vector<ValueSite> ValueSites; ///< dense value-site id -> site
  /// Packed (function, location) -> dense value-site id.
  FlatMap64 ValueSiteMap;
  std::vector<PendingOpt> Pending;

  /// SiteId-indexed assertion state: 0 = none, 1 = assert not-taken,
  /// 2 = assert taken.
  std::vector<uint8_t> AssertState;
  /// FunctionId -> its site ids, sorted (request-building iteration).
  std::vector<std::vector<ir::SiteId>> SitesByFunc;
  /// FunctionId -> deployed value constants, sorted by location.
  std::vector<std::vector<std::pair<distill::LocKey, int64_t>>>
      ValueConstsByFunc;

  /// Word classification: 0 = not writable (stores never compared),
  /// 1 = writable and clean this task, 2 = writable and dirty.  Stored
  /// per engine page (PageWords words), and only for the pages that hold
  /// a writable word, so its size follows the writable set, not the
  /// image: ClassBytes is one page of zeros, then one page per such page.
  std::vector<uint8_t> ClassBytes;
  /// Per page up to the last writable word: its page in ClassBytes, 0 for
  /// the zero page (never written: only class-1 bytes change).
  std::vector<uint32_t> ClassPage;
  /// Writable addresses stored to by either execution this task.
  std::vector<uint64_t> DirtyAddrs;

  // Reusable completion buffers (processOptCompletions runs every task).
  std::vector<PendingOpt> ReadyBuf;
  std::vector<uint32_t> RegionsBuf;

  uint64_t MasterClock = 0;
  MsspResult Result;
};

/// Baseline: the original program on the leading core alone ("vanilla"
/// superscalar, the B bars of Figs. 7-8).  Returns total cycles.  Throws
/// std::runtime_error when \p Machine is invalid or the program faults.
uint64_t simulateSuperscalarBaseline(const workload::SynthProgram &Program,
                                     const MachineConfig &Machine,
                                     uint64_t MaxInstructions = 0);

} // namespace mssp
} // namespace specctrl

#endif // SPECCTRL_MSSP_MSSPSIMULATOR_H
