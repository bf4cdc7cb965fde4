//===- mssp/MsspSimulator.cpp - MSSP execution-driven simulation ----------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "mssp/MsspSimulator.h"

#include "distill/Distiller.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>
#include <string>

using namespace specctrl;
using namespace specctrl::mssp;

namespace {

constexpr uint64_t RunForever = ~0ull >> 1;

/// Packs a value-site coordinate into one FlatMap64 key.  Field widths
/// (23/20/20 bits, top bit of the function field always clear) keep the
/// key below the map's all-ones sentinel; synthesized programs are orders
/// of magnitude smaller than these bounds.
uint64_t packValueSiteKey(uint32_t Func, distill::LocKey Loc) {
  assert(Func < (1u << 23) && Loc.Block < (1u << 20) &&
         Loc.Index < (1u << 20) && "value-site coordinate out of pack range");
  return (static_cast<uint64_t>(Func) << 40) |
         (static_cast<uint64_t>(Loc.Block) << 20) | Loc.Index;
}

/// \p Config, or a std::runtime_error naming the rule it breaks.
const MsspConfig &checked(const MsspConfig &Config) {
  const std::string Rule = Config.validate();
  if (!Rule.empty())
    throw std::runtime_error("MsspSimulator: invalid MsspConfig: " + Rule);
  return Config;
}

/// Names the function an execution faulted in, for error messages.
std::string faultingFunction(const exec::ThreadedBackend &Backend) {
  const exec::ArchPosition Position = Backend.archPosition();
  return Position.Frames.empty() ? std::string("<none>")
                                 : Position.Frames.back().Code->name();
}

} // namespace

/// The master's policy: leading-core timing, task boundaries (a stop
/// after every TaskIterations-th store of the iteration marker), and
/// dirty-set tracking.
class MsspSimulator::MasterPolicy : public TimingPolicy {
public:
  MasterPolicy(MsspSimulator &Sim, exec::ThreadedBackend &Backend,
               CoreTiming &Timing)
      : TimingPolicy(Timing), Sim(Sim), Backend(Backend),
        IterationAddr(Sim.Program.IterationAddr),
        TaskIterations(Sim.Config.TaskIterations) {}

  void noteStore(uint64_t Addr, uint64_t Value) {
    TimingPolicy::noteStore(Addr, Value);
    Sim.markDirty(Addr);
    if (Addr == IterationAddr && Value != 0 && Value % TaskIterations == 0)
      Backend.requestStop();
  }

protected:
  MsspSimulator &Sim;

private:
  exec::ThreadedBackend &Backend;
  uint64_t IterationAddr;
  unsigned TaskIterations;
};

/// The checker's policy: the master's duties on the trailing core's
/// timing, plus feeding branches to the reactive controller and region
/// loads to the value-invariance controller.  `Done` is the checker's
/// completed-instruction count at the event.
class MsspSimulator::CheckerPolicy : public MasterPolicy {
public:
  using MasterPolicy::MasterPolicy;

  void noteBranch(ir::SiteId Site, bool Taken, uint64_t Done) {
    MasterPolicy::noteBranch(Site, Taken, Done);
    // Control sites (loop exit, dispatch) are real branches the predictor
    // sees, but the dynamic optimizer never asserts them, so the
    // controller does not track them.
    if (Site < Sim.IsControlSite.size() && Sim.IsControlSite[Site])
      return;
    Sim.Controller.onBranch(Site, Taken, Done);
  }
  void noteLoad(const exec::InstLocation &L, uint64_t Addr, uint64_t Value,
                uint64_t Done) {
    MasterPolicy::noteLoad(L, Addr, Value, Done);
    // The engine only dispatches module function ids, all of which
    // IsRegionFunc covers, so L.Func needs no bounds check.
    if (Sim.Config.EnableValueSpeculation && Sim.IsRegionFunc[L.Func])
      Sim.noteRegionLoad(L, Value, Done);
  }
};

MsspSimulator::MsspSimulator(const workload::SynthProgram &Program,
                             const MsspConfig &Config)
    : Program(Program), Config(checked(Config)),
      Master(Program.Mod, std::span(Program.InitialMemory)),
      Checker(Program.Mod, std::span(Program.InitialMemory)),
      SharedL2(Config.Machine.L2),
      MasterTiming(Config.Machine.Leading, &SharedL2,
                   Config.Machine.L2.LatencyCycles,
                   Config.Machine.MemoryLatencyCycles),
      TrailTiming(Config.Machine.Trailing, &SharedL2,
                  Config.Machine.L2.LatencyCycles,
                  Config.Machine.MemoryLatencyCycles),
      Controller(Config.Control, "mssp-reactive"),
      ValueCtrl(Config.ValueControl) {
  Controller.setRequestSink(this);
  if (Config.EnableValueSpeculation)
    ValueCtrl.setRequestSink(&ValueSink);

  IsControlSite.assign(Program.Sites.size(), false);
  AssertState.assign(Program.Sites.size(), 0);
  SitesByFunc.assign(Program.Mod.numFunctions(), {});
  for (const workload::SynthSiteInfo &Info : Program.Sites) {
    IsControlSite[Info.Site] = Info.IsControlSite;
    SitesByFunc[Info.FunctionId].push_back(Info.Site);
  }
  for (std::vector<ir::SiteId> &Sites : SitesByFunc)
    std::sort(Sites.begin(), Sites.end());
  ValueConstsByFunc.assign(Program.Mod.numFunctions(), {});
  IsRegionFunc.assign(Program.Mod.numFunctions(), false);
  for (uint32_t F : Program.RegionFunctions)
    IsRegionFunc[F] = true;

  const std::vector<uint64_t> Writable = Program.writableAddrs();
  uint32_t NumClassPages = 1; // the zero page
  for (uint64_t Addr : Writable) {
    const uint64_t Page = Addr >> exec::ThreadedBackend::PageBits;
    if (Page >= ClassPage.size())
      ClassPage.resize(Page + 1, 0);
    if (ClassPage[Page] == 0)
      ClassPage[Page] = NumClassPages++;
  }
  ClassBytes.assign(NumClassPages * exec::ThreadedBackend::PageWords, 0);
  for (uint64_t Addr : Writable)
    classOf(Addr) = 1;
  DirtyAddrs.reserve(Writable.size());
}

MsspSimulator::~MsspSimulator() = default;

void MsspSimulator::onRequest(const core::OptRequest &Request) {
  const workload::SynthSiteInfo &Info = Program.Sites[Request.Site];
  // The optimizer never touches the dispatch loop: requests for control
  // sites complete trivially with no code change.
  if (Info.IsControlSite || Info.FunctionId == Program.MainFunction) {
    Controller.completeRequest(Request.Site);
    return;
  }
  Pending.push_back({Request, MasterClock + Config.OptLatencyCycles,
                     /*IsValue=*/false});
  ++Result.OptRequests;
}

void MsspSimulator::onValueRequest(const core::OptRequest &Request) {
  Pending.push_back({Request, MasterClock + Config.OptLatencyCycles,
                     /*IsValue=*/true});
  ++Result.OptRequests;
}

uint32_t MsspSimulator::valueSiteId(uint32_t Func, distill::LocKey Loc) {
  const uint64_t Key = packValueSiteKey(Func, Loc);
  const auto [Id, Inserted] = ValueSiteMap.tryEmplace(
      Key, static_cast<uint32_t>(ValueSites.size()));
  if (Inserted)
    ValueSites.push_back({Func, Loc});
  return Id;
}

void MsspSimulator::noteRegionLoad(const exec::InstLocation &L,
                                   uint64_t Value, uint64_t InstRet) {
  ValueCtrl.onLoad(valueSiteId(L.Func, {L.Block, L.Index}), Value, InstRet);
}

/// Dirty-set task verification, exact over the writable set: both
/// executions start each task with identical writable memory (same
/// initial image; equal after a match; copied equal after a squash), so
/// words neither stored to are still equal and only the dirty set needs
/// comparing.  There is no hash, hence no collision case.
bool MsspSimulator::dirtyStateMatches() const {
  if (Master.halted() != Checker.halted())
    return false;
  for (uint64_t Addr : DirtyAddrs)
    if (Master.loadWord(Addr) != Checker.loadWord(Addr))
      return false;
  return true;
}

void MsspSimulator::restoreMasterDirty() {
  // Clean writable words are equal by the task-start invariant, so
  // copying the dirty set (plus the register/stack position) transplants
  // the trailing execution's architectural state into the master.
  for (uint64_t Addr : DirtyAddrs)
    Master.storeWord(Addr, Checker.loadWord(Addr));
  Master.adoptPositionFrom(Checker);
}

void MsspSimulator::clearDirtyAddrs() {
  for (uint64_t Addr : DirtyAddrs)
    classOf(Addr) = 1;
  DirtyAddrs.clear();
}

void MsspSimulator::setValueConstant(uint32_t Func, distill::LocKey Loc,
                                     int64_t Value) {
  auto &Consts = ValueConstsByFunc[Func];
  const auto It = std::lower_bound(
      Consts.begin(), Consts.end(), Loc,
      [](const auto &Entry, distill::LocKey K) { return Entry.first < K; });
  if (It != Consts.end() && It->first == Loc)
    It->second = Value;
  else
    Consts.insert(It, {Loc, Value});
}

void MsspSimulator::clearValueConstant(uint32_t Func, distill::LocKey Loc) {
  auto &Consts = ValueConstsByFunc[Func];
  const auto It = std::lower_bound(
      Consts.begin(), Consts.end(), Loc,
      [](const auto &Entry, distill::LocKey K) { return Entry.first < K; });
  if (It != Consts.end() && It->first == Loc)
    Consts.erase(It);
}

distill::DistillRequest
MsspSimulator::buildDistillRequest(uint32_t FunctionId) const {
  distill::DistillRequest Request;
  for (ir::SiteId Site : SitesByFunc[FunctionId]) {
    const uint8_t State = AssertState[Site];
    if (State != 0)
      Request.BranchAssertions[Site] = State == 2;
  }
  for (const auto &[Loc, Value] : ValueConstsByFunc[FunctionId])
    Request.ValueConstants[Loc] = Value;
  return Request;
}

void MsspSimulator::rebuildRegion(uint32_t FunctionId) {
  distill::DistillResult Distilled = distill::distillFunction(
      Program.Mod.function(FunctionId), buildDistillRequest(FunctionId));
  Master.setCodeVersion(FunctionId,
                        Cache.install(FunctionId,
                                      std::move(Distilled.Distilled)));
  ++Result.DistillCacheMisses;
  ++Result.Regenerations;
}

void MsspSimulator::processOptCompletions() {
  if (Pending.empty())
    return;

  // Collect the requests whose optimization latency has elapsed.
  ReadyBuf.clear();
  for (size_t I = 0; I < Pending.size();) {
    if (Pending[I].ReadyCycle <= MasterClock) {
      ReadyBuf.push_back(Pending[I]);
      Pending[I] = Pending.back();
      Pending.pop_back();
    } else {
      ++I;
    }
  }
  if (ReadyBuf.empty())
    return;

  // Apply all ready assertion changes, then rebuild each affected region
  // once -- several controller transitions can fold into one
  // re-optimization (Sec. 4.3).  Regions are kept sorted-unique; rebuild
  // order across distinct functions is immaterial (no shared state).
  RegionsBuf.clear();
  for (const PendingOpt &P : ReadyBuf) {
    const core::OptRequest &Rq = P.Request;
    uint32_t Func = 0;
    if (P.IsValue) {
      const ValueSite &Site = ValueSites[Rq.Site];
      Func = Site.Func;
      if (Rq.Kind == core::OptRequestKind::Deploy)
        setValueConstant(Func, Site.Loc,
                         static_cast<int64_t>(ValueCtrl.deployedValue(Rq.Site)));
      else
        clearValueConstant(Func, Site.Loc);
    } else {
      AssertState[Rq.Site] = Rq.Kind == core::OptRequestKind::Deploy
                                 ? (Rq.Direction ? 2 : 1)
                                 : 0;
      Func = Program.Sites[Rq.Site].FunctionId;
    }
    const auto It =
        std::lower_bound(RegionsBuf.begin(), RegionsBuf.end(), Func);
    if (It == RegionsBuf.end() || *It != Func)
      RegionsBuf.insert(It, Func);
  }
  for (uint32_t Func : RegionsBuf)
    rebuildRegion(Func);
  for (const PendingOpt &P : ReadyBuf) {
    if (P.IsValue)
      ValueCtrl.completeRequest(P.Request.Site);
    else
      Controller.completeRequest(P.Request.Site);
  }
}

uint64_t MsspSimulator::taskLoop(MasterPolicy &MasterP,
                                 CheckerPolicy &CheckerP) {
  std::deque<uint64_t> CommitTimes; ///< in-flight verified-commit times
  std::vector<uint64_t> SlaveFree(Config.Machine.NumTrailing, 0);
  uint64_t PrevCommit = 0;
  const uint32_t Hop = Config.Machine.CoherenceHopCycles;

  for (;;) {
    processOptCompletions();

    // Checkpoint-buffer back-pressure.
    while (CommitTimes.size() >= Config.MaxOutstandingTasks) {
      MasterClock = std::max(MasterClock, CommitTimes.front());
      CommitTimes.pop_front();
    }

    // Master executes one task of distilled code; the trailing execution
    // covers the same task with original code.  The timing policies
    // charge each run's issue cost as the run returns, so cycles() read
    // here is exact.
    const uint64_t MStart = MasterTiming.cycles();
    const exec::StopReason MReason = Master.run(RunForever, MasterP);
    MasterClock += MasterTiming.cycles() - MStart;

    const uint64_t VStartCycles = TrailTiming.cycles();
    const exec::StopReason CReason = Checker.run(RunForever, CheckerP);
    const uint64_t VCycles = TrailTiming.cycles() - VStartCycles;
    if (MReason == exec::StopReason::Fault ||
        CReason == exec::StopReason::Fault) {
      const bool MasterFaulted = MReason == exec::StopReason::Fault;
      const exec::ThreadedBackend &Faulted = MasterFaulted ? Master : Checker;
      throw std::runtime_error(
          "MsspSimulator::run: the " +
          std::string(MasterFaulted ? "master" : "checker") +
          " execution faulted in task " + std::to_string(Result.Tasks + 1) +
          " after " + std::to_string(Faulted.instructionsRetired()) +
          " instructions, in function '" + faultingFunction(Faulted) + "'");
    }

    ++Result.Tasks;

    // Verification on the earliest-free trailing core.
    auto SlaveIt = std::min_element(SlaveFree.begin(), SlaveFree.end());
    const uint64_t VerifyStart = std::max(MasterClock, *SlaveIt) + Hop;
    const uint64_t VerifyEnd = VerifyStart + VCycles;
    *SlaveIt = VerifyEnd;
    const uint64_t Commit = std::max(VerifyEnd + Hop, PrevCommit);
    PrevCommit = Commit;

    if (!dirtyStateMatches()) {
      // Task misspeculation: detected when verification completes; the
      // master restarts from the trailing execution's state.
      ++Result.TaskSquashes;
      restoreMasterDirty();
      MasterClock = Commit + Hop + Config.Machine.Leading.PipelineDepth;
    } else {
      CommitTimes.push_back(Commit);
    }
    clearDirtyAddrs();

    const bool Done =
        (MReason == exec::StopReason::Halted &&
         CReason == exec::StopReason::Halted) ||
        (Config.MaxInstructions != 0 &&
         Checker.instructionsRetired() >= Config.MaxInstructions);
    if (Done)
      break;
  }

  return std::max(MasterClock, PrevCommit);
}

MsspResult MsspSimulator::run() {
  MasterPolicy MasterP(*this, Master, MasterTiming);
  CheckerPolicy CheckerP(*this, Checker, TrailTiming);
  Result.TotalCycles = taskLoop(MasterP, CheckerP);
  Result.MasterInstructions = MasterTiming.instructions();
  Result.CheckerInstructions = TrailTiming.instructions();
  Result.MasterBranchMispredicts = MasterTiming.branchMispredicts();
  Result.Controller = Controller.stats();
  Result.ValueController = ValueCtrl.stats();
  return Result;
}

uint64_t mssp::simulateSuperscalarBaseline(
    const workload::SynthProgram &Program, const MachineConfig &Machine,
    uint64_t MaxInstructions) {
  const std::string Rule = Machine.validate();
  if (!Rule.empty())
    throw std::runtime_error(
        "simulateSuperscalarBaseline: invalid MachineConfig: " + Rule);
  exec::ThreadedBackend Engine(Program.Mod, std::span(Program.InitialMemory));
  CacheModel L2(Machine.L2);
  CoreTiming Timing(Machine.Leading, &L2, Machine.L2.LatencyCycles,
                    Machine.MemoryLatencyCycles);
  TimingPolicy Policy(Timing);
  const uint64_t Fuel = MaxInstructions ? MaxInstructions : RunForever;
  if (Engine.run(Fuel, Policy) == exec::StopReason::Fault)
    throw std::runtime_error(
        "simulateSuperscalarBaseline: the program faulted after " +
        std::to_string(Engine.instructionsRetired()) +
        " instructions, in function '" + faultingFunction(Engine) + "'");
  return Timing.cycles();
}
