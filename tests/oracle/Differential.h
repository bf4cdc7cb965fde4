//===- tests/oracle/Differential.h - Engine vs oracle harness ---*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// Drives the execution engine and the definitional interpreter side by side
// and compares what a consumer can observe: every event (with its
// completed-instruction count where the engine reports one), StopReason,
// retired count, memory image, and architectural position.
//
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_TESTS_ORACLE_DIFFERENTIAL_H
#define SPECCTRL_TESTS_ORACLE_DIFFERENTIAL_H

#include "Oracle.h"

#include "exec/ThreadedBackend.h"
#include "mssp/CoreTiming.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

namespace specctrl {
namespace difftest {

using StopPredicate = std::function<bool(const oracle::Event &)>;

/// The part of an oracle event the engine's policy hooks report: loads
/// carry their location and Done, branches their Done, stores, calls, and
/// returns neither.
inline oracle::Event engineView(oracle::Event E) {
  if (E.K != oracle::Event::Load) {
    E.Func = E.Block = E.Index = 0;
    if (E.K != oracle::Event::Branch)
      E.Done = 0;
  }
  return E;
}

/// An engine policy recording events in engineView form on top of BaseT
/// (exec::NoEvents or mssp::TimingPolicy), and requesting a stop after any
/// event \p StopWhen accepts.
template <class BaseT> class Recorder : public BaseT {
public:
  template <class... ArgTs>
  explicit Recorder(exec::ThreadedBackend &Engine, ArgTs &...Args)
      : BaseT(Args...), Engine(Engine) {}

  std::vector<oracle::Event> Events;
  StopPredicate StopWhen;

  void noteBranch(ir::SiteId Site, bool Taken, uint64_t Done) {
    BaseT::noteBranch(Site, Taken, Done);
    record({oracle::Event::Branch, Site, Taken, Done});
  }
  void noteLoad(const exec::InstLocation &L, uint64_t Addr, uint64_t Value,
                uint64_t Done) {
    BaseT::noteLoad(L, Addr, Value, Done);
    record({oracle::Event::Load, Addr, Value, Done, L.Func, L.Block,
            L.Index});
  }
  void noteStore(uint64_t Addr, uint64_t Value) {
    BaseT::noteStore(Addr, Value);
    record({oracle::Event::Store, Addr, Value});
  }
  void noteCall(uint32_t Callee) {
    BaseT::noteCall(Callee);
    record({oracle::Event::Call, Callee, 0});
  }
  void noteReturn(uint32_t Callee) {
    BaseT::noteReturn(Callee);
    record({oracle::Event::Return, Callee, 0});
  }

private:
  void record(const oracle::Event &E) {
    Events.push_back(E);
    if (StopWhen && StopWhen(E))
      Engine.requestStop();
  }

  exec::ThreadedBackend &Engine;
};

/// Steps the oracle the way the engine runs: until it halts or faults,
/// \p Fuel instructions have executed, or \p StopWhen accepts an event of
/// the instruction just executed.
inline exec::StopReason runOracle(oracle::Machine &M, uint64_t Fuel,
                                  const StopPredicate &StopWhen = {}) {
  for (uint64_t N = 0; N < Fuel; ++N) {
    const size_t Before = M.Events.size();
    switch (M.step()) {
    case oracle::Status::Halted:
      return exec::StopReason::Halted;
    case oracle::Status::Fault:
      return exec::StopReason::Fault;
    case oracle::Status::Running:
      break;
    }
    if (StopWhen)
      for (size_t I = Before; I < M.Events.size(); ++I)
        if (StopWhen(engineView(M.Events[I])))
          return exec::StopReason::Stopped;
  }
  if (M.status() == oracle::Status::Halted)
    return exec::StopReason::Halted;
  if (M.status() == oracle::Status::Fault)
    return exec::StopReason::Fault;
  return exec::StopReason::FuelExhausted;
}

/// The oracle's position in the engine's source coordinates (register
/// windows concatenated in frame order).
inline exec::ArchPosition positionOf(const oracle::Machine &M) {
  exec::ArchPosition Out;
  for (const oracle::Frame &F : M.Stack) {
    Out.Frames.push_back({F.Code, F.FuncId, F.Block, F.Index,
                          static_cast<uint32_t>(Out.Regs.size())});
    Out.Regs.insert(Out.Regs.end(), F.Regs.begin(), F.Regs.end());
  }
  Out.Halted = M.status() == oracle::Status::Halted;
  Out.Faulted = M.status() == oracle::Status::Fault;
  return Out;
}

/// Moves the oracle to \p P (memory is the caller's business).
inline void adoptPosition(oracle::Machine &M, const exec::ArchPosition &P) {
  M.Stack.clear();
  for (size_t I = 0; I < P.Frames.size(); ++I) {
    const exec::ArchFrame &F = P.Frames[I];
    const size_t End =
        I + 1 < P.Frames.size() ? P.Frames[I + 1].RegBase : P.Regs.size();
    M.Stack.push_back({F.Code, F.FuncId, F.Block, F.Index,
                       std::vector<uint64_t>(P.Regs.begin() + F.RegBase,
                                             P.Regs.begin() + End)});
  }
}

inline void expectSameEvents(const std::vector<oracle::Event> &Engine,
                             const std::vector<oracle::Event> &Oracle,
                             const std::string &What) {
  ASSERT_EQ(Engine.size(), Oracle.size()) << What << ": event counts differ";
  for (size_t I = 0; I < Engine.size(); ++I) {
    const oracle::Event Want = engineView(Oracle[I]);
    ASSERT_TRUE(Engine[I] == Want)
        << What << ": first divergence at event " << I << " (kind "
        << unsigned(Engine[I].K) << " vs " << unsigned(Want.K) << ", payload "
        << Engine[I].A << "/" << Engine[I].B << " vs " << Want.A << "/"
        << Want.B << ", done " << Engine[I].Done << " vs " << Want.Done
        << ")";
  }
}

/// Retired count, memory image, and position.
inline void expectSameState(const exec::ThreadedBackend &Engine,
                            const oracle::Machine &M,
                            const std::string &What) {
  EXPECT_EQ(Engine.instructionsRetired(), M.InstRet) << What;
  EXPECT_EQ(Engine.halted(), M.status() == oracle::Status::Halted) << What;
  EXPECT_TRUE(Engine.memory() == M.Memory) << What << ": memory differs";
  const exec::ArchPosition E = Engine.archPosition();
  const exec::ArchPosition O = positionOf(M);
  ASSERT_EQ(E.Frames.size(), O.Frames.size()) << What << ": call depth";
  for (size_t I = 0; I < E.Frames.size(); ++I) {
    const exec::ArchFrame &A = E.Frames[I], &B = O.Frames[I];
    EXPECT_TRUE(A.Code == B.Code && A.FuncId == B.FuncId &&
                A.Block == B.Block && A.Index == B.Index &&
                A.RegBase == B.RegBase)
        << What << ": frame " << I << " at " << A.FuncId << ":" << A.Block
        << ":" << A.Index << " vs " << B.FuncId << ":" << B.Block << ":"
        << B.Index;
  }
  EXPECT_TRUE(E.Regs == O.Regs) << What << ": registers differ";
  EXPECT_EQ(E.Faulted, O.Faulted) << What;
}

/// Everything a timing consumer reads from a CoreTiming.
inline void expectSameTiming(const mssp::CoreTiming &Engine,
                             const mssp::CoreTiming &Oracle,
                             const std::string &What) {
  EXPECT_EQ(Engine.cycles(), Oracle.cycles()) << What;
  EXPECT_EQ(Engine.instructions(), Oracle.instructions()) << What;
  EXPECT_EQ(Engine.branchMispredicts(), Oracle.branchMispredicts()) << What;
  EXPECT_EQ(Engine.l1Misses(), Oracle.l1Misses()) << What;
}

} // namespace difftest
} // namespace specctrl

#endif // SPECCTRL_TESTS_ORACLE_DIFFERENTIAL_H
