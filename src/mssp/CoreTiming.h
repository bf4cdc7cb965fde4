//===- mssp/CoreTiming.h - Component-latency core model ---------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mechanistic timing model for one core, driven by the execution
/// engine through TimingPolicy: base issue cost of 1/width per
/// instruction, pipeline-depth misprediction penalties from a live gshare
/// (branch sites keyed by their stable site ids, so original and distilled
/// versions share predictor state exactly as one PC would), RAS-overflow
/// penalties on returns, and cache-miss stalls from the L1 -> shared L2 ->
/// memory hierarchy.
/// Instruction fetch is assumed to hit (synthesized regions are small);
/// the window size's memory-level-parallelism effect is folded into the
/// per-miss latencies.  See DESIGN.md for the substitution argument.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_MSSP_CORETIMING_H
#define SPECCTRL_MSSP_CORETIMING_H

#include "exec/ThreadedBackend.h"
#include "mssp/BranchPredictor.h"
#include "mssp/Cache.h"

namespace specctrl {
namespace mssp {

/// Cycle accumulator for one core.
class CoreTiming {
public:
  /// \p SharedL2 may be shared between cores (nullptr = perfect L2).
  CoreTiming(const CoreConfig &Config, CacheModel *SharedL2,
             uint32_t L2LatencyCycles, uint32_t MemoryLatencyCycles);

  // The timing rules, one per event kind.  The instruction counter is kept
  // pre-divided: IssueFull/IssueRem are exactly (Insts / Width, Insts %
  // Width) at all times, so cycles() is O(1) reads with no division, and a
  // whole run slice's straight-line cost is one addInstructions() call.
  void recordInstruction() {
    if (++IssueRem == Width) {
      ++IssueFull;
      IssueRem = 0;
    }
  }
  /// Bulk-charges \p N straight-line instructions at once -- bit-identical
  /// to N recordInstruction() calls, since instruction issue accumulates
  /// order-free between cycle reads.  TimingPolicy charges each run slice
  /// this way.
  void addInstructions(uint64_t N) {
    IssueRem += N;
    IssueFull += IssueRem / Width;
    IssueRem %= Width;
  }
  void recordBranch(ir::SiteId Site, bool Taken) {
    if (!Gshare.predictAndUpdate(Site, Taken))
      Stalls += Config.PipelineDepth;
  }
  void recordMemoryAccess(uint64_t WordAddr) {
    if (L1.access(WordAddr))
      return;
    // Batched: resolve the whole miss path, then touch the accumulator
    // once.
    uint64_t Stall = L2Latency;
    if (L2 && !L2->access(WordAddr))
      Stall += MemoryLatency;
    Stalls += Stall;
  }
  void recordCall(uint32_t Callee) { Ras.pushCall(Callee); }
  void recordReturn(uint32_t Callee) {
    // SimIR returns have a single static target per activation; the RAS
    // mispredicts only on overflow-induced stack corruption.
    if (!Ras.popAndCheck(Callee))
      Stalls += Config.PipelineDepth;
  }

  /// Total cycles accumulated so far.  O(1): the issue quotient is
  /// maintained incrementally, not divided out per read.
  uint64_t cycles() const { return IssueFull + (IssueRem != 0) + Stalls; }
  uint64_t instructions() const { return IssueFull * Width + IssueRem; }
  uint64_t branchMispredicts() const { return Gshare.mispredicts(); }
  uint64_t l1Misses() const { return L1.misses(); }

  /// Adds idle/penalty cycles from outside (hops, squash recovery).
  void addStallCycles(uint64_t Cycles) { Stalls += Cycles; }

private:
  CoreConfig Config;
  GsharePredictor Gshare;
  ReturnAddressStack Ras;
  CacheModel L1;
  CacheModel *L2;
  uint32_t L2Latency;
  uint32_t MemoryLatency;
  uint64_t Width;         ///< Config.Width, cached for the hot counters
  uint64_t IssueFull = 0; ///< completed issue groups (Insts / Width)
  uint64_t IssueRem = 0;  ///< instructions in the open group (< Width)
  uint64_t Stalls = 0;
};

/// The engine policy that charges a CoreTiming: branch, memory, call, and
/// return events touch the dynamic models (gshare, caches, RAS) as they
/// happen, and each run's straight-line issue cost -- the engine retires
/// in block quanta -- is charged in one bulk add as the run returns.
/// Issue accumulates order-free between cycle reads, so cycles() read
/// between runs equals per-instruction accounting exactly.  MSSP's master
/// and checker policies and the superscalar baseline derive from it.
class TimingPolicy : public exec::NoEvents {
public:
  explicit TimingPolicy(CoreTiming &Timing) : Timing(Timing) {}

  void noteBranch(ir::SiteId Site, bool Taken, uint64_t /*Done*/) {
    Timing.recordBranch(Site, Taken);
  }
  void noteLoad(const exec::InstLocation &, uint64_t Addr,
                uint64_t /*Value*/, uint64_t /*Done*/) {
    Timing.recordMemoryAccess(Addr);
  }
  void noteStore(uint64_t Addr, uint64_t /*Value*/) {
    Timing.recordMemoryAccess(Addr);
  }
  void noteCall(uint32_t Callee) { Timing.recordCall(Callee); }
  void noteReturn(uint32_t Callee) { Timing.recordReturn(Callee); }
  void noteRetired(uint64_t Instructions) {
    Timing.addInstructions(Instructions);
  }

protected:
  CoreTiming &Timing;
};

} // namespace mssp
} // namespace specctrl

#endif // SPECCTRL_MSSP_CORETIMING_H
