//===- tests/mssp/MsspGoldenTest.cpp - MSSP golden pins -------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
// Pins MsspResult bit-exactly against values captured from the
// pre-fast-path implementation (full-digest verification, map-based
// tables, unkeyed code cache, the reference interpreter).  The simulator's
// dirty-set verification, dense tables, and the block-charged engine all
// promise "never changes results"; these tests are that promise, one run
// per pinned configuration.
//
//===----------------------------------------------------------------------===//

#include "MsspResultText.h"

#include "mssp/MsspSimulator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace specctrl;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

/// The Fig. 7 short-run control configuration every golden uses.
MsspConfig fig7Config() {
  MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = 1000;
  Cfg.Control.EnableEviction = true;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  return Cfg;
}

MsspResult runMssp(const std::string &Bench, uint64_t Iterations,
                   const MsspConfig &Cfg) {
  const SynthProgram Program =
      synthesize(makeSynthSpecFor(profileByName(Bench), Iterations));
  MsspSimulator Sim(Program, Cfg);
  return Sim.run();
}

/// The distill-cache counters account for every redeployment exactly once.
void expectCacheCounterInvariant(const MsspResult &R, const std::string &Tag) {
  EXPECT_EQ(R.DistillCacheHits + R.DistillCacheMisses, R.Regenerations)
      << Tag;
}

/// Values captured from the pre-optimization implementation (seed commit,
/// full-digest verification, map-based tables, unkeyed code cache).
struct Golden {
  uint64_t TotalCycles, Tasks, TaskSquashes;
  uint64_t MasterInstructions, CheckerInstructions;
  uint64_t OptRequests, Regenerations, MasterBranchMispredicts;
  uint64_t CtrlCorrect, CtrlIncorrect, CtrlEvict, CtrlDeploy, CtrlRevoke;
  uint64_t ValCorrect, ValEvict;
};

void expectGolden(const MsspResult &R, const Golden &G,
                  const std::string &Tag) {
  EXPECT_EQ(R.TotalCycles, G.TotalCycles) << Tag;
  EXPECT_EQ(R.Tasks, G.Tasks) << Tag;
  EXPECT_EQ(R.TaskSquashes, G.TaskSquashes) << Tag;
  EXPECT_EQ(R.MasterInstructions, G.MasterInstructions) << Tag;
  EXPECT_EQ(R.CheckerInstructions, G.CheckerInstructions) << Tag;
  EXPECT_EQ(R.OptRequests, G.OptRequests) << Tag;
  EXPECT_EQ(R.Regenerations, G.Regenerations) << Tag;
  EXPECT_EQ(R.MasterBranchMispredicts, G.MasterBranchMispredicts) << Tag;
  EXPECT_EQ(R.Controller.CorrectSpecs, G.CtrlCorrect) << Tag;
  EXPECT_EQ(R.Controller.IncorrectSpecs, G.CtrlIncorrect) << Tag;
  EXPECT_EQ(R.Controller.Evictions, G.CtrlEvict) << Tag;
  EXPECT_EQ(R.Controller.DeployRequests, G.CtrlDeploy) << Tag;
  EXPECT_EQ(R.Controller.RevokeRequests, G.CtrlRevoke) << Tag;
  EXPECT_EQ(R.ValueController.CorrectSpecs, G.ValCorrect) << Tag;
  EXPECT_EQ(R.ValueController.Evictions, G.ValEvict) << Tag;
}

/// Runs one golden configuration and pins it to the captured values.
void checkGolden(const std::string &Bench, uint64_t Iterations,
                 const MsspConfig &Cfg, const Golden &G) {
  const MsspResult R = runMssp(Bench, Iterations, Cfg);
  expectGolden(R, G, Bench);
  expectCacheCounterInvariant(R, Bench);
}

// ---- Seed-captured goldens (20000 iterations each) -----------------------

TEST(MsspGoldenTest, Bzip2Closed1k) {
  checkGolden("bzip2", 20000, fig7Config(),
              {2689804, 5001, 69, 1134835, 1311721, 10, 6, 19242, 28507,
               103, 2, 8, 2, 0, 0});
}

TEST(MsspGoldenTest, Bzip2Open1k) {
  MsspConfig Cfg = fig7Config();
  Cfg.Control.EnableEviction = false;
  checkGolden("bzip2", 20000, Cfg,
              {2912949, 5001, 749, 1119202, 1311721, 8, 4, 18381, 30056,
               2296, 0, 8, 0, 0, 0});
}

TEST(MsspGoldenTest, GccClosed1kLatency5k) {
  MsspConfig Cfg = fig7Config();
  Cfg.OptLatencyCycles = 5000; // pins the pending-completion batching
  checkGolden("gcc", 20000, Cfg,
              {2110646, 5001, 48, 1109765, 1344065, 13, 5, 13307, 47469,
               75, 1, 12, 1, 0, 0});
}

TEST(MsspGoldenTest, GccValueSpeculation) {
  MsspConfig Cfg = fig7Config();
  Cfg.EnableValueSpeculation = true;
  Cfg.ValueControl = Cfg.Control;
  checkGolden("gcc", 20000, Cfg,
              {2106625, 5001, 46, 1109244, 1344065, 26, 5, 13300, 47575,
               70, 1, 12, 1, 47575, 1});
}

TEST(MsspGoldenTest, Bzip2TinyTasksAndBuffer) {
  MsspConfig Cfg = fig7Config();
  Cfg.TaskIterations = 2;
  Cfg.MaxOutstandingTasks = 2;
  checkGolden("bzip2", 20000, Cfg,
              {3091204, 10001, 81, 1134832, 1311721, 10, 6, 19241, 28506,
               102, 2, 8, 2, 0, 0});
}

// ---- Legacy-path pins (10000 iterations each) ----------------------------
//
// Full results of the legacy path (every fast-path flag off, reference
// interpreter), which every flag combination used to be checked against.

TEST(MsspGoldenTest, AllFlagCombosBitIdenticalBzip2) {
  const MsspResult R = runMssp("bzip2", 10000, fig7Config());
  EXPECT_EQ(testutil::resultText(R),
            "cycles=1442087 tasks=2501 squashes=53 master=587379 "
            "checker=655106 requests=10 regens=6 hits=0 misses=6 "
            "mispredicts=10094 "
            "ctrl=40000/655091/11144/97/8/2/0/2/0/0/69eadce554e3e5f8 "
            "value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655");
  expectCacheCounterInvariant(R, "bzip2");
}

TEST(MsspGoldenTest, AllFlagCombosBitIdenticalGccValueSpec) {
  MsspConfig Cfg = fig7Config();
  Cfg.EnableValueSpeculation = true;
  Cfg.ValueControl = Cfg.Control;
  const MsspResult R = runMssp("gcc", 10000, Cfg);
  EXPECT_EQ(testutil::resultText(R),
            "cycles=1211781 tasks=2501 squashes=29 master=581625 "
            "checker=670979 requests=26 regens=5 hits=0 misses=5 "
            "mispredicts=6905 "
            "ctrl=40000/670960/18221/49/12/1/0/1/0/0/750c3a7e4eabd0db "
            "value=124984/670961/18224/46/12/1/0/1/0/0/a27b117c82ce073d");
  expectCacheCounterInvariant(R, "gcc-vs");
}

// ---- Completion ordering --------------------------------------------------

// With a long optimization latency several pending requests become ready
// on the same task boundary, so one processOptCompletions call drains a
// batch: region rebuild order and request completion order are what this
// pins (mcf's oscillating periodic branches make the batch non-trivial).
TEST(MsspGoldenTest, CompletionBatchOrdering) {
  const std::pair<uint64_t, const char *> Pins[] = {
      {0, "cycles=1513501 tasks=2501 squashes=29 master=613309 "
          "checker=674115 requests=10 regens=7 hits=0 misses=7 "
          "mispredicts=13726 "
          "ctrl=40000/674096/8568/129/7/3/0/3/0/0/e0a2523452381731 "
          "value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {5000, "cycles=1515389 tasks=2501 squashes=33 master=613574 "
             "checker=674115 requests=10 regens=7 hits=0 misses=7 "
             "mispredicts=13689 "
             "ctrl=40000/674096/8527/151/7/3/0/3/0/0/e0a2523452381731 "
             "value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {200000, "cycles=1594066 tasks=2501 squashes=112 master=626181 "
               "checker=674115 requests=10 regens=4 hits=0 misses=4 "
               "mispredicts=13291 "
               "ctrl=40000/674096/6446/699/7/3/0/3/0/0/e0a2523452381731 "
               "value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
  };
  for (const auto &[Latency, Pin] : Pins) {
    MsspConfig Cfg = fig7Config();
    Cfg.OptLatencyCycles = Latency;
    const MsspResult R = runMssp("mcf", 10000, Cfg);
    const std::string Tag = "mcf/lat" + std::to_string(Latency);
    EXPECT_EQ(testutil::resultText(R), Pin) << Tag;
    expectCacheCounterInvariant(R, Tag);
  }
}

} // namespace
