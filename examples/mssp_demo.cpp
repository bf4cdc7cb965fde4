//===- examples/mssp_demo.cpp - MSSP with and without reactivity ----------===//
//
// Runs the MSSP timing simulation on one benchmark-like program three
// ways -- plain superscalar, MSSP with open-loop control, MSSP with
// closed-loop control -- and prints the Sec. 4 story: reactivity is a
// first-order performance effect.
//
//   $ ./build/examples/mssp_demo [benchmark-name]
//
//===----------------------------------------------------------------------===//

#include "mssp/MsspSimulator.h"
#include "support/Format.h"
#include "workload/SpecSuite.h"

#include <cstdio>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

MsspResult runMssp(const BenchmarkProfile &Profile, uint64_t Iterations,
                   bool ClosedLoop) {
  SynthProgram Program = synthesize(makeSynthSpecFor(Profile, Iterations));
  MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = 1000;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  Cfg.Control.EnableEviction = ClosedLoop;
  MsspSimulator Sim(Program, Cfg);
  return Sim.run();
}

} // namespace

int main(int Argc, char **Argv) try {
  const char *Name = Argc > 1 ? Argv[1] : "gzip";
  const BenchmarkProfile &Profile = profileByName(Name);
  const uint64_t Iterations = 90000;

  std::printf("MSSP timing simulation: %s-like program, %llu loop "
              "iterations\n\n",
              Profile.Name.c_str(),
              static_cast<unsigned long long>(Iterations));

  SynthProgram Program =
      synthesize(makeSynthSpecFor(Profile, Iterations));
  const uint64_t Baseline =
      simulateSuperscalarBaseline(Program, MachineConfig());
  std::printf("superscalar baseline : %s cycles (speedup 1.000)\n",
              formatWithCommas(Baseline).c_str());

  const MsspResult Open = runMssp(Profile, Iterations, false);
  std::printf("MSSP, open loop      : %s cycles (speedup %.3f), "
              "%llu task squashes\n",
              formatWithCommas(Open.TotalCycles).c_str(),
              static_cast<double>(Baseline) / Open.TotalCycles,
              static_cast<unsigned long long>(Open.TaskSquashes));

  const MsspResult Closed = runMssp(Profile, Iterations, true);
  std::printf("MSSP, closed loop    : %s cycles (speedup %.3f), "
              "%llu task squashes, %llu evictions\n",
              formatWithCommas(Closed.TotalCycles).c_str(),
              static_cast<double>(Baseline) / Closed.TotalCycles,
              static_cast<unsigned long long>(Closed.TaskSquashes),
              static_cast<unsigned long long>(Closed.Controller.Evictions));

  std::printf("\ndistilled code executed %.0f%% of the original "
              "instructions;\n%llu controller requests folded into %llu "
              "code regenerations\n",
              Closed.distillationRatio() * 100.0,
              static_cast<unsigned long long>(Closed.OptRequests),
              static_cast<unsigned long long>(Closed.Regenerations));
  return 0;
} catch (const std::invalid_argument &E) {
  std::fprintf(stderr, "error: %s\n", E.what());
  return 1;
}
