//===- bench/mssp_sim.cpp - MSSP simulation-throughput microbenches -------===//
//
// google-benchmark microbenches for the MSSP timing simulation.  Every
// benchmark runs a Figure 7 default workload (closed-loop control at a 1k
// monitor period) end to end and reports simulator throughput as
// tasks/sec (items) plus simulated cycles/sec and instructions/sec.
//
// The value-speculation variant doubles the controller load (every region
// load feeds the value-invariance FSM and its per-load site lookup).
//
//===----------------------------------------------------------------------===//

#include "mssp/MsspSimulator.h"
#include "workload/SpecSuite.h"

#include <benchmark/benchmark.h>

using namespace specctrl;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

/// Figure 7's default per-run length.
constexpr uint64_t Fig7Iterations = 90000;

const SynthProgram &fig7Program() {
  static const SynthProgram Program =
      synthesize(makeSynthSpecFor(profileByName("bzip2"), Fig7Iterations));
  return Program;
}

MsspConfig fig7Config(bool ValueSpec) {
  MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = 1000;
  Cfg.Control.EnableEviction = true;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  Cfg.OptLatencyCycles = 0;
  if (ValueSpec) {
    Cfg.EnableValueSpeculation = true;
    Cfg.ValueControl = Cfg.Control;
  }
  return Cfg;
}

void reportMssp(benchmark::State &State, const MsspResult &R) {
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(R.Tasks));
  State.counters["sim_cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(R.TotalCycles) * State.iterations(),
      benchmark::Counter::kIsRate);
  State.counters["sim_insts_per_sec"] = benchmark::Counter(
      static_cast<double>(R.MasterInstructions + R.CheckerInstructions) *
          State.iterations(),
      benchmark::Counter::kIsRate);
  const uint64_t Rebuilds = R.DistillCacheHits + R.DistillCacheMisses;
  State.counters["distill_hit_rate"] = benchmark::Counter(
      Rebuilds ? static_cast<double>(R.DistillCacheHits) /
                     static_cast<double>(Rebuilds)
               : 0.0);
  State.counters["squashes"] =
      benchmark::Counter(static_cast<double>(R.TaskSquashes));
}

/// Fig. 7 default workload.
void BM_Mssp(benchmark::State &State) {
  MsspResult R;
  for (auto _ : State) {
    MsspSimulator Sim(fig7Program(), fig7Config(false));
    R = Sim.run();
    benchmark::DoNotOptimize(R.TotalCycles);
  }
  reportMssp(State, R);
}
BENCHMARK(BM_Mssp)->Unit(benchmark::kMillisecond);

/// mcf's periodic-rich workload: the closed-loop FSM oscillates
/// (evict -> wait -> re-deploy the same assertion set), so the keyed code
/// cache gets real hits here (distill_hit_rate > 0), unlike bzip2 whose
/// assertion sets never recur.
void BM_MsspPeriodic(benchmark::State &State) {
  static const SynthProgram Program =
      synthesize(makeSynthSpecFor(profileByName("mcf"), Fig7Iterations));
  MsspResult R;
  for (auto _ : State) {
    MsspSimulator Sim(Program, fig7Config(false));
    R = Sim.run();
    benchmark::DoNotOptimize(R.TotalCycles);
  }
  reportMssp(State, R);
}
BENCHMARK(BM_MsspPeriodic)->Unit(benchmark::kMillisecond);

/// Same workload with reactive load-value speculation enabled.
void BM_MsspValueSpec(benchmark::State &State) {
  MsspResult R;
  for (auto _ : State) {
    MsspSimulator Sim(fig7Program(), fig7Config(true));
    R = Sim.run();
    benchmark::DoNotOptimize(R.TotalCycles);
  }
  reportMssp(State, R);
}
BENCHMARK(BM_MsspValueSpec)->Unit(benchmark::kMillisecond);

/// The superscalar baseline simulation (one engine pass with the leading
/// core's timing model).
void BM_MsspBaseline(benchmark::State &State) {
  uint64_t Cycles = 0;
  for (auto _ : State) {
    Cycles = simulateSuperscalarBaseline(fig7Program(), MachineConfig());
    benchmark::DoNotOptimize(Cycles);
  }
  State.counters["sim_cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(Cycles) * State.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MsspBaseline)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
