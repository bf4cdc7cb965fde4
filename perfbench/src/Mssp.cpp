//===- perfbench/src/Mssp.cpp - The MSSP timing-simulation workload -------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// The Fig. 7 grid as engine task cells: every suite benchmark x {superscalar
// baseline, open-1k, closed-1k, open-10k, closed-10k} plus a closed-1k
// column with value speculation on, configured as in
// bench/fig7_mssp_reactivity.  The synthesized SimIR programs are this
// workload's generated inputs: set-up synthesizes each benchmark's program
// once and every cell of that benchmark simulates it (read-only).  The
// execution tier and fast paths stay at the library defaults.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "engine/ExperimentRunner.h"
#include "mssp/MsspSimulator.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"

#include <any>

using namespace perfbench;
using namespace specctrl;

namespace {

struct Column {
  const char *Name;
  bool Baseline;
  bool Eviction;
  uint64_t Monitor;
  bool ValueSpec;
};

constexpr Column Columns[] = {
    {"baseline", true, false, 0, false},
    {"open-1k", false, false, 1000, false},
    {"closed-1k", false, true, 1000, false},
    {"open-10k", false, false, 10000, false},
    {"closed-10k", false, true, 10000, false},
    {"closed-1k-value", false, true, 1000, true},
};
constexpr size_t NumColumns = sizeof(Columns) / sizeof(Columns[0]);
constexpr size_t ClosedOneK = 2; ///< column whose checker count is reused

struct CellOutput {
  uint64_t BaselineCycles = 0;
  mssp::MsspResult Result;
};

/// fig7_mssp_reactivity's configuration for one control column.
mssp::MsspConfig columnConfig(const Column &C) {
  mssp::MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = C.Monitor;
  Cfg.Control.EnableEviction = C.Eviction;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  Cfg.OptLatencyCycles = 0;
  if (C.ValueSpec) {
    Cfg.EnableValueSpeculation = true;
    Cfg.ValueControl = Cfg.Control;
  }
  return Cfg;
}

CellOutput runCell(const workload::SynthProgram &Program, const Column &C) {
  ScopedSpan Cell("engine.cell");
  CellOutput Out;
  if (C.Baseline) {
    ScopedSpan S("exec.baseline");
    Out.BaselineCycles =
        mssp::simulateSuperscalarBaseline(Program, mssp::MachineConfig());
    return Out;
  }
  ScopedSpan S("mssp.run");
  mssp::MsspSimulator Sim(Program, columnConfig(C));
  Out.Result = Sim.run();
  S.setItems(Out.Result.CheckerInstructions);
  return Out;
}

/// Simulated outputs of one grid run, summed over its cells.
struct SimTotals {
  uint64_t Tasks = 0;
  uint64_t Squashes = 0;
  uint64_t TotalCycles = 0;
  uint64_t DistillRuns = 0;
  uint64_t DistillHits = 0;
  uint64_t BaselineInstructions = 0;
};

class Mssp final : public Workload {
public:
  using Workload::Workload;

  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"benchmarks", std::to_string(Programs.size())},
            {"iterations", std::to_string(iterations())},
            {"columns", std::to_string(NumColumns)},
            {"jobs", std::to_string(Opt.Jobs)}};
  }

  unsigned setupsPerIteration() const override { return 3; }

  void setup() override {
    Programs.clear();
    Names.clear();
    const std::vector<workload::BenchmarkProfile> &Profiles =
        workload::suiteProfiles();
    for (size_t I = 0; I < Profiles.size(); ++I) {
      if (Opt.tiny() && Profiles[I].Name != "bzip2" &&
          Profiles[I].Name != "mcf")
        continue;
      workload::SynthSpec Spec =
          workload::makeSynthSpecFor(Profiles[I], iterations());
      if (Opt.Seed != 0)
        Spec.Seed ^= mixSeed(Opt.Seed, I);
      ScopedSpan S("workload.synthesize");
      Programs.push_back(workload::synthesize(Spec));
      Names.push_back(Profiles[I].Name);
    }
  }

  double iterate(bool Traced) override;
  void endToEnd(MetricMap &Out) const override;
  void perLayer(const std::map<std::string, SpanTotals> &Spans,
                MetricMap &Out) const override;

private:
  uint64_t iterations() const { return Opt.tiny() ? 3000 : 30000; }

  std::vector<workload::SynthProgram> Programs;
  std::vector<std::string> Names;
  std::vector<PlanRun> Runs;
  std::vector<SimTotals> Sims; ///< per run
};

double Mssp::iterate(bool Traced) {
  const bool First = Runs.empty();
  ScopedSpan Iter("bench.iteration");
  if (SpanRecorder *Rec = SpanRecorder::active())
    Rec->setRoot(Iter.id());

  engine::ExperimentPlan Plan;
  Plan.setBaseSeed(Opt.Seed);
  for (const std::string &Name : Names) {
    workload::WorkloadSpec Axis;
    Axis.Name = Name;
    Plan.addBenchmark(std::move(Axis));
  }
  for (const Column &C : Columns)
    Plan.addTaskConfig(C.Name, [this, &C](const engine::CellContext &Ctx) {
      return std::any(runCell(Programs[Ctx.Coord.Benchmark], C));
    });

  engine::RunOptions Jobs;
  Jobs.Jobs = Opt.Jobs;
  const uint64_t Start = nowNs();
  const engine::RunReport Report = engine::runPlan(Plan, Jobs);
  const double Wall = secondsBetween(Start, nowNs());

  PlanRun Run;
  Run.Traced = Traced;
  Run.WallSeconds = Wall;
  Run.Jobs = Report.Jobs;
  SimTotals Sim;
  for (uint32_t B = 0; B < Names.size(); ++B) {
    const engine::CellResult &Ref = Report.cell(B, 0, ClosedOneK);
    const uint64_t CheckerInsts =
        Ref.Failed ? 0
                   : std::any_cast<const CellOutput &>(Ref.Value)
                         .Result.CheckerInstructions;
    for (uint32_t C = 0; C < NumColumns; ++C) {
      const engine::CellResult &Cell = Report.cell(B, 0, C);
      const std::string Name = Names[B] + "/" + Columns[C].Name;
      const size_t Index = B * NumColumns + C;
      Check.attempt();
      if (Cell.Failed) {
        Check.fail(Name + ": " + Cell.Error);
        continue;
      }
      Run.CellSeconds.push_back(Cell.WallSeconds);
      Run.QueueWaitSeconds += Cell.QueueWaitSeconds;
      const CellOutput &Out = std::any_cast<const CellOutput &>(Cell.Value);
      if (Columns[C].Baseline) {
        Check.expect(Out.BaselineCycles > 0, Name + ": zero baseline cycles");
        checkDigest("mssp", Name, digestOfCycles(Out.BaselineCycles), Index,
                    First);
        Sim.BaselineInstructions += CheckerInsts;
        continue;
      }
      const mssp::MsspResult &R = Out.Result;
      // Every control policy executes the same original program on the
      // checker, so its architectural instruction count cannot depend on
      // the column.
      Check.expect(R.CheckerInstructions == CheckerInsts && R.Tasks > 0 &&
                       R.TotalCycles > 0,
                   Name + ": checker instructions or task count off");
      checkDigest("mssp", Name, digestOf(R), Index, First);
      Run.Work += static_cast<double>(R.Tasks);
      Run.Requests += R.OptRequests;
      Run.CorrectSpecs += R.Controller.CorrectSpecs;
      Run.Speculated += R.Controller.CorrectSpecs + R.Controller.IncorrectSpecs;
      Sim.Tasks += R.Tasks;
      Sim.Squashes += R.TaskSquashes;
      Sim.TotalCycles += R.TotalCycles;
      Sim.DistillRuns += R.DistillCacheMisses;
      Sim.DistillHits += R.DistillCacheHits;
    }
  }
  Runs.push_back(std::move(Run));
  Sims.push_back(Sim);
  return Wall;
}

void Mssp::endToEnd(MetricMap &Out) const {
  planEndToEnd(Runs, "sim_tasks_per_s", Out);
}

void Mssp::perLayer(const std::map<std::string, SpanTotals> &Spans,
                    MetricMap &Out) const {
  planPerLayer(Runs, Out);
  // Simulated outputs repeat exactly across runs: report the last traced
  // run's, and time per instruction over all traced runs.
  SimTotals Sum;
  unsigned Traced = 0;
  uint64_t BaselineInstructions = 0;
  for (size_t I = 0; I < Runs.size(); ++I) {
    if (!Runs[I].Traced)
      continue;
    ++Traced;
    Sum = Sims[I];
    BaselineInstructions += Sims[I].BaselineInstructions;
  }
  const double PerIter = Traced ? 1.0 / Traced : 0.0;
  auto Frac = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
  };
  const auto Run = Spans.find("mssp.run");
  Out["workload.synthesize_s"] = {totalSeconds(Spans, "workload.synthesize"),
                                  "s"};
  Out["mssp.run_s"] = {totalSeconds(Spans, "mssp.run") * PerIter, "s"};
  Out["mssp.host_ns_per_sim_inst"] = {
      Run == Spans.end() ? 0.0 : Frac(Run->second.TotalNs, Run->second.Items),
      "ns/inst"};
  Out["mssp.squash_frac"] = {Frac(Sum.Squashes, Sum.Tasks), "frac"};
  Out["mssp.tasks"] = {static_cast<double>(Sum.Tasks), "count"};
  Out["mssp.total_cycles"] = {static_cast<double>(Sum.TotalCycles), "cycles"};
  Out["distill.runs"] = {static_cast<double>(Sum.DistillRuns), "count"};
  Out["distill.cache_hit_frac"] = {
      Frac(Sum.DistillHits, Sum.DistillHits + Sum.DistillRuns), "frac"};
  Out["exec.baseline_s"] = {totalSeconds(Spans, "exec.baseline") * PerIter,
                            "s"};
  Out["exec.baseline_ns_per_sim_inst"] = {
      BaselineInstructions ? totalSeconds(Spans, "exec.baseline") * 1e9 /
                                 static_cast<double>(BaselineInstructions)
                           : 0.0,
      "ns/inst"};
}

} // namespace

std::unique_ptr<Workload> perfbench::makeMssp(const Options &Opt) {
  return std::make_unique<Mssp>(Opt);
}
