//===- bench/BenchCommon.cpp - Shared bench-harness plumbing --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Driver.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::bench;

void bench::addCsvOption(OptionSet &Opts) {
  Opts.addFlag("csv", "emit CSV instead of aligned text tables");
}

void bench::addScaleOptions(OptionSet &Opts) {
  Opts.addDouble("events-per-billion", 6.0e5,
                 "branch events generated per billion paper-run "
                 "instructions (run-length scale)");
  Opts.addDouble("site-scale", 0.25,
                 "fraction of the paper's static branch population");
}

workload::SuiteScale bench::readScale(const OptionSet &Opts) {
  workload::SuiteScale Scale;
  Scale.EventsPerBillion = Opts.getDouble("events-per-billion");
  Scale.SiteScale = Opts.getDouble("site-scale");
  const std::string Error = Scale.validate();
  if (!Error.empty()) {
    std::fprintf(stderr, "error: --events-per-billion %g --site-scale %g: %s\n",
                 Scale.EventsPerBillion, Scale.SiteScale, Error.c_str());
    std::exit(2);
  }
  return Scale;
}

uint64_t bench::readCount(const OptionSet &Opts, const char *Name,
                          int64_t Min) {
  const int64_t Value = Opts.getInt(Name);
  if (Value < Min) {
    std::fprintf(stderr, "error: --%s must be >= %lld, got %lld\n", Name,
                 static_cast<long long>(Min), static_cast<long long>(Value));
    std::exit(2);
  }
  return static_cast<uint64_t>(Value);
}

double bench::readThreshold(const OptionSet &Opts, const char *Name) {
  core::ReactiveConfig Config;
  Config.SelectThreshold = Opts.getDouble(Name);
  const std::string Error = Config.validate();
  if (!Error.empty()) {
    std::fprintf(stderr, "error: --%s: %s, got %g\n", Name, Error.c_str(),
                 Config.SelectThreshold);
    std::exit(2);
  }
  return Config.SelectThreshold;
}

void bench::addBenchmarksOption(OptionSet &Opts) {
  Opts.addString("benchmarks", "",
                 "comma-separated benchmark subset (default: all twelve)");
}

void bench::addSuiteOptions(OptionSet &Opts) {
  addScaleOptions(Opts);
  addBenchmarksOption(Opts);
}

void bench::addBaselineOptions(OptionSet &Opts) {
  Opts.addInt("opt-latency", 10000,
              "re-optimization latency in dynamic instructions (Table 2's "
              "1M rescaled to the compressed default run lengths)");
  Opts.addInt("wait-period", 50000,
              "unbiased-state wait period in executions (Table 2's 1M "
              "rescaled: at paper scale hot sites execute billions of "
              "times, here hundreds of thousands)");
}

void bench::addJobsOptions(OptionSet &Opts) {
  Opts.addInt("jobs", 0,
              "worker threads for experiment cells (0 = hardware "
              "concurrency; results are identical at any value)");
  Opts.addInt("seed", 0,
              "base seed mixed into every experiment cell and workload "
              "(0 = the reference streams)");
}

void bench::addSweepOptions(OptionSet &Opts) {
  addCsvOption(Opts);
  addSuiteOptions(Opts);
  addBaselineOptions(Opts);
  addJobsOptions(Opts);
}

SuiteOptions bench::readSuiteOptions(const OptionSet &Opts) {
  SuiteOptions Out;
  if (Opts.has("csv"))
    Out.Csv = Opts.getFlag("csv");
  if (Opts.has("events-per-billion"))
    Out.Scale = readScale(Opts);
  if (Opts.has("benchmarks")) {
    const std::string List = Opts.getString("benchmarks");
    Out.Benchmarks = splitList(List);
    if (!List.empty() && Out.Benchmarks.empty()) {
      std::fprintf(stderr, "error: --benchmarks '%s' names no benchmark\n",
                   List.c_str());
      std::exit(2);
    }
    for (const std::string &Name : Out.Benchmarks) {
      try {
        (void)workload::profileByName(Name);
      } catch (const std::invalid_argument &E) {
        std::fprintf(stderr, "error: --benchmarks: %s\n", E.what());
        std::exit(2);
      }
    }
  }
  if (Opts.has("jobs")) {
    const int64_t Jobs = Opts.getInt("jobs");
    if (Jobs < 0 || Jobs > UINT_MAX) {
      std::fprintf(stderr,
                   "error: --jobs must be 0 (hardware concurrency) or a "
                   "positive worker count of at most %u, got %lld\n",
                   UINT_MAX, static_cast<long long>(Jobs));
      std::exit(2);
    }
    Out.Jobs = static_cast<unsigned>(Jobs);
    Out.Seed = readCount(Opts, "seed", 0);
  }
  return Out;
}

namespace {

/// Whether --benchmarks selects \p Name (every benchmark when empty).
bool isSelected(const SuiteOptions &Opt, const std::string &Name) {
  return Opt.Benchmarks.empty() ||
         std::find(Opt.Benchmarks.begin(), Opt.Benchmarks.end(), Name) !=
             Opt.Benchmarks.end();
}

} // namespace

std::vector<workload::BenchmarkProfile>
bench::selectedProfiles(const SuiteOptions &Opt) {
  std::vector<workload::BenchmarkProfile> Out;
  for (const workload::BenchmarkProfile &P : workload::suiteProfiles())
    if (isSelected(Opt, P.Name))
      Out.push_back(P);
  return Out;
}

void bench::seedWorkload(workload::WorkloadSpec &Spec, uint64_t Seed,
                         uint32_t Index) {
  if (Seed != 0)
    Spec.Seed ^= engine::ExperimentPlan::cellSeed(Seed, {Index, 0, 0});
}

std::vector<workload::WorkloadSpec>
bench::selectedSuite(const SuiteOptions &Opt) {
  const std::vector<workload::BenchmarkProfile> &Profiles =
      workload::suiteProfiles();
  std::vector<workload::WorkloadSpec> Suite;
  for (uint32_t I = 0; I < Profiles.size(); ++I) {
    if (!isSelected(Opt, Profiles[I].Name))
      continue;
    Suite.push_back(workload::makeBenchmark(Profiles[I], Opt.Scale));
    seedWorkload(Suite.back(), Opt.Seed, I);
  }
  return Suite;
}

engine::ExperimentPlan bench::suitePlan(const SuiteOptions &Opt) {
  engine::ExperimentPlan Plan;
  Plan.setBaseSeed(Opt.Seed);
  for (workload::WorkloadSpec &Spec : selectedSuite(Opt))
    Plan.addBenchmark(std::move(Spec));
  return Plan;
}

engine::RunReport bench::runSuite(const engine::ExperimentPlan &Plan,
                                  const SuiteOptions &Opt) {
  engine::RunOptions Run;
  Run.Jobs = Opt.Jobs;
  return engine::runPlan(Plan, Run);
}

engine::ExperimentPlan bench::msspSuitePlan(const SuiteOptions &Opt) {
  engine::ExperimentPlan Plan;
  Plan.setBaseSeed(Opt.Seed);
  for (const workload::BenchmarkProfile &P : selectedProfiles(Opt))
    Plan.addBenchmark(workload::makeBenchmark(P, Opt.Scale));
  return Plan;
}

const workload::BenchmarkProfile &
bench::msspCellProfile(const engine::CellContext &Ctx) {
  return workload::profileByName(Ctx.Spec.Name);
}

workload::SynthSpec bench::msspSynthSpec(const engine::CellContext &Ctx,
                                         uint64_t Iterations) {
  workload::SynthSpec Spec =
      workload::makeSynthSpecFor(msspCellProfile(Ctx), Iterations);
  if (Ctx.BaseSeed != 0)
    Spec.Seed ^= Ctx.Seed;
  return Spec;
}

SuiteAverage bench::suiteAverage(const engine::RunReport &Report,
                                 size_t NumBenchmarks, uint32_t Config) {
  SuiteAverage A;
  for (uint32_t B = 0; B < NumBenchmarks; ++B) {
    const core::ControlStats &S = Report.cell(B, 0, Config).Stats;
    A.Correct += S.correctRate();
    A.Incorrect += S.incorrectRate();
    A.Requests += S.DeployRequests + S.RevokeRequests;
    A.Suppressed += S.SuppressedRequests;
  }
  A.Correct /= static_cast<double>(NumBenchmarks);
  A.Incorrect /= static_cast<double>(NumBenchmarks);
  return A;
}

bool bench::checkReport(const engine::RunReport &Report) {
  bool Ok = true;
  for (const engine::CellResult &Cell : Report.Cells)
    if (Cell.Failed) {
      std::fprintf(stderr, "error: cell %s/%s/%s failed: %s\n",
                   Cell.Benchmark.c_str(), Cell.Input.c_str(),
                   Cell.Config.c_str(), Cell.Error.c_str());
      Ok = false;
    }
  return Ok;
}

profile::BranchProfile
bench::collectProfile(const workload::WorkloadSpec &Spec,
                      const workload::InputConfig &Input) {
  workload::TraceGenerator Gen(Spec, Input);
  return core::collectProfile(Gen, Spec.numSites());
}

core::ReactiveConfig bench::scaledBaseline(const OptionSet &Opts) {
  core::ReactiveConfig C = core::ReactiveConfig::baseline();
  C.OptLatency = readCount(Opts, "opt-latency", 0);
  C.WaitPeriod = readCount(Opts, "wait-period", 0);
  return C;
}

void bench::printBanner(const std::string &Title, const std::string &Detail) {
  std::printf("# %s\n# %s\n#\n", Title.c_str(), Detail.c_str());
}
