//===- engine/Experiment.cpp - Declarative experiment plans ---------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "engine/Experiment.h"

#include <cassert>

using namespace specctrl;
using namespace specctrl::engine;

BenchmarkAxis &ExperimentPlan::addBenchmark(workload::WorkloadSpec Spec) {
  std::vector<workload::InputConfig> Inputs = {Spec.refInput()};
  return addBenchmark(std::move(Spec), std::move(Inputs));
}

BenchmarkAxis &
ExperimentPlan::addBenchmark(workload::WorkloadSpec Spec,
                             std::vector<workload::InputConfig> Inputs) {
  assert(!Inputs.empty() && "benchmark needs at least one input");
  Benchmarks.push_back({std::move(Spec), std::move(Inputs)});
  return Benchmarks.back();
}

void ExperimentPlan::addConfig(std::string Name, ControllerFactory Make) {
  assert(Make && "config needs a controller factory");
  Configs.push_back({std::move(Name), std::move(Make), nullptr});
}

void ExperimentPlan::addTaskConfig(std::string Name, CellRunner Run) {
  assert(Run && "task config needs a cell runner");
  Configs.push_back({std::move(Name), nullptr, std::move(Run)});
}

size_t ExperimentPlan::numCells() const {
  size_t Inputs = 0;
  for (const BenchmarkAxis &B : Benchmarks)
    Inputs += B.Inputs.size();
  return Inputs * Configs.size();
}
