//===- examples/quickstart.cpp - specctrl in 60 lines ---------------------===//
//
// Quickstart: attach the paper's reactive speculation controller to a
// synthetic workload's branch stream and print what it did.
//
//   $ ./build/examples/quickstart [benchmark-name]
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "support/Format.h"
#include "workload/SpecSuite.h"

#include <cstdio>
#include <stdexcept>

using namespace specctrl;

int main(int Argc, char **Argv) try {
  // 1. Build a workload: one of the twelve SPEC2000int-calibrated
  //    synthetic benchmarks (scaled down for a quick demo).
  const char *Name = Argc > 1 ? Argv[1] : "gzip";
  workload::SuiteScale Scale;
  Scale.EventsPerBillion = 2e5; // ~1/3 of the default run length
  const workload::WorkloadSpec Spec = workload::makeBenchmark(Name, Scale);

  // 2. Configure the controller.  ReactiveConfig's defaults are the
  //    paper's Table 2; here we only shorten the modeled re-optimization
  //    latency to match the shortened run.
  core::ReactiveConfig Config; // Table 2 defaults
  Config.OptLatency = 10000;
  core::ReactiveController Controller(Config);

  // 3. Feed it the branch stream.  runWorkload drives the whole trace;
  //    in a real system you would call Controller.onBranch(site, taken,
  //    instret) from your profiling hook instead.
  const core::ControlStats &S =
      core::runWorkload(Controller, Spec, Spec.refInput());

  // 4. Read the report.
  std::printf("workload            : %s (%s branch events)\n", Spec.Name.c_str(),
              formatMagnitude(static_cast<double>(S.Branches)).c_str());
  std::printf("static branches     : %u touched, %u classified biased, "
              "%u evicted\n",
              S.touchedCount(), S.everBiasedCount(), S.evictedSiteCount());
  std::printf("speculated correctly: %s of dynamic branches\n",
              formatPercent(S.correctRate()).c_str());
  std::printf("misspeculated       : %s (one per %s instructions)\n",
              formatPercent(S.incorrectRate(), 4).c_str(),
              formatWithCommas(static_cast<uint64_t>(S.misspecDistance()))
                  .c_str());
  std::printf("re-optimizations    : %llu requested, %llu suppressed by "
              "the oscillation cap\n",
              static_cast<unsigned long long>(S.DeployRequests +
                                              S.RevokeRequests),
              static_cast<unsigned long long>(S.SuppressedRequests));
  return 0;
} catch (const std::invalid_argument &E) {
  std::fprintf(stderr, "error: %s\n", E.what());
  return 1;
}
