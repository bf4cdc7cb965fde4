//===- examples/trace_workflow.cpp - Record once, study many --------------===//
//
// The trace-driven workflow of real control-policy studies: record a
// run's branch stream once, then replay the recording against several
// controller configurations without regenerating (or even knowing) the
// workload.
//
//   $ ./build/examples/trace_workflow [benchmark-name]
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "support/Format.h"
#include "workload/SpecSuite.h"
#include "workload/TraceFile.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::workload;

int main(int Argc, char **Argv) try {
  const char *Name = Argc > 1 ? Argv[1] : "mcf";
  SuiteScale Scale;
  Scale.EventsPerBillion = 2e5;
  const WorkloadSpec Spec = makeBenchmark(Name, Scale);

  // 1. Record (to a file in real use; a memory stream here).
  std::ostringstream Recording;
  {
    TraceGenerator Gen(Spec, Spec.refInput());
    const uint64_t N = writeTraceV2(Recording, Gen);
    std::printf("recorded %s events of %s (%s on disk)\n\n",
                formatMagnitude(static_cast<double>(N)).c_str(), Name,
                formatMagnitude(static_cast<double>(Recording.str().size()))
                    .c_str());
  }
  // Replay reads the recorded bytes (MaterializedTrace::mapFile for a
  // file); every block is verified the first time it is read.
  const std::string Bytes = Recording.str();
  std::string Error;
  const std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::fromBytes({Bytes.begin(), Bytes.end()}, &Error);
  if (!Trace) {
    std::fprintf(stderr, "error: bad trace: %s\n", Error.c_str());
    return 1;
  }

  // 2. Replay against several policies -- note no WorkloadSpec needed.
  struct Policy {
    const char *Label;
    core::ReactiveConfig Config;
  };
  core::ReactiveConfig Scaled;
  Scaled.OptLatency = 10000;
  Scaled.WaitPeriod = 50000;
  core::ReactiveConfig Open = Scaled;
  Open.EnableEviction = false;
  core::ReactiveConfig Strict = Scaled;
  Strict.SelectThreshold = 0.999;
  const Policy Policies[] = {
      {"reactive (Table 2, scaled)", Scaled},
      {"open loop", Open},
      {"stricter selection (99.9%)", Strict},
  };

  for (const Policy &P : Policies) {
    TraceCursor Cursor(Trace);
    core::ReactiveController C(P.Config, P.Label);
    core::runTrace(C, Cursor);
    // A block that fails verification ends the replay early; its stats
    // would cover only part of the trace.
    if (Cursor.failed()) {
      std::fprintf(stderr, "error: bad trace: %s\n", Cursor.error().c_str());
      return 1;
    }
    std::printf("%-28s correct %6s  incorrect %8s  evictions %4llu\n",
                P.Label, formatPercent(C.stats().correctRate()).c_str(),
                formatPercent(C.stats().incorrectRate(), 4).c_str(),
                static_cast<unsigned long long>(C.stats().Evictions));
  }
  return 0;
} catch (const std::invalid_argument &E) {
  std::fprintf(stderr, "error: %s\n", E.what());
  return 1;
}
