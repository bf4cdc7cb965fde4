//===- tests/core/ScaledVariants.h - Configs under test ----*- C++ -*-===//
//
// What the chunking-invariance and FSM-spec tests run: the reactive
// controller's configurations -- the seven Table 4 presets
// (ReactiveConfig's named variants) at a nonzero optimization latency,
// so deploys and revokes wait for InstRet >= ReadyAt across chunk
// boundaries, plus the zero-latency baseline and the baseline without an
// oscillation cap -- with run-length parameters scaled to test-size
// streams, the suite scale, and the oscillation pump at that scale.
//
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_TESTS_CORE_SCALEDVARIANTS_H
#define SPECCTRL_TESTS_CORE_SCALEDVARIANTS_H

#include "core/ReactiveConfig.h"
#include "workload/AdversarialWorkload.h"
#include "workload/SpecSuite.h"

#include <cstdint>
#include <string>
#include <vector>

namespace specctrl {
namespace scaled {

/// Small enough that the 12-benchmark x 2-input sweep runs in seconds,
/// large enough that the reactive controller classifies, deploys, and
/// evicts (the stats being compared are not all-zero).
constexpr workload::SuiteScale TestScale{3.0e3, 0.1};

/// The oscillation pump at the scaled monitor period (100): three monitor
/// windows per bias regime, as the default pump has against Table 2.
inline workload::WorkloadSpec scaledPump(uint64_t Events) {
  workload::AdversarialPumpSpec P;
  P.Events = Events;
  P.PumpPeriod = 300;
  P.PeriodSkew = 15;
  return workload::makeOscillationPump(P);
}

struct NamedConfig {
  std::string Name;
  core::ReactiveConfig Config;
};

/// \p C with its run-length parameters scaled to test streams: the monitor
/// period to 1/100 (100 executions), the wait periods to 1/500 (Table 2's
/// 1M to 2000, frequent revisit's 100k to 200), the eviction-sampling
/// window to 1/10 with the same duty cycle, and the given latency.
inline core::ReactiveConfig scaleDown(core::ReactiveConfig C,
                                      uint64_t OptLatency) {
  C.MonitorPeriod /= 100;
  C.WaitPeriod /= 500;
  C.EvictSampleWindow /= 10;
  C.EvictSampleCount /= 10;
  C.OptLatency = OptLatency;
  return C;
}

/// The optimization latency of the scaled presets, in instructions: a few
/// hundred events at the suite's gaps, so a request outlives a chunk of
/// 257 and is applied at a later execution of its site.
constexpr uint64_t ScaledLatency = 2000;

inline std::vector<NamedConfig> variants() {
  using core::ReactiveConfig;
  ReactiveConfig Unlimited = ReactiveConfig::baseline();
  Unlimited.OscillationLimit = 0;
  return {
      {"baseline", scaleDown(ReactiveConfig::baseline(), ScaledLatency)},
      {"no-eviction", scaleDown(ReactiveConfig::noEviction(), ScaledLatency)},
      {"no-revisit", scaleDown(ReactiveConfig::noRevisit(), ScaledLatency)},
      {"lower-eviction-threshold",
       scaleDown(ReactiveConfig::lowerEvictionThreshold(), ScaledLatency)},
      {"eviction-by-sampling",
       scaleDown(ReactiveConfig::evictionBySampling(), ScaledLatency)},
      {"monitor-sampling",
       scaleDown(ReactiveConfig::monitorSampling(), ScaledLatency)},
      {"frequent-revisit",
       scaleDown(ReactiveConfig::frequentRevisit(), ScaledLatency)},
      {"baseline-latency-0", scaleDown(ReactiveConfig::baseline(), 0)},
      {"no-oscillation-limit", scaleDown(Unlimited, ScaledLatency)},
  };
}

} // namespace scaled
} // namespace specctrl

#endif // SPECCTRL_TESTS_CORE_SCALEDVARIANTS_H
