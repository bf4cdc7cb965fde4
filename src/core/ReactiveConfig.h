//===- core/ReactiveConfig.h - Table 2 model parameters ---------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameters of the reactive control model.  The defaults are exactly the
/// paper's Table 2:
///
///   Monitor period            10,000 executions
///   Selection threshold       99.5 percent
///   Misspeculation threshold  10,000 (+50 on misspeculation, -1 otherwise)
///   Wait period               1,000,000 executions
///   Oscillation threshold     will not optimize a sixth time
///   Optimization latency      1,000,000 instructions
///
/// The sensitivity-analysis variants of Sec. 3.3 (arc removal, lower
/// eviction threshold, eviction by bias re-sampling, monitor-state
/// sampling, faster revisit) are expressed as named constructors.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_CORE_REACTIVECONFIG_H
#define SPECCTRL_CORE_REACTIVECONFIG_H

#include <cstdint>
#include <string>

namespace specctrl {
namespace core {

/// Configuration of ReactiveController.  Defaults reproduce Table 2.
struct ReactiveConfig {
  /// Executions spent in the monitor state before classification.
  uint64_t MonitorPeriod = 10000;
  /// Bias required (over the monitor period) to enter the biased state.
  double SelectThreshold = 0.995;
  /// Eviction saturating-counter cap; eviction triggers at saturation.
  uint64_t EvictSaturation = 10000;
  /// Counter increment per misspeculation.
  uint32_t EvictUp = 50;
  /// Counter decrement per correct speculation.
  uint32_t EvictDown = 1;
  /// Executions spent in the unbiased state before revisiting monitor.
  uint64_t WaitPeriod = 1000000;
  /// Maximum optimizations per site ("will not optimize a sixth time").
  /// Zero disables the limit.
  uint32_t OscillationLimit = 5;
  /// Instructions between a request and its deployment (built-in latency
  /// model; ignored when an external sink completes requests).
  uint64_t OptLatency = 1000000;

  /// The biased -> monitor arc (its removal is the "open loop" policy).
  bool EnableEviction = true;
  /// The unbiased -> monitor arc.
  bool EnableRevisit = true;

  /// Monitor-state sampling: observe only one in N executions (1 = all).
  unsigned MonitorSampleRate = 1;

  /// Eviction by bias re-sampling instead of the continuous counter:
  /// observe the first EvictSampleCount executions of every
  /// EvictSampleWindow executions and evict when the sampled bias falls
  /// below EvictSampleBias.
  bool EvictBySampling = false;
  uint64_t EvictSampleWindow = 10000;
  uint64_t EvictSampleCount = 1000;
  double EvictSampleBias = 0.98;

  /// The first violated validity rule, as a message; empty when the
  /// config is valid.  The one check behind the controller's constructor
  /// and the benches' --threshold reader.
  std::string validate() const {
    if (MonitorPeriod == 0)
      return "monitor period is zero";
    if (!(SelectThreshold > 0.5) || !(SelectThreshold <= 1.0))
      return "selection threshold out of (0.5, 1]";
    if (MonitorSampleRate < 1)
      return "monitor sample rate is zero";
    if (EvictBySampling && EvictSampleCount > EvictSampleWindow)
      return "eviction sample count exceeds the sampling window";
    return {};
  }

  // ---- Named variants (Fig. 5 / Table 4) ---------------------------------

  static ReactiveConfig baseline() { return ReactiveConfig(); }

  /// Open loop: no biased -> monitor arc.
  static ReactiveConfig noEviction() {
    ReactiveConfig C;
    C.EnableEviction = false;
    return C;
  }

  /// No unbiased -> monitor arc.
  static ReactiveConfig noRevisit() {
    ReactiveConfig C;
    C.EnableRevisit = false;
    return C;
  }

  /// Eviction counter cap lowered to 1,000.
  static ReactiveConfig lowerEvictionThreshold() {
    ReactiveConfig C;
    C.EvictSaturation = 1000;
    return C;
  }

  /// Eviction decided from periodic 10%-duty-cycle bias samples.
  static ReactiveConfig evictionBySampling() {
    ReactiveConfig C;
    C.EvictBySampling = true;
    return C;
  }

  /// 1-in-8 sampling while monitoring.
  static ReactiveConfig monitorSampling() {
    ReactiveConfig C;
    C.MonitorSampleRate = 8;
    return C;
  }

  /// Revisit wait shortened to 100k executions.
  static ReactiveConfig frequentRevisit() {
    ReactiveConfig C;
    C.WaitPeriod = 100000;
    return C;
  }

  /// The one-shot policies of Sec. 2.2 / Fig. 4(a): classify once after
  /// \p Window executions and never reconsider.
  static ReactiveConfig oneShot(uint64_t Window, double Threshold = 0.995) {
    ReactiveConfig C;
    C.MonitorPeriod = Window;
    C.SelectThreshold = Threshold;
    C.EnableEviction = false;
    C.EnableRevisit = false;
    return C;
  }
};

} // namespace core
} // namespace specctrl

#endif // SPECCTRL_CORE_REACTIVECONFIG_H
