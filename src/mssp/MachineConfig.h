//===- mssp/MachineConfig.h - Table 5 machine parameters --------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameters of the simulated asymmetric chip multiprocessor.  Defaults
/// are the paper's Table 5:
///
///                Leading core              Trailing cores (x8)
///   Pipeline     4-wide, 12-stage          2-wide, 8-stage
///   Window       128-entry                 24-entry
///   Caches       64KB 2-way SA, 64B, 3cyc  8KB 8-way, 64B, same latency
///   Br. Pred.    8Kb gshare, 32-entry RAS  same
///   L2           shared 1MB 8-way, 64B blocks, 10-cycle access
///   Coherence    10-cycle minimum hop
///   Memory       200-cycle latency after L2
///
/// The timing model is a mechanistic component-latency model (see
/// DESIGN.md): per-instruction issue cost from the width, pipeline-depth
/// branch-misprediction penalties from a real gshare, and cache-miss
/// stalls from real LRU cache state -- not a full out-of-order pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_MSSP_MACHINECONFIG_H
#define SPECCTRL_MSSP_MACHINECONFIG_H

#include <cstdint>
#include <string>

namespace specctrl {
namespace mssp {

/// One cache level.
struct CacheConfig {
  uint32_t SizeBytes = 64 * 1024;
  uint32_t Assoc = 2;
  uint32_t BlockBytes = 64;
  uint32_t LatencyCycles = 3;

  /// Names the first rule the geometry breaks ("" if CacheModel can be
  /// built from it).
  std::string validate() const {
    const auto PowerOfTwo = [](uint32_t X) { return X && !(X & (X - 1)); };
    if (Assoc == 0)
      return "Assoc is zero";
    if (BlockBytes < 8 || !PowerOfTwo(BlockBytes))
      return "BlockBytes is not a power of two of at least 8";
    const uint32_t Blocks = SizeBytes / BlockBytes;
    if (Blocks < Assoc)
      return "SizeBytes holds less than one set";
    if (!PowerOfTwo(Blocks / Assoc))
      return "SizeBytes / BlockBytes / Assoc (the set count) is not a power "
             "of two";
    return {};
  }
};

/// One core's pipeline and private-cache parameters.
struct CoreConfig {
  uint32_t Width = 4;          ///< issue width (base CPI = 1/Width)
  uint32_t PipelineDepth = 12; ///< branch misprediction penalty
  uint32_t WindowSize = 128;   ///< documented; the simple model folds its
                               ///< effect into the miss penalties
  CacheConfig L1{64 * 1024, 2, 64, 3};
  uint32_t GshareBits = 13;    ///< log2 of 2-bit-counter table entries
                               ///< (8K counters ~ "8Kb gshare")
  uint32_t RasEntries = 32;

  /// Names the first rule the core breaks ("" if valid).
  std::string validate() const {
    if (Width == 0)
      return "Width is zero";
    if (GshareBits < 4 || GshareBits > 24)
      return "GshareBits is outside [4, 24]";
    if (RasEntries == 0)
      return "RasEntries is zero";
    if (std::string Rule = L1.validate(); !Rule.empty())
      return "L1." + Rule;
    return {};
  }
};

/// The whole machine.
struct MachineConfig {
  CoreConfig Leading{4, 12, 128, {64 * 1024, 2, 64, 3}, 13, 32};
  CoreConfig Trailing{2, 8, 24, {8 * 1024, 8, 64, 3}, 13, 32};
  uint32_t NumTrailing = 8;
  CacheConfig L2{1024 * 1024, 8, 64, 10};
  uint32_t CoherenceHopCycles = 10;
  uint32_t MemoryLatencyCycles = 200;

  /// Names the first rule the machine breaks, led by the field's path
  /// ("" if valid): each rule guards a crash or an assert in the timing
  /// model (a division by a zero width, an empty trailing-core set, a
  /// predictor or cache it cannot build).  Behind MsspConfig::validate()
  /// and simulateSuperscalarBaseline.
  std::string validate() const {
    if (NumTrailing == 0)
      return "NumTrailing is zero";
    if (std::string Rule = Leading.validate(); !Rule.empty())
      return "Leading." + Rule;
    if (std::string Rule = Trailing.validate(); !Rule.empty())
      return "Trailing." + Rule;
    if (std::string Rule = L2.validate(); !Rule.empty())
      return "L2." + Rule;
    return {};
  }
};

} // namespace mssp
} // namespace specctrl

#endif // SPECCTRL_MSSP_MACHINECONFIG_H
