//===- mssp/CoreTiming.cpp - Component-latency core model -----------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "mssp/CoreTiming.h"

using namespace specctrl;
using namespace specctrl::mssp;

CoreTiming::CoreTiming(const CoreConfig &Config, CacheModel *SharedL2,
                       uint32_t L2LatencyCycles, uint32_t MemoryLatencyCycles)
    : Config(Config), Gshare(Config.GshareBits), Ras(Config.RasEntries),
      L1(Config.L1), L2(SharedL2), L2Latency(L2LatencyCycles),
      MemoryLatency(MemoryLatencyCycles), Width(Config.Width) {}
