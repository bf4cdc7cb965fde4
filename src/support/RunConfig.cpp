//===- support/RunConfig.cpp - Process-wide run configuration -------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/RunConfig.h"

#include <cstdio>
#include <cstdlib>

using namespace specctrl;

namespace {

/// Reads a boolean knob: unset keeps \p Default; "" and "0" mean off,
/// anything else on.
bool envBool(const char *Name, bool Default) {
  const char *Env = std::getenv(Name);
  if (!Env)
    return Default;
  return *Env && !(Env[0] == '0' && Env[1] == '\0');
}

/// Reads a positive integer knob; unset keeps \p Default, malformed or
/// zero values keep it too (with a note).
uint64_t envCount(const char *Name, uint64_t Default, std::string *Warnings) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env)
    return Default;
  char *End = nullptr;
  const unsigned long long Value = std::strtoull(Env, &End, 10);
  if (End && *End == '\0' && Value > 0)
    return Value;
  if (Warnings) {
    *Warnings += Name;
    *Warnings += "=";
    *Warnings += Env;
    *Warnings += " is not a positive integer; keeping the default\n";
  }
  return Default;
}

} // namespace

RunConfig RunConfig::fromEnv(std::string *Warnings) {
  RunConfig Out;
  Out.VerifyDistill = envBool("SPECCTRL_VERIFY", Out.VerifyDistill);
  Out.ArenaVerbose = envBool("SPECCTRL_ARENA_VERBOSE", Out.ArenaVerbose);
  Out.ServeEpochEvents =
      envCount("SPECCTRL_SERVE_EPOCH_EVENTS", Out.ServeEpochEvents, Warnings);
  Out.ServeRingEvents =
      envCount("SPECCTRL_SERVE_RING_EVENTS", Out.ServeRingEvents, Warnings);
  Out.SweepProcs = envCount("SPECCTRL_SWEEP_PROCS", Out.SweepProcs, Warnings);
  Out.VerifySpecLeak =
      envBool("SPECCTRL_VERIFY_SPECLEAK", Out.VerifySpecLeak);
  for (const char *Removed : {"SPECCTRL_VERIFY_DISTILL", "SPECCTRL_ARENA_DEBUG",
                              "SPECCTRL_TRACE_MMAP"})
    if (Warnings && std::getenv(Removed)) {
      *Warnings += Removed;
      *Warnings += " is no longer read; it has no effect\n";
    }
  return Out;
}

namespace {

RunConfig &globalSlot() {
  static RunConfig Config = [] {
    std::string Warnings;
    RunConfig Parsed = RunConfig::fromEnv(&Warnings);
    if (!Warnings.empty())
      std::fprintf(stderr, "specctrl: %s", Warnings.c_str());
    return Parsed;
  }();
  return Config;
}

} // namespace

const RunConfig &RunConfig::global() { return globalSlot(); }

void RunConfig::setGlobal(const RunConfig &Config) { globalSlot() = Config; }
