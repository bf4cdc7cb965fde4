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

/// True when \p Name is set to anything but "" or "0".
bool envFlag(const char *Name, bool &Present) {
  const char *Env = std::getenv(Name);
  Present = Env != nullptr;
  return Env && *Env && !(Env[0] == '0' && Env[1] == '\0');
}

/// Reads a boolean knob: canonical name wins; the deprecated alias is
/// honored only when the canonical name is unset, with a note.
bool envBool(const char *Canonical, const char *Deprecated, bool Default,
             std::string *Warnings) {
  bool Present = false;
  const bool Value = envFlag(Canonical, Present);
  if (Present)
    return Value;
  const bool AliasValue = envFlag(Deprecated, Present);
  if (!Present)
    return Default;
  if (Warnings) {
    *Warnings += Deprecated;
    *Warnings += " is deprecated; use ";
    *Warnings += Canonical;
    *Warnings += "\n";
  }
  return AliasValue;
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
  Out.VerifyDistill = envBool("SPECCTRL_VERIFY", "SPECCTRL_VERIFY_DISTILL",
                              false, Warnings);
  Out.ArenaVerbose = envBool("SPECCTRL_ARENA_VERBOSE", "SPECCTRL_ARENA_DEBUG",
                             false, Warnings);
  Out.ServeEpochEvents =
      envCount("SPECCTRL_SERVE_EPOCH_EVENTS", Out.ServeEpochEvents, Warnings);
  Out.ServeRingEvents =
      envCount("SPECCTRL_SERVE_RING_EVENTS", Out.ServeRingEvents, Warnings);
  {
    // Default-on knob: unset keeps the mmap tier, "0" (or "") disables it.
    bool Present = false;
    const bool Value = envFlag("SPECCTRL_TRACE_MMAP", Present);
    if (Present)
      Out.TraceMmap = Value;
  }
  Out.SweepProcs = envCount("SPECCTRL_SWEEP_PROCS", Out.SweepProcs, Warnings);
  {
    // Default-on knob: unset keeps the SpecLeak check, "0" opts out.
    bool Present = false;
    const bool Value = envFlag("SPECCTRL_VERIFY_SPECLEAK", Present);
    if (Present)
      Out.VerifySpecLeak = Value;
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
