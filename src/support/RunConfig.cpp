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

} // namespace

RunConfig RunConfig::fromEnv(std::string *Warnings) {
  RunConfig Out;
  Out.VerifyDistill = envBool("SPECCTRL_VERIFY", Out.VerifyDistill);
  Out.ArenaVerbose = envBool("SPECCTRL_ARENA_VERBOSE", Out.ArenaVerbose);
  for (const char *Removed :
       {"SPECCTRL_VERIFY_DISTILL", "SPECCTRL_ARENA_DEBUG",
        "SPECCTRL_TRACE_MMAP", "SPECCTRL_SWEEP_PROCS",
        "SPECCTRL_SERVE_EPOCH_EVENTS", "SPECCTRL_SERVE_RING_EVENTS",
        "SPECCTRL_VERIFY_SPECLEAK"})
    if (Warnings && std::getenv(Removed)) {
      *Warnings += Removed;
      *Warnings += " is no longer read; it has no effect\n";
    }
  return Out;
}

const RunConfig &RunConfig::global() {
  static const RunConfig Config = [] {
    std::string Warnings;
    RunConfig Parsed = RunConfig::fromEnv(&Warnings);
    if (!Warnings.empty())
      std::fprintf(stderr, "specctrl: %s", Warnings.c_str());
    return Parsed;
  }();
  return Config;
}
