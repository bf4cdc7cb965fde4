//===- tests/support/RunConfigTest.cpp ------------------------------------===//
//
// The typed run configuration: the environment names, and the one-line
// note for each removed variable.
//
//===----------------------------------------------------------------------===//

#include "support/RunConfig.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

using namespace specctrl;

namespace {

/// Scoped save/clear/restore for every variable fromEnv reads, so the
/// tests are hermetic under the ctest harness (which itself exports
/// SPECCTRL_VERIFY=1).
class ScopedEnv {
public:
  ScopedEnv() {
    for (const char *Name : Names) {
      const char *Value = std::getenv(Name);
      Saved.emplace_back(Name, Value ? std::string(Value) : std::string());
      HadValue.push_back(Value != nullptr);
      ::unsetenv(Name);
    }
  }
  ~ScopedEnv() {
    for (size_t I = 0; I < Saved.size(); ++I) {
      if (HadValue[I])
        ::setenv(Saved[I].first, Saved[I].second.c_str(), 1);
      else
        ::unsetenv(Saved[I].first);
    }
  }

  void set(const char *Name, const char *Value) {
    ::setenv(Name, Value, 1);
  }

private:
  static constexpr const char *Names[9] = {
      "SPECCTRL_VERIFY",        "SPECCTRL_VERIFY_DISTILL",
      "SPECCTRL_ARENA_VERBOSE", "SPECCTRL_ARENA_DEBUG",
      "SPECCTRL_SERVE_EPOCH_EVENTS", "SPECCTRL_SERVE_RING_EVENTS",
      "SPECCTRL_TRACE_MMAP",    "SPECCTRL_SWEEP_PROCS",
      "SPECCTRL_VERIFY_SPECLEAK"};
  std::vector<std::pair<const char *, std::string>> Saved;
  std::vector<bool> HadValue;
};

} // namespace

TEST(RunConfig, DefaultsWithEmptyEnvironment) {
  ScopedEnv Env;
  std::string Warnings;
  const RunConfig Cfg = RunConfig::fromEnv(&Warnings);
  EXPECT_FALSE(Cfg.VerifyDistill);
  EXPECT_FALSE(Cfg.ArenaVerbose);
  EXPECT_TRUE(Warnings.empty());
}

TEST(RunConfig, CanonicalNamesParseSilently) {
  ScopedEnv Env;
  Env.set("SPECCTRL_VERIFY", "1");
  Env.set("SPECCTRL_ARENA_VERBOSE", "1");
  std::string Warnings;
  const RunConfig Cfg = RunConfig::fromEnv(&Warnings);
  EXPECT_TRUE(Cfg.VerifyDistill);
  EXPECT_TRUE(Cfg.ArenaVerbose);
  EXPECT_TRUE(Warnings.empty()) << Warnings;
}

TEST(RunConfig, ZeroAndEmptyMeanOff) {
  ScopedEnv Env;
  Env.set("SPECCTRL_VERIFY", "0");
  Env.set("SPECCTRL_ARENA_VERBOSE", "");
  const RunConfig Cfg = RunConfig::fromEnv(nullptr);
  EXPECT_FALSE(Cfg.VerifyDistill);
  EXPECT_FALSE(Cfg.ArenaVerbose);
}

TEST(RunConfig, RemovedVariablesAreReportedNotRead) {
  ScopedEnv Env;
  const char *const Removed[] = {
      "SPECCTRL_VERIFY_DISTILL",    "SPECCTRL_ARENA_DEBUG",
      "SPECCTRL_TRACE_MMAP",        "SPECCTRL_SERVE_EPOCH_EVENTS",
      "SPECCTRL_SERVE_RING_EVENTS", "SPECCTRL_VERIFY_SPECLEAK"};
  for (const char *Name : Removed)
    Env.set(Name, "1");
  std::string Warnings;
  const RunConfig Cfg = RunConfig::fromEnv(&Warnings);
  EXPECT_FALSE(Cfg.VerifyDistill) << "only SPECCTRL_VERIFY enables it";
  EXPECT_FALSE(Cfg.ArenaVerbose) << "only SPECCTRL_ARENA_VERBOSE enables it";
  for (const char *Name : Removed)
    EXPECT_NE(Warnings.find(std::string(Name) + " is no longer read"),
              std::string::npos)
        << Warnings;
}

TEST(RunConfig, SweepWorkerVariableIsNoLongerRead) {
  // Sweeps run on the in-process thread pool only; the worker-process
  // count has no reader, whatever its value.
  ScopedEnv Env;
  for (const char *Value : {"4", "many"}) {
    Env.set("SPECCTRL_SWEEP_PROCS", Value);
    std::string Warnings;
    (void)RunConfig::fromEnv(&Warnings);
    EXPECT_EQ(Warnings,
              "SPECCTRL_SWEEP_PROCS is no longer read; it has no effect\n");
  }
}
