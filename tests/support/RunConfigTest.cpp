//===- tests/support/RunConfigTest.cpp ------------------------------------===//
//
// The typed run configuration: the environment names, the numeric and
// default-on knobs, and the one-line note for each removed variable.
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
  Env.set("SPECCTRL_VERIFY_DISTILL", "1");
  Env.set("SPECCTRL_ARENA_DEBUG", "1");
  Env.set("SPECCTRL_TRACE_MMAP", "0");
  std::string Warnings;
  const RunConfig Cfg = RunConfig::fromEnv(&Warnings);
  EXPECT_FALSE(Cfg.VerifyDistill) << "only SPECCTRL_VERIFY enables it";
  EXPECT_FALSE(Cfg.ArenaVerbose) << "only SPECCTRL_ARENA_VERBOSE enables it";
  for (const char *Removed : {"SPECCTRL_VERIFY_DISTILL", "SPECCTRL_ARENA_DEBUG",
                              "SPECCTRL_TRACE_MMAP"})
    EXPECT_NE(Warnings.find(std::string(Removed) + " is no longer read"),
              std::string::npos)
        << Warnings;
}

TEST(RunConfig, ServeKnobsDefaultAndParse) {
  ScopedEnv Env;
  {
    const RunConfig Cfg = RunConfig::fromEnv(nullptr);
    EXPECT_EQ(Cfg.ServeEpochEvents, 8192u);
    EXPECT_EQ(Cfg.ServeRingEvents, 8192u);
  }
  Env.set("SPECCTRL_SERVE_EPOCH_EVENTS", "1024");
  Env.set("SPECCTRL_SERVE_RING_EVENTS", "65536");
  std::string Warnings;
  const RunConfig Cfg = RunConfig::fromEnv(&Warnings);
  EXPECT_EQ(Cfg.ServeEpochEvents, 1024u);
  EXPECT_EQ(Cfg.ServeRingEvents, 65536u);
  EXPECT_TRUE(Warnings.empty()) << Warnings;
}

TEST(RunConfig, ServeKnobsRejectMalformedValuesWithWarning) {
  ScopedEnv Env;
  Env.set("SPECCTRL_SERVE_EPOCH_EVENTS", "0");
  Env.set("SPECCTRL_SERVE_RING_EVENTS", "lots");
  std::string Warnings;
  const RunConfig Cfg = RunConfig::fromEnv(&Warnings);
  EXPECT_EQ(Cfg.ServeEpochEvents, 8192u) << "zero must keep the default";
  EXPECT_EQ(Cfg.ServeRingEvents, 8192u) << "junk must keep the default";
  EXPECT_NE(Warnings.find("SPECCTRL_SERVE_EPOCH_EVENTS=0"),
            std::string::npos)
      << Warnings;
  EXPECT_NE(Warnings.find("SPECCTRL_SERVE_RING_EVENTS=lots"),
            std::string::npos)
      << Warnings;
}

TEST(RunConfig, VerifySpecLeakDefaultsOnAndZeroOptsOut) {
  ScopedEnv Env;
  EXPECT_TRUE(RunConfig::fromEnv().VerifySpecLeak)
      << "the SpecLeak check defaults on";
  Env.set("SPECCTRL_VERIFY_SPECLEAK", "0");
  EXPECT_FALSE(RunConfig::fromEnv().VerifySpecLeak);
  Env.set("SPECCTRL_VERIFY_SPECLEAK", "1");
  EXPECT_TRUE(RunConfig::fromEnv().VerifySpecLeak);
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

TEST(RunConfig, SetGlobalOverrides) {
  const RunConfig Before = RunConfig::global();
  RunConfig Override = Before;
  Override.ServeEpochEvents = Before.ServeEpochEvents + 1;
  RunConfig::setGlobal(Override);
  EXPECT_EQ(RunConfig::global().ServeEpochEvents,
            Before.ServeEpochEvents + 1);
  RunConfig::setGlobal(Before); // restore for the rest of the binary
  EXPECT_EQ(RunConfig::global().ServeEpochEvents, Before.ServeEpochEvents);
}
