//===- tests/mssp/MsspFaultTest.cpp - Simulated faults are errors ---------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
// A simulated program that faults -- a store past the memory cap, or
// recursion past the frame limit -- makes MsspSimulator::run and
// simulateSuperscalarBaseline throw in every build, naming the entry
// point, where the fault happened, and the faulting function.  In an
// experiment plan that surfaces as a failed cell, while sibling cells
// still match their serial runs.  An invalid configuration is rejected
// the same way: every rule MsspConfig::validate() checks has a case, each
// of which crashed the simulator (or tripped an assert) before the rule
// existed.
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"
#include "ir/IRBuilder.h"
#include "mssp/MsspSimulator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <any>
#include <ostream>
#include <stdexcept>
#include <string>

using namespace specctrl;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

enum class Fault { StorePastCap, RecursionPastLimit };

/// A one-function program whose first few instructions fault.
SynthProgram faultingProgram(Fault Kind) {
  SynthProgram P;
  ir::Function &Main = P.Mod.createFunction("faulty_main", 2);
  ir::IRBuilder B(Main);
  B.setBlock(B.makeBlock());
  if (Kind == Fault::StorePastCap) {
    B.movImm(1, int64_t{1} << 30);
    B.store(1, 0, 1);
    B.halt();
  } else {
    B.call(0);
    B.ret();
  }
  P.InitialMemory.assign(16, 0);
  P.IterationAddr = 8;
  return P;
}

/// Caps the run, so a simulator that ignores the fault still terminates.
MsspConfig cappedConfig() {
  MsspConfig Cfg;
  Cfg.MaxInstructions = 1;
  return Cfg;
}

/// The message of the runtime_error \p Fn throws ("" if none).
template <class FnT> std::string errorOf(FnT Fn) {
  try {
    Fn();
  } catch (const std::runtime_error &E) {
    return E.what();
  }
  return "";
}

} // namespace

TEST(MsspFaultTest, StorePastMemoryCapThrows) {
  const SynthProgram P = faultingProgram(Fault::StorePastCap);
  const std::string Mssp = errorOf([&] {
    MsspSimulator Sim(P, cappedConfig());
    Sim.run();
  });
  EXPECT_NE(Mssp.find("MsspSimulator::run"), std::string::npos) << Mssp;
  EXPECT_NE(Mssp.find("task 1"), std::string::npos) << Mssp;
  EXPECT_NE(Mssp.find("'faulty_main'"), std::string::npos) << Mssp;

  const std::string Baseline =
      errorOf([&] { simulateSuperscalarBaseline(P, MachineConfig()); });
  EXPECT_NE(Baseline.find("simulateSuperscalarBaseline"), std::string::npos)
      << Baseline;
  EXPECT_NE(Baseline.find("after 2 instructions"), std::string::npos)
      << Baseline;
  EXPECT_NE(Baseline.find("'faulty_main'"), std::string::npos) << Baseline;
}

TEST(MsspFaultTest, RecursionPastFrameLimitThrows) {
  const SynthProgram P = faultingProgram(Fault::RecursionPastLimit);
  const std::string Mssp = errorOf([&] {
    MsspSimulator Sim(P, cappedConfig());
    Sim.run();
  });
  EXPECT_NE(Mssp.find("MsspSimulator::run"), std::string::npos) << Mssp;
  EXPECT_NE(Mssp.find("'faulty_main'"), std::string::npos) << Mssp;

  const std::string Baseline =
      errorOf([&] { simulateSuperscalarBaseline(P, MachineConfig()); });
  EXPECT_NE(Baseline.find("after 256 instructions"), std::string::npos)
      << Baseline;
}

TEST(MsspFaultTest, ZeroTaskIterationsRejected) {
  const SynthProgram P =
      synthesize(makeSynthSpecFor(profileByName("bzip2"), 100));
  MsspConfig Cfg;
  Cfg.TaskIterations = 0;
  Cfg.MaxInstructions = 1;
  const std::string Error = errorOf([&] { MsspSimulator Sim(P, Cfg); });
  EXPECT_NE(Error.find("TaskIterations"), std::string::npos) << Error;
}

namespace {

/// One rule of MsspConfig::validate(): a config breaking only it, and the
/// field path the rejection must name.
struct ConfigRule {
  const char *Name;
  const char *Field;
  void (*Break)(MsspConfig &);
  /// The rule is the machine's, so simulateSuperscalarBaseline checks it.
  bool Machine = true;
};

const ConfigRule ConfigRules[] = {
    {"MaxOutstandingTasks", "MaxOutstandingTasks",
     [](MsspConfig &C) { C.MaxOutstandingTasks = 0; }, false},
    {"NumTrailing", "Machine.NumTrailing",
     [](MsspConfig &C) { C.Machine.NumTrailing = 0; }},
    {"LeadingWidth", "Machine.Leading.Width",
     [](MsspConfig &C) { C.Machine.Leading.Width = 0; }},
    {"TrailingWidth", "Machine.Trailing.Width",
     [](MsspConfig &C) { C.Machine.Trailing.Width = 0; }},
    {"GshareBits", "Machine.Leading.GshareBits",
     [](MsspConfig &C) { C.Machine.Leading.GshareBits = 3; }},
    {"RasEntries", "Machine.Trailing.RasEntries",
     [](MsspConfig &C) { C.Machine.Trailing.RasEntries = 0; }},
    {"L1Assoc", "Machine.Leading.L1.Assoc",
     [](MsspConfig &C) { C.Machine.Leading.L1.Assoc = 0; }},
    {"L1BlockBytes", "Machine.Trailing.L1.BlockBytes",
     [](MsspConfig &C) { C.Machine.Trailing.L1.BlockBytes = 4; }},
    {"L2BlockBytesNotPowerOfTwo", "Machine.L2.BlockBytes",
     [](MsspConfig &C) { C.Machine.L2.BlockBytes = 48; }},
    {"L1SmallerThanOneSet", "Machine.Leading.L1.SizeBytes",
     [](MsspConfig &C) { C.Machine.Leading.L1.SizeBytes = 64; }},
    {"L2SetCount", "Machine.L2.SizeBytes / BlockBytes / Assoc",
     [](MsspConfig &C) { C.Machine.L2.Assoc = 3; }},
};

/// Names a rule in test output (and keeps its bytes out of test names).
void PrintTo(const ConfigRule &Rule, std::ostream *OS) { *OS << Rule.Name; }

class MsspConfigRuleTest : public ::testing::TestWithParam<ConfigRule> {};

} // namespace

TEST(MsspFaultTest, DefaultConfigIsValid) {
  EXPECT_EQ(MsspConfig().validate(), "");
  EXPECT_EQ(MachineConfig().validate(), "");
}

TEST_P(MsspConfigRuleTest, RejectedInEveryBuild) {
  const ConfigRule &Rule = GetParam();
  static const SynthProgram P =
      synthesize(makeSynthSpecFor(profileByName("bzip2"), 100));
  MsspConfig Cfg;
  Cfg.MaxInstructions = 1;
  Rule.Break(Cfg);
  const std::string Field = Rule.Field;
  EXPECT_EQ(Cfg.validate().rfind(Field, 0), 0u) << Cfg.validate();

  const std::string Error = errorOf([&] {
    MsspSimulator Sim(P, Cfg);
    Sim.run();
  });
  EXPECT_NE(Error.find("invalid MsspConfig: " + Field), std::string::npos)
      << Error;

  // The baseline reads only the machine, and names the field from there.
  const std::string Baseline =
      errorOf([&] { simulateSuperscalarBaseline(P, Cfg.Machine, 1); });
  if (Rule.Machine) {
    const std::string MachineField = Field.substr(Field.find('.') + 1);
    EXPECT_NE(Baseline.find("invalid MachineConfig: " + MachineField),
              std::string::npos)
        << Baseline;
  } else {
    EXPECT_EQ(Baseline, "");
  }
}

INSTANTIATE_TEST_SUITE_P(MsspFaultTest, MsspConfigRuleTest,
                         ::testing::ValuesIn(ConfigRules),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

TEST(MsspFaultTest, EnginePlanIsolatesFaultingCells) {
  const SynthProgram Faulty = faultingProgram(Fault::StorePastCap);
  auto MsspCycles = [](const std::string &Bench) {
    const SynthProgram P =
        synthesize(makeSynthSpecFor(profileByName(Bench), 2000));
    MsspSimulator Sim(P, MsspConfig());
    return Sim.run().TotalCycles;
  };
  auto BaselineCycles = [](const std::string &Bench) {
    const SynthProgram P =
        synthesize(makeSynthSpecFor(profileByName(Bench), 2000));
    return simulateSuperscalarBaseline(P, MachineConfig());
  };

  engine::ExperimentPlan Plan;
  Plan.addBenchmark(makeBenchmark("bzip2"));
  Plan.addBenchmark(makeBenchmark("gcc"));
  Plan.addTaskConfig("mssp", [&](const engine::CellContext &Ctx) {
    return std::any(MsspCycles(Ctx.Spec.Name));
  });
  Plan.addTaskConfig("faulty-mssp", [&Faulty](const engine::CellContext &) {
    MsspSimulator Sim(Faulty, cappedConfig());
    return std::any(Sim.run().TotalCycles);
  });
  Plan.addTaskConfig("baseline", [&](const engine::CellContext &Ctx) {
    return std::any(BaselineCycles(Ctx.Spec.Name));
  });
  Plan.addTaskConfig("faulty-baseline", [&Faulty](const engine::CellContext &) {
    return std::any(simulateSuperscalarBaseline(Faulty, MachineConfig()));
  });
  const engine::RunReport Report = engine::runPlan(Plan, {.Jobs = 4});

  for (uint32_t B = 0; B < 2; ++B) {
    const std::string Bench = Plan.benchmarks()[B].Spec.Name;
    for (const uint32_t C : {1u, 3u}) {
      const engine::CellResult &Cell = Report.cell(B, 0, C);
      EXPECT_TRUE(Cell.Failed) << Bench << " column " << C;
      EXPECT_NE(Cell.Error.find("faulted"), std::string::npos) << Cell.Error;
    }
    // The healthy cells equal serial runs of the same computations.
    ASSERT_FALSE(Report.cell(B, 0, 0).Failed) << Bench;
    ASSERT_FALSE(Report.cell(B, 0, 2).Failed) << Bench;
    EXPECT_EQ(std::any_cast<uint64_t>(Report.cell(B, 0, 0).Value),
              MsspCycles(Bench));
    EXPECT_EQ(std::any_cast<uint64_t>(Report.cell(B, 0, 2).Value),
              BaselineCycles(Bench));
  }
}
