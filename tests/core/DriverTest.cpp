//===- tests/core/DriverTest.cpp ------------------------------------------===//

#include "core/Driver.h"

#include "core/ReactiveController.h"
#include "workload/TraceFile.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::workload;

namespace {

WorkloadSpec twoSiteSpec() {
  WorkloadSpec Spec;
  Spec.Name = "drv";
  Spec.Seed = 5;
  Spec.RefEvents = 100000;
  Spec.NumPhases = 1;
  SiteSpec Biased;
  Biased.Behavior = BehaviorSpec::fixed(0.9995);
  Biased.Weight = 3.0;
  SiteSpec Noise;
  Noise.Behavior = BehaviorSpec::fixed(0.5);
  Noise.Weight = 1.0;
  Spec.Sites = {Biased, Noise};
  return Spec;
}

} // namespace

TEST(DriverTest, RunsWholeTrace) {
  const WorkloadSpec Spec = twoSiteSpec();
  ReactiveConfig Cfg;
  Cfg.MonitorPeriod = 1000;
  Cfg.OptLatency = 0;
  ReactiveController C(Cfg);
  const ControlStats &S = runWorkload(C, Spec, Spec.refInput());
  EXPECT_EQ(S.Branches, Spec.RefEvents);
  EXPECT_EQ(S.touchedCount(), 2u);
  // The biased site gets selected and speculated at ~75% of events.
  EXPECT_GT(S.correctRate(), 0.5);
  EXPECT_LT(S.incorrectRate(), 0.01);
}

TEST(DriverTest, HookSeesEveryEventAndVerdict) {
  const WorkloadSpec Spec = twoSiteSpec();
  ReactiveConfig Cfg;
  Cfg.MonitorPeriod = 1000;
  Cfg.OptLatency = 0;
  ReactiveController C(Cfg);

  struct Counter final : TraceObserver {
    uint64_t Events = 0, Speculated = 0;
    void onEvent(const BranchEvent &E, const BranchVerdict &V) override {
      ++Events;
      Speculated += V.Speculated;
      EXPECT_LT(E.Site, 2u);
    }
  } Hook;
  workload::TraceGenerator Gen(Spec, Spec.refInput());
  const ControlStats &S = runTrace(C, Gen, &Hook);
  EXPECT_EQ(Hook.Events, Spec.RefEvents);
  EXPECT_EQ(Hook.Speculated, S.CorrectSpecs + S.IncorrectSpecs);
}

TEST(DriverTest, PartiallyConsumedGeneratorFinishes) {
  const WorkloadSpec Spec = twoSiteSpec();
  workload::TraceGenerator Gen(Spec, Spec.refInput());
  BranchEvent E;
  for (int I = 0; I < 1000; ++I)
    ASSERT_TRUE(Gen.next(E));
  ReactiveController C(ReactiveConfig{});
  const ControlStats &S = runTrace(C, Gen);
  EXPECT_EQ(S.Branches, Spec.RefEvents - 1000);
}

// Observers are move-only by design: the engine hands each cell's
// observer around by unique_ptr, and an accidental copy would silently
// fork (and then drop) collected state.
static_assert(!std::is_copy_constructible_v<ProfileObserver>);
static_assert(!std::is_copy_assignable_v<ProfileObserver>);

namespace {

/// An observer that overrides only onEvent: the default onBatch must
/// forward every (event, verdict) pair to it in stream order.
class RecordingObserver final : public TraceObserver {
public:
  void onEvent(const BranchEvent &Event,
               const BranchVerdict &Verdict) override {
    Sites.push_back(Event.Site);
    Indices.push_back(Event.Index);
    Speculated.push_back(Verdict.Speculated);
  }
  std::vector<SiteId> Sites;
  std::vector<uint64_t> Indices;
  std::vector<bool> Speculated;
};

} // namespace

TEST(DriverTest, DefaultOnBatchForwardsPerEventInOrder) {
  const WorkloadSpec Spec = twoSiteSpec();
  ReactiveConfig Cfg;
  Cfg.MonitorPeriod = 1000;
  Cfg.OptLatency = 0;

  RecordingObserver PerEvent;
  {
    ReactiveController C(Cfg);
    runWorkload(C, Spec, Spec.refInput(), &PerEvent, /*BatchEvents=*/1);
  }
  RecordingObserver Batched;
  {
    ReactiveController C(Cfg);
    runWorkload(C, Spec, Spec.refInput(), &Batched, /*BatchEvents=*/257);
  }
  ASSERT_EQ(PerEvent.Sites.size(), Spec.RefEvents);
  EXPECT_EQ(PerEvent.Sites, Batched.Sites);
  EXPECT_EQ(PerEvent.Indices, Batched.Indices);
  EXPECT_EQ(PerEvent.Speculated, Batched.Speculated);
  // Indices arrive in stream order.
  for (size_t I = 0; I < Batched.Indices.size(); ++I)
    EXPECT_EQ(Batched.Indices[I], I);
}

TEST(DriverTest, MetricsCountEventsAndChunks) {
  const WorkloadSpec Spec = twoSiteSpec();
  {
    ReactiveController C(ReactiveConfig{});
    TraceRunMetrics Metrics;
    runWorkload(C, Spec, Spec.refInput(), nullptr, /*BatchEvents=*/4096,
                &Metrics);
    EXPECT_EQ(Metrics.Events, Spec.RefEvents);
    EXPECT_EQ(Metrics.Batches, (Spec.RefEvents + 4095) / 4096);
  }
  {
    ReactiveController C(ReactiveConfig{});
    TraceRunMetrics Metrics;
    runWorkload(C, Spec, Spec.refInput(), nullptr, /*BatchEvents=*/1,
                &Metrics);
    EXPECT_EQ(Metrics.Events, Spec.RefEvents);
    EXPECT_EQ(Metrics.Batches, Spec.RefEvents); // a chunk of one is a chunk
  }
}

TEST(DriverTest, RunTraceFileMatchesGeneratorViaBothTiers) {
  const WorkloadSpec Spec = twoSiteSpec();
  const std::string Path =
      (std::filesystem::temp_directory_path() / "drv_runtracefile.sct2")
          .string();
  std::ostringstream Bytes;
  {
    TraceGenerator Gen(Spec, Spec.refInput());
    ASSERT_GT(writeTraceV2(Bytes, Gen), 0u);
    std::ofstream(Path, std::ios::binary) << Bytes.str();
  }

  ReactiveConfig Cfg;
  Cfg.MonitorPeriod = 1000;
  Cfg.OptLatency = 0;
  ReactiveController Reference(Cfg);
  const ControlStats Want = runWorkload(Reference, Spec, Spec.refInput());

  // The mapped tier (runTraceFile) and a resident copy of the same bytes
  // must both reproduce the generator's stats exactly.
  {
    ReactiveController C(Cfg);
    EXPECT_EQ(runTraceFile(C, Path), Want) << "mapped";
  }
  {
    const std::string Image = Bytes.str();
    TraceCursor Cursor(
        MaterializedTrace::fromBytes({Image.begin(), Image.end()}));
    ReactiveController C(Cfg);
    EXPECT_EQ(runTrace(C, Cursor), Want) << "resident";
  }

  // A path that cannot be mapped is an error that names the path.
  ReactiveController C(Cfg);
  const std::string Missing = Path + ".does-not-exist";
  try {
    runTraceFile(C, Missing);
    ADD_FAILURE() << "runTraceFile accepted a missing file";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find(Missing), std::string::npos)
        << E.what();
  }
  std::remove(Path.c_str());
}
