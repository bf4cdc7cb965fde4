//===- bench/ext_value_speculation.cpp - Sec. 2's generalization claim ----===//
//
// The paper states its branch results are "qualitatively consistent with
// other program behaviors (e.g., loads that produce invariant values)".
// This extension experiment substantiates that: the identical Fig. 4(b)
// FSM controls load-value speculation over value streams derived from the
// same workload models, and the same contrasts appear --
//
//   * reactive control keeps value-misspeculation ~2 orders of magnitude
//     below open-loop control on constant-changing loads;
//   * the one-shot (initial behavior) policy compiles in constants that
//     later change.
//
// Value streams: each branch site becomes a load site whose value is the
// site's current phase constant when the branch model says "biased
// direction", and noise otherwise; behavior changes change the constant.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ValueInvariance.h"
#include "support/Format.h"
#include "support/Table.h"

#include <iostream>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::core;
using namespace specctrl::workload;

namespace {

/// Derives a load value from a branch event: phase constant when the
/// model says "invariant", fresh noise otherwise.  The constant advances
/// whenever the site crosses a behavior-change boundary, so flip/periodic
/// sites model "x.d was 32, is now 48".
uint64_t deriveValue(const WorkloadSpec &Spec, const BranchEvent &E,
                     std::vector<uint64_t> &ExecCount, Rng &Noise) {
  const BehaviorSpec &B = Spec.Sites[E.Site].Behavior;
  const uint64_t Exec = ExecCount[E.Site]++;
  uint64_t Epoch = 0;
  switch (B.Kind) {
  case BehaviorKind::FlipAt:
  case BehaviorKind::Soften:
  case BehaviorKind::InductionFlip:
    Epoch = B.ChangeAt && Exec >= B.ChangeAt ? 1 : 0;
    break;
  case BehaviorKind::Periodic:
    Epoch = B.Period ? Exec / B.Period : 0;
    break;
  default:
    break;
  }
  const uint64_t Constant = 32 + E.Site * 131 + Epoch * 17;
  // "Biased direction" (either way) means the invariant value appears.
  const bool Invariant = E.Taken == (B.BiasA >= 0.5);
  return Invariant ? Constant : Constant + 1 + Noise.nextBelow(1000);
}

struct RunResult {
  double Correct = 0;
  double Incorrect = 0;
  uint64_t Evictions = 0;
};

RunResult runPolicy(const WorkloadSpec &Spec, const ReactiveConfig &Config) {
  ValueInvarianceController C(Config);
  TraceGenerator Gen(Spec, Spec.refInput());
  std::vector<uint64_t> ExecCount(Spec.numSites(), 0);
  Rng Noise(Spec.Seed ^ 0x56414Cull);
  std::vector<BranchEvent> Chunk(DefaultBatchEvents);
  while (const size_t N = Gen.nextBatch(Chunk))
    for (size_t I = 0; I < N; ++I)
      C.onLoad(Chunk[I].Site, deriveValue(Spec, Chunk[I], ExecCount, Noise),
               Chunk[I].InstRet);
  return {C.stats().correctRate(), C.stats().incorrectRate(),
          C.stats().Evictions};
}

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Opts("ext_value_speculation: the Fig. 4(b) FSM controlling "
                 "load-value speculation (Sec. 2's generalization claim)");
  addCsvOption(Opts);
  addSuiteOptions(Opts);
  addBaselineOptions(Opts);
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner("Extension: value speculation",
              "reactive vs open-loop vs one-shot control of load-value "
              "invariance (rates are fractions of all dynamic loads)");

  const ReactiveConfig Base = scaledBaseline(Opts);
  ReactiveConfig Open = Base;
  Open.EnableEviction = false;
  ReactiveConfig OneShot = ReactiveConfig::oneShot(1000);
  OneShot.OptLatency = Base.OptLatency;

  Table Out({"bench", "reactive corr/incorr", "open-loop corr/incorr",
             "one-shot-1k corr/incorr", "evictions"});
  double Sum[6] = {0, 0, 0, 0, 0, 0};
  unsigned N = 0;
  for (const WorkloadSpec &Spec : selectedSuite(Opt)) {
    const RunResult Reactive = runPolicy(Spec, Base);
    const RunResult OpenLoop = runPolicy(Spec, Open);
    const RunResult Shot = runPolicy(Spec, OneShot);
    Out.row()
        .cell(Spec.Name)
        .cell(formatPercent(Reactive.Correct) + " / " +
              formatPercent(Reactive.Incorrect, 4))
        .cell(formatPercent(OpenLoop.Correct) + " / " +
              formatPercent(OpenLoop.Incorrect, 4))
        .cell(formatPercent(Shot.Correct) + " / " +
              formatPercent(Shot.Incorrect, 4))
        .cell(Reactive.Evictions);
    Sum[0] += Reactive.Correct;
    Sum[1] += Reactive.Incorrect;
    Sum[2] += OpenLoop.Correct;
    Sum[3] += OpenLoop.Incorrect;
    Sum[4] += Shot.Correct;
    Sum[5] += Shot.Incorrect;
    ++N;
  }
  if (N > 1)
    Out.row()
        .cell("ave")
        .cell(formatPercent(Sum[0] / N) + " / " +
              formatPercent(Sum[1] / N, 4))
        .cell(formatPercent(Sum[2] / N) + " / " +
              formatPercent(Sum[3] / N, 4))
        .cell(formatPercent(Sum[4] / N) + " / " +
              formatPercent(Sum[5] / N, 4))
        .cell("-");

  Out.print(std::cout, Opt.Csv);
  return 0;
}
