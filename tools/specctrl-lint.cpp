//===- tools/specctrl-lint.cpp - Static speculation-safety linter ---------===//
//
// Lints textual SimIR and distillation pairs with the analysis library's
// speculation-safety checks.  Exits nonzero when any finding is reported.
//
//   specctrl-lint [options] [input.sir [distilled.sir]]
//     (no mode flag)                    verify the input structurally and
//                                       summarize each function's analyses
//     --analyze                         additionally dump dominators,
//                                       liveness, constants, and store
//                                       summaries per function
//     --assert=SITE:DIR[,...]          \  distillation request for pair
//     --value=BB:IDX:CONST[,...]       /  checking
//     --distill-check                   distill the input under the request
//                                       and verify the (original, distilled)
//                                       pair; with a second positional file
//                                       that file is checked as the
//                                       distilled version instead
//     --function=N                      restrict to function id N
//     --suite                           synthesize the 12-benchmark seed
//                                       suite, distill every region function
//                                       under a full assertion + value-
//                                       speculation request, and verify all
//                                       pairs (the CI acceptance gate); all
//                                       five checks run, SpecLeak included;
//                                       takes no input file, --function,
//                                       --assert, --value, --distill-check
//                                       or --analyze
//     --spec-leak                       report only spec-leak findings
//     --no-spec-leak                    skip the spec-leak check entirely
//     --json                            one JSON object per finding (the
//                                       formatDiagnosticJson shape), no
//                                       other stdout output
//     --quiet                           findings only, no summaries
//
// Exit codes are stable: 0 clean, 1 findings, 2 usage or parse error.
//
//===----------------------------------------------------------------------===//

#include "analysis/ConstProp.h"
#include "analysis/Dataflow.h"
#include "analysis/DistillVerifier.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/ReachingDefs.h"
#include "analysis/StoreSummary.h"
#include "distill/Distiller.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/Options.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"

#include <array>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace specctrl;
using namespace specctrl::ir;

namespace {

/// Routes findings to stdout (lint lines or JSON) and keeps the per-check
/// tallies for the end-of-run summary.
struct Reporter {
  bool Json = false;
  bool Quiet = false;
  /// Report only SpecLeak findings (--spec-leak); the exit code then
  /// reflects spec-leak cleanliness alone.
  bool OnlySpecLeak = false;
  size_t Total = 0;
  std::array<size_t, analysis::NumCheckKinds> PerCheck{};

  /// Emits the (focus-filtered) findings of one verification; returns how
  /// many were reported.
  size_t report(const analysis::VerifyResult &VR,
                const std::string &Qualified = "") {
    size_t Shown = 0;
    for (const analysis::Diagnostic &D : VR.Diags) {
      if (OnlySpecLeak && D.Kind != analysis::CheckKind::SpecLeak)
        continue;
      ++PerCheck[static_cast<size_t>(D.Kind)];
      ++Total;
      ++Shown;
      analysis::Diagnostic Copy = D;
      if (!Qualified.empty())
        Copy.Function = Qualified;
      std::cout << (Json ? analysis::formatDiagnosticJson(Copy)
                         : analysis::formatDiagnostic(Copy))
                << '\n';
    }
    return Shown;
  }

  /// One line with the per-check breakdown (suppressed by --quiet/--json).
  void summary(size_t Pairs) const {
    if (Quiet || Json)
      return;
    std::cout << "summary: " << Pairs << " pairs, " << Total << " findings (";
    for (unsigned K = 0; K < analysis::NumCheckKinds; ++K)
      std::cout << (K ? " " : "")
                << analysis::checkName(static_cast<analysis::CheckKind>(K))
                << "=" << PerCheck[K];
    std::cout << ")\n";
  }
};

std::optional<Module> readModule(const std::string &Path) {
  std::string Text;
  if (!Path.empty()) {
    std::ifstream In(Path);
    if (!In) {
      std::cerr << "error: cannot open '" << Path << "'\n";
      return std::nullopt;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  } else {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Text = SS.str();
  }

  ParseError Error;
  std::optional<Module> M = parseModule(Text, &Error);
  if (!M) {
    std::optional<Function> F = parseFunction(Text, &Error);
    if (!F) {
      std::cerr << "error: " << (Path.empty() ? "<stdin>" : Path) << ":"
                << Error.Line << ": " << Error.Message << '\n';
      return std::nullopt;
    }
    M.emplace();
    // Slot dangles if createFunction runs again (Module::Functions may
    // reallocate; see Module::generation()): fill it immediately and
    // never hold it across another module mutation.
    Function &Slot = M->createFunction(F->name(), F->numRegs());
    Slot.blocks() = std::move(F->blocks());
  }
  return M;
}

void dumpAnalyses(const Function &F, std::ostream &OS) {
  const analysis::CFGInfo G(F);
  const analysis::DominatorTree DT(G);
  const analysis::LivenessResult LV = analysis::computeLiveness(G);
  const analysis::ConstantFacts CF(G);
  const analysis::StoreSummary SS = analysis::computeStoreSummary(G, CF);

  OS << "@" << F.name() << ": " << F.numBlocks() << " blocks, "
     << F.staticSize() << " instructions\n";
  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    OS << "  bb" << B << ":";
    if (!G.reachable(B)) {
      OS << " unreachable\n";
      continue;
    }
    OS << " idom=";
    if (DT.idom(B) == analysis::InvalidBlock)
      OS << "-";
    else
      OS << "bb" << DT.idom(B);
    OS << " live-in={";
    bool First = true;
    for (unsigned R = 0; R < F.numRegs(); ++R)
      if ((LV.LiveIn[B] >> R) & 1) {
        OS << (First ? "" : ",") << "r" << R;
        First = false;
      }
    OS << "}";
    if (!CF.executable(B))
      OS << " const-unreachable";
    else if (const analysis::ConstVal C = CF.branchCondition(B); C.isConst())
      OS << " branch-decided=" << (C.Value != 0 ? "taken" : "not-taken");
    OS << '\n';
  }
  OS << "  writes: ";
  if (SS.MayWriteUnknown)
    OS << "unknown (store @ bb" << SS.FirstUnknown.Block << "/"
       << SS.FirstUnknown.Index << ")";
  else {
    OS << "{";
    for (size_t I = 0; I < SS.ConcreteAddrs.size(); ++I)
      OS << (I ? "," : "") << SS.ConcreteAddrs[I];
    OS << "}";
  }
  OS << " calls: {";
  for (size_t I = 0; I < SS.Callees.size(); ++I)
    OS << (I ? "," : "") << "fn" << SS.Callees[I];
  OS << "}\n";
}

/// Builds the broadest realistic request for a synthesized region
/// function: assert every non-control site toward its primary bias and
/// value-speculate every constant-addressed load with the word's actual
/// initial contents.
distill::DistillRequest
buildSuiteRequest(const workload::SynthProgram &P, uint32_t FuncId) {
  distill::DistillRequest Request;
  for (const workload::SynthSiteInfo &S : P.Sites) {
    if (S.FunctionId != FuncId || S.IsControlSite)
      continue;
    Request.BranchAssertions[S.Site] = S.Behavior.BiasA >= 0.5;
  }
  const Function &F = P.Mod.function(FuncId);
  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);
    for (uint32_t I = 0; I < BB.size(); ++I) {
      const Instruction &Inst = BB.Insts[I];
      // Synthesized programs address all memory off r0 (always zero), so
      // the load address is exactly the immediate.
      if (Inst.Op != Opcode::Load || Inst.SrcA != 0)
        continue;
      const uint64_t Addr = static_cast<uint64_t>(Inst.Imm);
      if (Addr >= P.InitialMemory.size())
        continue;
      Request.ValueConstants[{B, I}] =
          static_cast<int64_t>(P.InitialMemory[Addr]);
    }
  }
  return Request;
}

/// Distills and pair-verifies every region function of every seed
/// benchmark.  Returns the number of reported findings.
size_t runSuite(Reporter &R, const analysis::VerifyOptions &VOpts) {
  size_t Pairs = 0;
  for (const workload::BenchmarkProfile &Profile :
       workload::suiteProfiles()) {
    const workload::SynthSpec Spec =
        workload::makeSynthSpecFor(Profile, /*Iterations=*/1000);
    const workload::SynthProgram P = workload::synthesize(Spec);
    for (uint32_t FuncId : P.RegionFunctions) {
      const Function &Original = P.Mod.function(FuncId);
      const distill::DistillRequest Request = buildSuiteRequest(P, FuncId);
      const distill::DistillResult DR =
          distill::distillFunction(Original, Request);
      const analysis::VerifyResult VR =
          analysis::verifyDistillation(Original, Request, DR.Distilled,
                                       VOpts);
      ++Pairs;
      const size_t Shown =
          R.report(VR, Profile.Name + "/" + Original.name());
      if (Shown == 0 && !R.Quiet && !R.Json) {
        std::cout << Profile.Name << "/" << Original.name() << ": clean ("
                  << Request.BranchAssertions.size() << " assertions, "
                  << Request.ValueConstants.size() << " value specs, "
                  << DR.OriginalSize << " -> " << DR.DistilledSize
                  << " instructions)\n";
      }
    }
  }
  R.summary(Pairs);
  return R.Total;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Opts("specctrl-lint: static speculation-safety checks for "
                 "SimIR and distillation pairs",
                 /*MaxPositional=*/2);
  Opts.addFlag("analyze", "dump per-function dataflow analyses");
  Opts.addFlag("distill-check", "verify a distillation pair");
  Opts.addFlag("suite", "verify distillations across the seed suite");
  Opts.addFlag("spec-leak", "report only spec-leak findings");
  Opts.addFlag("no-spec-leak", "skip the spec-leak check");
  Opts.addFlag("json", "one JSON object per finding, nothing else");
  Opts.addFlag("quiet", "findings only");
  Opts.addString("assert", "", "branch assertions SITE:t|n[,...]");
  Opts.addString("value", "", "value speculations BB:IDX:CONST[,...]");
  Opts.addInt("function", -1, "function id to check (-1 = all)");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;

  if (Opts.getFlag("spec-leak") && Opts.getFlag("no-spec-leak")) {
    std::cerr << "error: --spec-leak and --no-spec-leak conflict\n";
    return 2;
  }

  Reporter R;
  R.Json = Opts.getFlag("json");
  R.Quiet = Opts.getFlag("quiet");
  R.OnlySpecLeak = Opts.getFlag("spec-leak");
  analysis::VerifyOptions VOpts;
  VOpts.SpecLeak = !Opts.getFlag("no-spec-leak");

  if (Opts.getFlag("suite")) {
    // The suite distills its own pairs, so an option that narrows a
    // single-module check would be silently dropped: reject it instead.
    const char *Unread = !Opts.positional().empty() ? "an input file"
                         : Opts.getInt("function") != -1 ? "--function"
                         : !Opts.getString("assert").empty() ? "--assert"
                         : !Opts.getString("value").empty()  ? "--value"
                         : Opts.getFlag("distill-check") ? "--distill-check"
                         : Opts.getFlag("analyze")       ? "--analyze"
                                                         : nullptr;
    if (Unread) {
      std::cerr << "error: --suite checks the seed suite's own pairs and "
                   "does not take "
                << Unread << "\n";
      return 2;
    }
    return runSuite(R, VOpts) == 0 ? 0 : 1;
  }

  distill::DistillRequest Request;
  if (!distill::parseBranchAssertions(Opts.getString("assert"),
                                      Request.BranchAssertions)) {
    std::cerr << "error: malformed --assert list\n";
    return 2;
  }
  if (!distill::parseValueConstants(Opts.getString("value"),
                                    Request.ValueConstants)) {
    std::cerr << "error: malformed --value list\n";
    return 2;
  }

  const std::vector<std::string> &Files = Opts.positional();
  std::optional<Module> M = readModule(Files.empty() ? "" : Files[0]);
  if (!M)
    return 2;

  size_t Pairs = 0;
  const int64_t Only = Opts.getInt("function");
  if (Only < -1 || Only >= static_cast<int64_t>(M->numFunctions())) {
    std::cerr << "error: --function " << Only << " names no function (the "
              << "input has " << M->numFunctions() << "; -1 means all)\n";
    return 2;
  }

  // Structural lint always runs.
  std::string Err;
  if (!verifyModule(*M, &Err)) {
    if (R.Json) {
      analysis::Diagnostic D;
      D.Kind = analysis::CheckKind::CfgWellFormed;
      D.Function = "input";
      D.Message = Err;
      std::cout << analysis::formatDiagnosticJson(D) << '\n';
    } else {
      std::cout << "input: [cfg-well-formed] " << Err << '\n';
    }
    return 1;
  }

  // Pair mode: second file supplies the distilled versions, otherwise the
  // distiller produces them from the request.
  std::optional<Module> D;
  if (Files.size() > 1) {
    D = readModule(Files[1]);
    if (!D)
      return 2;
    if (D->numFunctions() != M->numFunctions()) {
      std::cerr << "error: function count mismatch between '" << Files[0]
                << "' and '" << Files[1] << "'\n";
      return 2;
    }
  }

  const bool PairMode = Opts.getFlag("distill-check") || D.has_value() ||
                        !Request.BranchAssertions.empty() ||
                        !Request.ValueConstants.empty();

  for (uint32_t FId = 0; FId < M->numFunctions(); ++FId) {
    if (Only >= 0 && FId != static_cast<uint32_t>(Only))
      continue;
    const Function &F = M->function(FId);
    if (Opts.getFlag("analyze") && !R.Json)
      dumpAnalyses(F, std::cout);
    if (!PairMode)
      continue;

    Function Distilled =
        D ? D->function(FId)
          : distill::distillFunction(F, Request).Distilled;
    const analysis::VerifyResult VR =
        analysis::verifyDistillation(F, Request, Distilled, VOpts);
    ++Pairs;
    if (R.report(VR) == 0 && !R.Quiet && !R.Json)
      std::cout << F.name() << ": clean\n";
  }

  if (PairMode)
    R.summary(Pairs);
  else if (!R.Quiet && !R.Json)
    std::cout << "ok\n";
  return R.Total == 0 ? 0 : 1;
}
