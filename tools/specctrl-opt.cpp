//===- tools/specctrl-opt.cpp - SimIR pass driver -------------------------===//
//
// An `opt`-style driver for the distiller: reads textual SimIR (a module
// or a single function) from a file or stdin, applies the requested
// speculative/cleanup passes, and prints the result.
//
//   specctrl-opt [options] [input.sir]
//     --assert=SITE:DIR[,SITE:DIR...]   assert branch sites (DIR = t|n)
//     --value=BB:IDX:CONST[,...]        value-speculate loads
//     --distill                         full pipeline (default if any
//                                       --assert/--value given)
//     --straighten --fold --dce         individual passes, in given order
//     --function=N                      operate on function N only
//     --verify                          verify and exit
//
// Exit codes: 0 success, 1 unreadable or invalid input, 2 usage error
// (unknown option, a second input file, malformed --assert/--value list,
// --function out of range), 3 internal error (the output does not
// verify).
//
//===----------------------------------------------------------------------===//

#include "distill/Distiller.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Options.h"

#include <fstream>
#include <iostream>
#include <sstream>

using namespace specctrl;
using namespace specctrl::ir;

int main(int Argc, char **Argv) {
  OptionSet Opts("specctrl-opt: apply speculative/cleanup passes to "
                 "textual SimIR",
                 /*MaxPositional=*/1);
  Opts.addString("assert", "", "branch assertions SITE:t|n[,...]");
  Opts.addString("value", "", "value speculations BB:IDX:CONST[,...]");
  Opts.addFlag("distill", "run the full distillation pipeline");
  Opts.addFlag("straighten", "run the straightening pass");
  Opts.addFlag("fold", "run constant folding");
  Opts.addFlag("dce", "run dead code elimination");
  Opts.addFlag("verify", "verify the input and exit");
  Opts.addInt("function", -1, "function id to transform (-1 = all)");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;

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

  // Read input (positional file or stdin).
  std::string Text;
  if (!Opts.positional().empty()) {
    std::ifstream In(Opts.positional().front());
    if (!In) {
      std::cerr << "error: cannot open '" << Opts.positional().front()
                << "'\n";
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  } else {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Text = SS.str();
  }

  // Parse: try module first, fall back to a bare function.
  ParseError Error;
  std::optional<Module> M = parseModule(Text, &Error);
  if (!M) {
    std::optional<Function> F = parseFunction(Text, &Error);
    if (!F) {
      std::cerr << "error: line " << Error.Line << ": " << Error.Message
                << '\n';
      return 1;
    }
    M.emplace();
    // Slot dangles if createFunction runs again (Module::Functions may
    // reallocate; see Module::generation()): fill it immediately and
    // never hold it across another module mutation.
    Function &Slot = M->createFunction(F->name(), F->numRegs());
    Slot.blocks() = std::move(F->blocks());
  }

  const int64_t Only = Opts.getInt("function");
  if (Only < -1 || Only >= static_cast<int64_t>(M->numFunctions())) {
    std::cerr << "error: --function " << Only << " names no function (the "
              << "input has " << M->numFunctions() << "; -1 means all)\n";
    return 2;
  }

  std::string VerifyError;
  if (!verifyModule(*M, &VerifyError)) {
    std::cerr << "error: input does not verify: " << VerifyError << '\n';
    return 1;
  }
  if (Opts.getFlag("verify")) {
    std::cout << "ok\n";
    return 0;
  }

  const bool FullPipeline = Opts.getFlag("distill") ||
                            !Request.BranchAssertions.empty() ||
                            !Request.ValueConstants.empty();

  for (uint32_t FId = 0; FId < M->numFunctions(); ++FId) {
    if (Only >= 0 && FId != static_cast<uint32_t>(Only))
      continue;
    Function &F = M->function(FId);
    if (FullPipeline) {
      distill::DistillResult R = distill::distillFunction(F, Request);
      F.blocks() = std::move(R.Distilled.blocks());
      std::cerr << "; @" << F.name() << ": " << R.OriginalSize << " -> "
                << R.DistilledSize << " instructions, "
                << R.AssertedSites.size() << " branches asserted, "
                << R.SpeculatedLoads << " loads speculated\n";
      continue;
    }
    if (Opts.getFlag("straighten"))
      distill::straightenFunction(F);
    if (Opts.getFlag("fold"))
      distill::foldConstants(F);
    if (Opts.getFlag("dce"))
      distill::eliminateDeadCode(F);
  }

  if (!verifyModule(*M, &VerifyError)) {
    std::cerr << "internal error: output does not verify: " << VerifyError
              << '\n';
    return 3;
  }
  printModule(*M, std::cout);
  return 0;
}
