//===- analysis/DistillVerifier.cpp - Distillation safety checks ----------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/DistillVerifier.h"

#include "analysis/ConstProp.h"
#include "analysis/Dataflow.h"
#include "analysis/SpecInterp.h"
#include "analysis/StoreSummary.h"
#include "ir/Verifier.h"
#include "support/RunConfig.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

using namespace specctrl;
using namespace specctrl::analysis;
using namespace specctrl::ir;

const char *specctrl::analysis::checkName(CheckKind K) {
  switch (K) {
  case CheckKind::CfgWellFormed:
    return "cfg-well-formed";
  case CheckKind::StoreWiden:
    return "store-widen";
  case CheckKind::SiteSpeculation:
    return "site-speculation";
  case CheckKind::LiveOutDrop:
    return "live-out-drop";
  case CheckKind::SpecLeak:
    return "spec-leak";
  }
  return "unknown";
}

namespace {

struct SiteLoc {
  uint32_t Block = 0;
  uint32_t Index = 0;
};

/// Maps every conditional-branch site id to its location in \p F.
std::map<SiteId, SiteLoc> collectSites(const Function &F) {
  std::map<SiteId, SiteLoc> Sites;
  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);
    for (uint32_t I = 0; I < BB.size(); ++I)
      if (BB.Insts[I].isConditionalBranch())
        Sites[BB.Insts[I].Site] = {B, I};
  }
  return Sites;
}

void addDiag(VerifyResult &R, CheckKind Kind, SiteId Site, uint32_t Block,
             uint32_t Index, bool InDistilled, std::string Message) {
  Diagnostic D;
  D.Kind = Kind;
  D.Site = Site;
  D.Block = Block;
  D.Index = Index;
  D.InDistilled = InDistilled;
  D.Message = std::move(Message);
  R.Diags.push_back(std::move(D));
}

/// Checks 1-4 (structural, sites, store widening, live-out drops).  The
/// SpecLeak check and diagnostic stamping live in the public wrapper.
VerifyResult runCoreChecks(const Function &Original,
                           const distill::DistillRequest &Request,
                           const Function &Distilled) {
  VerifyResult R;

  // -- Check 4: structural well-formedness --------------------------------
  // Everything else walks blocks and terminators, so a malformed version
  // short-circuits the semantic checks.
  std::string Err;
  if (!verifyFunction(Original, &Err)) {
    addDiag(R, CheckKind::CfgWellFormed, InvalidSite, 0, 0, false,
            "original fails the structural verifier: " + Err);
    return R;
  }
  if (!verifyFunction(Distilled, &Err)) {
    addDiag(R, CheckKind::CfgWellFormed, InvalidSite, 0, 0, true,
            "distilled fails the structural verifier: " + Err);
    return R;
  }
  if (Distilled.numRegs() > Original.numRegs())
    addDiag(R, CheckKind::CfgWellFormed, InvalidSite, 0, 0, true,
            "distilled widens the register file (" +
                std::to_string(Distilled.numRegs()) + " > " +
                std::to_string(Original.numRegs()) + ")");

  // -- Request hygiene ----------------------------------------------------
  const std::map<SiteId, SiteLoc> OrigSites = collectSites(Original);
  for (const auto &[Site, Dir] : Request.BranchAssertions) {
    (void)Dir;
    if (!OrigSites.count(Site))
      addDiag(R, CheckKind::SiteSpeculation, Site, 0, 0, false,
              "assertion names site " + std::to_string(Site) +
                  " which does not exist in the original");
  }
  for (const auto &[Loc, Value] : Request.ValueConstants) {
    (void)Value;
    if (Loc.Block >= Original.numBlocks() ||
        Loc.Index >= Original.block(Loc.Block).size() ||
        Original.block(Loc.Block).Insts[Loc.Index].Op != Opcode::Load) {
      addDiag(R, CheckKind::SiteSpeculation, InvalidSite, Loc.Block,
              Loc.Index, false,
              "value speculation does not target a load in the original");
    }
  }

  // -- Request-applied original -------------------------------------------
  // The reference point for justification: the original with the request's
  // speculations substituted in, but nothing removed.  Constant facts over
  // this version decide which branches the distiller may legally fold and
  // which blocks it may legally delete.
  Function RA = Original;
  applySpeculationRequest(RA, Request);

  const CFGInfo OrigG(Original);
  const CFGInfo RaG(RA);
  const CFGInfo DistG(Distilled);
  const ConstantFacts OrigCF(OrigG);
  const ConstantFacts RaCF(RaG);
  const ConstantFacts DistCF(DistG);

  // -- Check 2: speculation sites -----------------------------------------
  const std::map<SiteId, SiteLoc> DistSites = collectSites(Distilled);
  for (const auto &[Site, Loc] : OrigSites) {
    if (DistSites.count(Site))
      continue; // branch survived; nothing was approximated here
    if (Request.BranchAssertions.count(Site))
      continue; // removal is covered by the controller's assertion
    const ConstVal Cond = RaCF.branchCondition(Loc.Block);
    if (Cond.isConst())
      continue; // decidable branch; folding it loses nothing
    if (!RaCF.executable(Loc.Block))
      continue; // the whole block is dead under the request
    addDiag(R, CheckKind::SiteSpeculation, Site, Loc.Block, Loc.Index, false,
            "branch site " + std::to_string(Site) +
                " was removed without an assertion or a constant-provable "
                "condition");
  }
  for (const auto &[Site, Loc] : DistSites) {
    if (!OrigSites.count(Site))
      addDiag(R, CheckKind::SiteSpeculation, Site, Loc.Block, Loc.Index, true,
              "distilled introduces branch site " + std::to_string(Site) +
                  " which does not exist in the original");
  }

  // -- Check 1: write-set containment -------------------------------------
  const StoreSummary OrigSum = computeStoreSummary(OrigG, OrigCF);
  const StoreSummary DistSum = computeStoreSummary(DistG, DistCF);
  if (!DistSum.subsumedBy(OrigSum)) {
    if (DistSum.MayWriteUnknown && !OrigSum.MayWriteUnknown) {
      addDiag(R, CheckKind::StoreWiden, InvalidSite,
              DistSum.FirstUnknown.Block, DistSum.FirstUnknown.Index, true,
              "distilled has a statically unresolved store but every "
              "original store is resolved");
    }
    if (!DistSum.MayWriteUnknown || OrigSum.MayWriteUnknown) {
      for (uint64_t Addr : DistSum.ConcreteAddrs)
        if (!OrigSum.mayWrite(Addr))
          addDiag(R, CheckKind::StoreWiden, InvalidSite, 0, 0, true,
                  "distilled may store to address " + std::to_string(Addr) +
                      " which the original never writes");
    }
    for (uint32_t Callee : DistSum.Callees) {
      bool Known = false;
      for (uint32_t C : OrigSum.Callees)
        Known |= C == Callee;
      if (!Known)
        addDiag(R, CheckKind::StoreWiden, InvalidSite, 0, 0, true,
                "distilled calls function " + std::to_string(Callee) +
                    " which the original never calls");
    }
  }

  // -- Check 3: dropped live-out effects ----------------------------------
  // Registers are dead at region exit (functions communicate only through
  // memory), so "live-out values" are exactly the memory effects the
  // request-applied original is proven to execute.  Each of those must
  // still be possible in the distilled version.
  const StoreSummary RaSum = computeStoreSummary(RaG, RaCF);
  for (uint64_t Addr : RaSum.ConcreteAddrs)
    if (!DistSum.mayWrite(Addr))
      addDiag(R, CheckKind::LiveOutDrop, InvalidSite, 0, 0, false,
              "store to address " + std::to_string(Addr) +
                  " on the speculated path is missing from the distilled "
                  "version");
  for (uint32_t Callee : RaSum.Callees) {
    bool Kept = false;
    for (uint32_t C : DistSum.Callees)
      Kept |= C == Callee;
    if (!Kept)
      addDiag(R, CheckKind::LiveOutDrop, InvalidSite, 0, 0, false,
              "call to function " + std::to_string(Callee) +
                  " on the speculated path is missing from the distilled "
                  "version");
  }

  return R;
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (const char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

VerifyResult
specctrl::analysis::verifyDistillation(const Function &Original,
                                       const distill::DistillRequest &Request,
                                       const Function &Distilled,
                                       const VerifyOptions &Options) {
  VerifyResult R = runCoreChecks(Original, Request, Distilled);
  if (Options.SpecLeak) {
    // checkSpecLeak re-verifies structure itself and returns nothing on a
    // malformed pair, so running it here unconditionally is safe.
    for (SpecLeakFinding &F : checkSpecLeak(Original, Request, Distilled)) {
      Diagnostic D;
      D.Kind = CheckKind::SpecLeak;
      D.Site = F.Site;
      D.Block = F.Block;
      D.Index = F.Index;
      D.InDistilled = true;
      D.Message = std::move(F.Message);
      R.Diags.push_back(std::move(D));
    }
  }
  for (Diagnostic &D : R.Diags)
    D.Function = Original.name();
  return R;
}

std::string specctrl::analysis::formatDiagnostic(const Diagnostic &D) {
  std::ostringstream OS;
  OS << D.Function << ": [" << checkName(D.Kind) << "]";
  if (D.Site != InvalidSite)
    OS << " site " << D.Site;
  OS << " @ " << (D.InDistilled ? "distilled" : "original") << ":" << D.Block
     << "/" << D.Index << ": " << D.Message;
  return OS.str();
}

std::string specctrl::analysis::formatDiagnostics(const VerifyResult &R) {
  std::string Out;
  for (const Diagnostic &D : R.Diags) {
    Out += formatDiagnostic(D);
    Out += '\n';
  }
  return Out;
}

std::string specctrl::analysis::formatDiagnosticJson(const Diagnostic &D) {
  std::ostringstream OS;
  OS << "{\"check\":\"" << checkName(D.Kind) << "\"";
  OS << ",\"function\":\"" << jsonEscape(D.Function) << "\"";
  if (D.Site != InvalidSite)
    OS << ",\"site\":" << D.Site;
  else
    OS << ",\"site\":null";
  OS << ",\"version\":\"" << (D.InDistilled ? "distilled" : "original")
     << "\"";
  OS << ",\"block\":" << D.Block << ",\"index\":" << D.Index;
  OS << ",\"message\":\"" << jsonEscape(D.Message) << "\"}";
  return OS.str();
}

bool specctrl::analysis::verifyDistillEnabled() {
  return RunConfig::global().VerifyDistill;
}
