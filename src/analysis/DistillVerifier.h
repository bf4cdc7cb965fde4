//===- analysis/DistillVerifier.h - Distillation safety checks --*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static speculation-safety verification for (original, distilled)
/// function pairs.  The distiller removes checking code on purpose -- a
/// distilled version is *allowed* to be wrong on speculated paths -- but
/// only in ways the MSSP task-level verifier can catch and recover from.
/// That bounds what a correct distillation may do, and the five checks
/// here enforce those bounds without running anything:
///
///   CfgWellFormed   : both versions pass the structural IR verifier.
///   StoreWiden      : the distilled write/side-effect summary is a subset
///                     of the original's -- distilled code must never
///                     touch state the original could not have touched.
///   SiteSpeculation : every branch site the distillation removed is
///                     justified by an assertion in the request (the
///                     controller's recovery metadata) or decidable by
///                     constant propagation over the request-applied
///                     original; value speculations must target loads and
///                     assertions must name real sites.
///   LiveOutDrop     : memory effects live on the speculated path -- the
///                     stores and calls constant propagation proves the
///                     request-applied original executes -- must survive
///                     into the distilled version.  (Registers are never
///                     live out of a region function; functions
///                     communicate only through memory.)
///   SpecLeak        : the distilled version's loads -- committed and
///                     within every branch site's bounded misspeculation
///                     window -- must only observe addresses the original
///                     could already observe, committed or speculatively.
///                     The original's speculative reads are the paper's
///                     accepted risk; the distiller must not widen them
///                     (analysis/SpecInterp.h has the two-trace model).
///
/// Soundness note: the justification analysis is SCCP-style conditional
/// constant propagation (analysis/ConstProp.h), which dominates the
/// distiller's iterated block-local fold + straighten pipeline.  Every
/// branch the distiller folds is decidable here and every block it
/// deletes is non-executable here, so a correct distillation always
/// verifies clean; the checks fire only on genuine safety violations.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_ANALYSIS_DISTILLVERIFIER_H
#define SPECCTRL_ANALYSIS_DISTILLVERIFIER_H

#include "distill/Distiller.h"
#include "ir/Function.h"
#include "ir/Instruction.h"

#include <string>
#include <vector>

namespace specctrl {
namespace analysis {

/// Which safety check produced a diagnostic.
enum class CheckKind : uint8_t {
  CfgWellFormed,
  StoreWiden,
  SiteSpeculation,
  LiveOutDrop,
  SpecLeak,
};

/// Number of distinct checks (for per-check summary tables).
inline constexpr unsigned NumCheckKinds = 5;

/// Stable lint-style name for a check ("cfg-well-formed", ...).
const char *checkName(CheckKind K);

/// One finding, anchored to a branch site and/or instruction location.
struct Diagnostic {
  CheckKind Kind = CheckKind::CfgWellFormed;
  /// Branch site involved, or ir::InvalidSite.
  ir::SiteId Site = ir::InvalidSite;
  /// Location of the offending / missing construct.  InDistilled says
  /// which version's coordinates Block/Index use.
  uint32_t Block = 0;
  uint32_t Index = 0;
  bool InDistilled = false;
  /// Name of the function pair being verified (the original's name);
  /// filled in by verifyDistillation so formatters need no caller
  /// context.
  std::string Function;
  std::string Message;
};

/// Outcome of verifying one (original, distilled) pair.
struct VerifyResult {
  std::vector<Diagnostic> Diags;

  bool ok() const { return Diags.empty(); }
};

/// Per-call switches for verifyDistillation.
struct VerifyOptions {
  /// Run the SpecLeak two-trace check (the other four always run).  The
  /// deploy-time hooks always run it; specctrl-lint --no-spec-leak turns
  /// it off.
  bool SpecLeak = true;
};

/// Runs all five checks on \p Distilled against \p Original under
/// \p Request.  Never mutates its inputs; safe on arbitrary (including
/// corrupted) distilled functions -- structural failures short-circuit
/// the semantic checks.
VerifyResult verifyDistillation(const ir::Function &Original,
                                const distill::DistillRequest &Request,
                                const ir::Function &Distilled,
                                const VerifyOptions &Options = {});

/// Renders one diagnostic as a single lint line using D.Function:
///   <fn>: [<check>] site <s> @ <ver>:<block>/<index>: <message>
std::string formatDiagnostic(const Diagnostic &D);

/// Renders every diagnostic, one per line.
std::string formatDiagnostics(const VerifyResult &R);

/// Renders one diagnostic as a single-line JSON object with the stable
/// keys {"check","function","site","version","block","index","message"}
/// (site is null for ir::InvalidSite), for machine consumption
/// (specctrl-lint --json).
std::string formatDiagnosticJson(const Diagnostic &D);

/// True when RunConfig enables the deploy-time verification hooks
/// (SPECCTRL_VERIFY=1 in the environment).
bool verifyDistillEnabled();

} // namespace analysis
} // namespace specctrl

#endif // SPECCTRL_ANALYSIS_DISTILLVERIFIER_H
