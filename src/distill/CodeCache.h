//===- distill/CodeCache.h - Distilled-code storage -------------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Append-only storage for distilled code versions.  The execution engine's
/// code map holds plain Function pointers into this store, so a version
/// must outlive every dispatch of it; nothing is ever looked up or freed
/// before the store itself goes.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_DISTILL_CODECACHE_H
#define SPECCTRL_DISTILL_CODECACHE_H

#include "analysis/DistillVerifier.h"
#include "distill/Distiller.h"
#include "ir/Verifier.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <utility>

namespace specctrl {
namespace distill {

/// Owns distilled versions; pointers remain valid for the cache lifetime.
class CodeCache {
public:
  /// Installs a new version of function \p FuncId and returns a stable
  /// pointer to it.
  const ir::Function *install(uint32_t FuncId, ir::Function Version) {
    // Deploy-time gate (SPECCTRL_VERIFY): nothing structurally
    // broken may enter the cache, whatever produced it.
    if (analysis::verifyDistillEnabled()) {
      std::string Err;
      if (!ir::verifyFunction(Version, &Err)) {
        std::fprintf(stderr,
                     "specctrl: refusing to install malformed code version "
                     "for function %u: %s\n",
                     FuncId, Err.c_str());
        std::abort();
      }
    }
    Versions.push_back(std::move(Version));
    return &Versions.back();
  }

  /// Number of versions installed, across all functions.
  size_t size() const { return Versions.size(); }

private:
  /// A deque keeps element addresses stable as versions are appended.
  std::deque<ir::Function> Versions;
};

} // namespace distill
} // namespace specctrl

#endif // SPECCTRL_DISTILL_CODECACHE_H
