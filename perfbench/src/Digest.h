//===- perfbench/src/Digest.h - Output digests and pins ---------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SHA-256 digests of the outputs the benchmark checks (per-cell
/// ControlStats and MsspResult), and the table of digests pinned for the
/// default seed (pins.tsv: workload, scale, cell, first 16 hex digits).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DIGEST_H
#define PERFBENCH_DIGEST_H

#include "core/ControlStats.h"
#include "mssp/MsspSimulator.h"

#include <map>
#include <optional>
#include <string>

namespace perfbench {

/// First 16 hex digits of the SHA-256 over every field of \p S.
std::string digestOf(const specctrl::core::ControlStats &S);
/// Same, over every MsspResult field (both controllers' stats included).
std::string digestOf(const specctrl::mssp::MsspResult &R);
/// Same, over one cycle count (the superscalar baseline's output).
std::string digestOfCycles(uint64_t Cycles);

/// Digests pinned for the default seed.
class PinTable {
public:
  /// Loads \p Path.  With \p Perturb, the pin of the first cell looked
  /// up is altered (the self-test that a wrong output counts as failed).
  /// Returns false when the file cannot be read.
  bool load(const std::string &Path, bool Perturb);

  /// The pin for (workload, scale, cell), or nothing when none exists.
  std::optional<std::string> find(const std::string &Workload,
                                  const std::string &Scale,
                                  const std::string &Cell);

private:
  std::map<std::string, std::string> Pins;
  bool Perturb = false;
  std::string PerturbedKey;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_H
