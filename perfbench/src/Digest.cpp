//===- perfbench/src/Digest.cpp - Output digests and pins -----------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Digest.h"

#include "support/Sha256.h"

#include <fstream>
#include <vector>

using namespace perfbench;
using namespace specctrl;

namespace {

void put(Sha256 &H, uint64_t V) { H.update(&V, sizeof(V)); }

template <class T> void putVec(Sha256 &H, const std::vector<T> &V) {
  put(H, V.size());
  for (const T &X : V)
    put(H, static_cast<uint64_t>(X));
}

void putStats(Sha256 &H, const core::ControlStats &S) {
  for (uint64_t V : {S.Branches, S.LastInstRet, S.CorrectSpecs,
                     S.IncorrectSpecs, S.DeployRequests, S.RevokeRequests,
                     S.SuppressedRequests, S.Evictions, S.Revisits,
                     S.EventsConsumed})
    put(H, V);
  putVec(H, S.Touched);
  putVec(H, S.EverBiased);
  putVec(H, S.SiteEvictions);
  put(H, S.Transitions.size());
  for (const core::TransitionRecord &T : S.Transitions) {
    put(H, T.Site);
    put(H, T.Observed);
    put(H, T.AgainstOriginal);
  }
}

std::string finish(Sha256 &H) {
  static const char *Hex = "0123456789abcdef";
  const std::array<uint8_t, 32> D = H.digest();
  std::string Out;
  for (size_t I = 0; I < 8; ++I) {
    Out += Hex[D[I] >> 4];
    Out += Hex[D[I] & 15];
  }
  return Out;
}

} // namespace

std::string perfbench::digestOf(const core::ControlStats &S) {
  Sha256 H;
  putStats(H, S);
  return finish(H);
}

std::string perfbench::digestOf(const mssp::MsspResult &R) {
  Sha256 H;
  for (uint64_t V : {R.TotalCycles, R.Tasks, R.TaskSquashes,
                     R.MasterInstructions, R.CheckerInstructions,
                     R.OptRequests, R.Regenerations, R.DistillCacheHits,
                     R.DistillCacheMisses, R.MasterBranchMispredicts})
    put(H, V);
  putStats(H, R.Controller);
  putStats(H, R.ValueController);
  return finish(H);
}

std::string perfbench::digestOfCycles(uint64_t Cycles) {
  Sha256 H;
  put(H, Cycles);
  return finish(H);
}

bool PinTable::load(const std::string &Path, bool Perturb) {
  std::ifstream In(Path);
  if (!In)
    return false;
  this->Perturb = Perturb;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    const size_t Last = Line.rfind('\t');
    if (Last != std::string::npos)
      Pins[Line.substr(0, Last)] = Line.substr(Last + 1);
  }
  return true;
}

std::optional<std::string> PinTable::find(const std::string &Workload,
                                          const std::string &Scale,
                                          const std::string &Cell) {
  const std::string Key = Workload + "\t" + Scale + "\t" + Cell;
  auto It = Pins.find(Key);
  if (It == Pins.end())
    return std::nullopt;
  if (Perturb && PerturbedKey.empty())
    PerturbedKey = Key;
  std::string Pin = It->second;
  if (Key == PerturbedKey && !Pin.empty())
    Pin[0] = Pin[0] == '0' ? '1' : '0';
  return Pin;
}
