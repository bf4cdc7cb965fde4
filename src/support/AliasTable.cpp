//===- support/AliasTable.cpp - O(1) weighted discrete sampling -----------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/AliasTable.h"

using namespace specctrl;

void AliasTable::build(const std::vector<double> &Weights) {
  const size_t N = Weights.size();
  assert(N > 0 && "alias table needs at least one weight");
  Prob.assign(N, 0.0);
  Alias.assign(N, 0);
  SlotDraw = BoundedDraw(N);

  double Total = 0.0;
  for (double W : Weights)
    if (W > 0.0)
      Total += W;
  assert(Total > 0.0 && "alias table needs at least one positive weight");

  // Scaled probabilities; split into under- and over-full slots.
  std::vector<double> Scaled(N);
  std::vector<uint32_t> Small, Large;
  Small.reserve(N);
  Large.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    const double W = Weights[I] > 0.0 ? Weights[I] : 0.0;
    Scaled[I] = W * static_cast<double>(N) / Total;
    (Scaled[I] < 1.0 ? Small : Large).push_back(static_cast<uint32_t>(I));
  }

  while (!Small.empty() && !Large.empty()) {
    const uint32_t S = Small.back();
    Small.pop_back();
    const uint32_t L = Large.back();
    Prob[S] = Scaled[S];
    Alias[S] = L;
    Scaled[L] = (Scaled[L] + Scaled[S]) - 1.0;
    if (Scaled[L] < 1.0) {
      Large.pop_back();
      Small.push_back(L);
    }
  }
  // Numerical leftovers: both lists drain to probability-1 slots.
  for (uint32_t S : Small)
    Prob[S] = 1.0;
  for (uint32_t L : Large)
    Prob[L] = 1.0;
}
