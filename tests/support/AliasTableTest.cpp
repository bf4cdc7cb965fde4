//===- tests/support/AliasTableTest.cpp -----------------------------------===//

#include "support/AliasTable.h"

#include <gtest/gtest.h>

#include <vector>

using namespace specctrl;

TEST(AliasTableTest, SingleEntry) {
  AliasTable T({1.0});
  Rng R(1);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(T.sample(R), 0u);
}

TEST(AliasTableTest, UniformWeights) {
  AliasTable T(std::vector<double>(4, 1.0));
  Rng R(2);
  std::vector<int> Counts(4, 0);
  const int N = 40000;
  for (int I = 0; I < N; ++I)
    ++Counts[T.sample(R)];
  for (int C : Counts)
    EXPECT_NEAR(static_cast<double>(C) / N, 0.25, 0.02);
}

TEST(AliasTableTest, SkewedWeights) {
  AliasTable T({8.0, 1.0, 1.0});
  Rng R(3);
  std::vector<int> Counts(3, 0);
  const int N = 50000;
  for (int I = 0; I < N; ++I)
    ++Counts[T.sample(R)];
  EXPECT_NEAR(Counts[0] / static_cast<double>(N), 0.8, 0.02);
  EXPECT_NEAR(Counts[1] / static_cast<double>(N), 0.1, 0.01);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable T({1.0, 0.0, 1.0});
  Rng R(4);
  for (int I = 0; I < 20000; ++I)
    EXPECT_NE(T.sample(R), 1u);
}

TEST(AliasTableTest, LargeTableDistribution) {
  // Zipf-ish weights over 1000 entries: the head must dominate.
  std::vector<double> W(1000);
  for (size_t I = 0; I < W.size(); ++I)
    W[I] = 1.0 / static_cast<double>(I + 1);
  AliasTable T(W);
  Rng R(5);
  int Head = 0;
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    Head += T.sample(R) < 10;
  // Top-10 mass of Zipf(1) over 1000 entries is ~39%.
  EXPECT_NEAR(Head / static_cast<double>(N), 0.39, 0.03);
}

TEST(AliasTableTest, SampleMatchesNextBelowReference) {
  // sample() is the textbook draw -- a uniform slot from nextBelow, then
  // keep the slot with its probability or take its alias -- word for word.
  std::vector<double> W(71);
  for (size_t I = 0; I < W.size(); ++I)
    W[I] = static_cast<double>((I * 37) % 11) + (I % 3 == 0 ? 0.0 : 0.5);
  for (const std::vector<double> &Weights :
       {W, std::vector<double>{1.0}, std::vector<double>{3.0, 1.0},
        std::vector<double>(8, 2.0)}) {
    const AliasTable T(Weights);
    Rng A(123), B(123);
    for (int I = 0; I < 20000; ++I) {
      const uint32_t Slot = static_cast<uint32_t>(B.nextBelow(T.size()));
      const uint32_t Expected =
          B.nextDouble() < T.keepProbability(Slot) ? Slot : T.alias(Slot);
      ASSERT_EQ(T.sample(A), Expected) << "draw " << I;
    }
    EXPECT_EQ(A.next(), B.next());
  }
}
