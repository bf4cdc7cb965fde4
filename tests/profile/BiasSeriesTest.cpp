//===- tests/profile/BiasSeriesTest.cpp -----------------------------------===//

#include "profile/BiasSeries.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace specctrl;
using namespace specctrl::profile;

TEST(BiasSeriesTest, BlocksCloseAtBlockSize) {
  BiasSeriesCollector C({7}, 100);
  for (uint64_t I = 0; I < 250; ++I)
    C.addOutcome(7, I % 10 != 0, I);
  C.finish(249);
  const auto &S = C.series(0);
  ASSERT_EQ(S.size(), 3u);
  EXPECT_NEAR(S[0].TakenFraction, 0.9, 1e-12);
  EXPECT_NEAR(S[1].TakenFraction, 0.9, 1e-12);
  // Final partial block (50 outcomes) closed by finish().
  EXPECT_NEAR(S[2].TakenFraction, 0.9, 1e-12);
  EXPECT_EQ(S[2].GlobalIndex, 249u);
}

TEST(BiasSeriesTest, RejectsZeroBlockSize) {
  EXPECT_THROW(BiasSeriesCollector({7}, 0), std::invalid_argument);
}

TEST(BiasSeriesTest, UntrackedSitesIgnored) {
  BiasSeriesCollector C({3}, 10);
  for (uint64_t I = 0; I < 100; ++I)
    C.addOutcome(99, true, I);
  C.finish(100);
  EXPECT_TRUE(C.series(0).empty());
}

TEST(BiasSeriesTest, CapturesBehaviorChange) {
  BiasSeriesCollector C({0}, 1000);
  uint64_t G = 0;
  for (int B = 0; B < 20; ++B)
    for (int I = 0; I < 1000; ++I, ++G)
      C.addOutcome(0, true, G); // biased taken
  for (int B = 0; B < 20; ++B)
    for (int I = 0; I < 1000; ++I, ++G)
      C.addOutcome(0, I % 2 == 0, G); // unbiased
  C.finish(G);

  const auto &S = C.series(0);
  ASSERT_EQ(S.size(), 40u);
  EXPECT_NEAR(S[5].TakenFraction, 1.0, 1e-12);
  EXPECT_NEAR(S[30].TakenFraction, 0.5, 0.05);

  const auto Intervals = C.biasedIntervals(0, 0.99);
  ASSERT_EQ(Intervals.size(), 1u);
  EXPECT_EQ(Intervals[0].first, 0u);
  // The biased interval ends near the 20,000th event.
  EXPECT_NEAR(static_cast<double>(Intervals[0].second), 20000.0, 1500.0);
}

TEST(BiasSeriesTest, BiasedIntervalsBothDirections) {
  // Not-taken bias also counts as biased.
  BiasSeriesCollector C({0}, 100);
  uint64_t G = 0;
  for (int I = 0; I < 500; ++I, ++G)
    C.addOutcome(0, false, G);
  C.finish(G);
  const auto Intervals = C.biasedIntervals(0, 0.99);
  ASSERT_EQ(Intervals.size(), 1u);
}

TEST(BiasSeriesTest, MultipleTracks) {
  BiasSeriesCollector C({4, 9}, 50);
  for (uint64_t I = 0; I < 100; ++I) {
    C.addOutcome(4, true, I);
    C.addOutcome(9, false, I);
  }
  C.finish(100);
  ASSERT_EQ(C.series(0).size(), 2u);
  ASSERT_EQ(C.series(1).size(), 2u);
  EXPECT_DOUBLE_EQ(C.series(0)[0].TakenFraction, 1.0);
  EXPECT_DOUBLE_EQ(C.series(1)[0].TakenFraction, 0.0);
}
