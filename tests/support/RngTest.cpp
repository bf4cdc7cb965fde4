//===- tests/support/RngTest.cpp - Rng unit tests -------------------------===//

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

using namespace specctrl;

TEST(RngTest, SameSeedSameStream) {
  Rng A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Equal = 0;
  for (int I = 0; I < 100; ++I)
    Equal += A.next() == B.next();
  EXPECT_LT(Equal, 3);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng A(7);
  std::vector<uint64_t> First;
  for (int I = 0; I < 16; ++I)
    First.push_back(A.next());
  A.reseed(7);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(A.next(), First[I]);
}

TEST(RngTest, NextBelowInRange) {
  Rng R(3);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng R(5);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(R.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 5000; ++I) {
    const uint64_t V = R.nextInRange(3, 6);
    ASSERT_GE(V, 3u);
    ASSERT_LE(V, 6u);
    SawLo |= V == 3;
    SawHi |= V == 6;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, NextDoubleUnitInterval) {
  Rng R(11);
  double Sum = 0.0;
  for (int I = 0; I < 10000; ++I) {
    const double D = R.nextDouble();
    ASSERT_GE(D, 0.0);
    ASSERT_LT(D, 1.0);
    Sum += D;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng R(13);
  int True990 = 0;
  for (int I = 0; I < 100000; ++I)
    True990 += R.nextBool(0.99);
  EXPECT_NEAR(True990 / 100000.0, 0.99, 0.005);
  EXPECT_FALSE(R.nextBool(0.0));
  EXPECT_TRUE(R.nextBool(1.0));
}

TEST(RngTest, ForkIsDeterministicAndIndependent) {
  Rng Parent(21);
  Rng C1 = Parent.fork(1);
  Rng C2 = Parent.fork(2);
  Rng C1Again = Parent.fork(1);
  EXPECT_EQ(C1.next(), C1Again.next());
  // Forking does not advance the parent.
  Rng Parent2(21);
  (void)Parent2.fork(99);
  Rng ParentRef(21);
  EXPECT_EQ(Parent2.next(), ParentRef.next());
  // Adjacent stream ids decorrelate.
  int Equal = 0;
  for (int I = 0; I < 100; ++I)
    Equal += C1.next() == C2.next();
  EXPECT_LT(Equal, 3);
}

namespace {

/// Bounds around every edge of the 128-bit reciprocal: 1 (it wraps to 0),
/// small primes and powers of two, the largest suite alias table, and
/// both sides of 2^31 and 2^32.
const std::vector<uint64_t> DrawBounds = {
    1, 2, 3, 5, 8, 71, 1986, (1ull << 31) - 1, 1ull << 31, (1ull << 32) - 1};

} // namespace

TEST(RngTest, BoundedDrawMatchesNextBelow) {
  for (const uint64_t N : DrawBounds) {
    const BoundedDraw Draw(N);
    Rng A(N * 31 + 7), B(N * 31 + 7);
    for (int I = 0; I < 100000; ++I)
      ASSERT_EQ(Draw.draw(A), B.nextBelow(N)) << "N=" << N << " draw " << I;
    // Both consumed the same words, rejections included.
    EXPECT_EQ(A.next(), B.next()) << "N=" << N;
  }
}

TEST(RngTest, BoundedDrawRejectsLikeNextBelow) {
  // A bound just above 2^63 rejects almost half of all words, so about
  // half the draws loop at least once.
  const uint64_t N = (1ull << 63) + 12345;
  const BoundedDraw Draw(N);
  Rng A(77), B(77);
  for (int I = 0; I < 10000; ++I)
    ASSERT_EQ(Draw.draw(A), B.nextBelow(N)) << "draw " << I;
  EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, BoundedDrawRemainderIsExact) {
  std::vector<uint64_t> Bounds = DrawBounds;
  Bounds.insert(Bounds.end(), {1ull << 32, (1ull << 63) - 1, 1ull << 63,
                               (1ull << 63) + 1, ~0ull - 1, ~0ull});
  Rng R(2019);
  for (const uint64_t N : Bounds) {
    const BoundedDraw Draw(N);
    std::vector<uint64_t> Xs = {0, 1, N - 1, N, N + 1, 1ull << 63, ~0ull};
    for (int I = 0; I < 10000; ++I)
      Xs.push_back(R.next());
    for (const uint64_t X : Xs)
      ASSERT_EQ(Draw.remainder(X), X % N) << "X=" << X << " N=" << N;
  }
}
