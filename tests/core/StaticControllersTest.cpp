//===- tests/core/StaticControllersTest.cpp -------------------------------===//

#include "core/StaticControllers.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::core;

TEST(StaticSelectionControllerTest, SelectsFromProfile) {
  profile::BranchProfile P(3);
  for (int I = 0; I < 1000; ++I)
    P.addOutcome(0, true); // 100% taken
  for (int I = 0; I < 1000; ++I)
    P.addOutcome(1, I % 2 == 0); // 50%
  for (int I = 0; I < 995; ++I)
    P.addOutcome(2, false);
  for (int I = 0; I < 5; ++I)
    P.addOutcome(2, true); // 99.5% not-taken

  StaticSelectionController C(P, 0.99);
  EXPECT_EQ(C.selectedCount(), 2u);
  EXPECT_TRUE(C.isDeployed(0));
  EXPECT_TRUE(C.deployedDirection(0));
  EXPECT_FALSE(C.isDeployed(1));
  EXPECT_TRUE(C.isDeployed(2));
  EXPECT_FALSE(C.deployedDirection(2));
}

TEST(StaticSelectionControllerTest, AccountsOutcomes) {
  profile::BranchProfile P(1);
  for (int I = 0; I < 100; ++I)
    P.addOutcome(0, true);
  StaticSelectionController C(P, 0.99);

  uint64_t InstRet = 0;
  for (int I = 0; I < 90; ++I)
    C.onBranch(0, true, InstRet += 5);
  for (int I = 0; I < 10; ++I)
    C.onBranch(0, false, InstRet += 5);
  C.onBranch(5, true, InstRet += 5); // unselected site

  const ControlStats &S = C.stats();
  EXPECT_EQ(S.Branches, 101u);
  EXPECT_EQ(S.CorrectSpecs, 90u);
  EXPECT_EQ(S.IncorrectSpecs, 10u);
  EXPECT_EQ(S.touchedCount(), 2u);
  EXPECT_EQ(S.everBiasedCount(), 1u);
}

TEST(StaticSelectionControllerTest, MinExecsFilter) {
  profile::BranchProfile P(1);
  for (int I = 0; I < 5; ++I)
    P.addOutcome(0, true);
  StaticSelectionController Lax(P, 0.99, 1);
  StaticSelectionController Strict(P, 0.99, 100);
  EXPECT_EQ(Lax.selectedCount(), 1u);
  EXPECT_EQ(Strict.selectedCount(), 0u);
}
