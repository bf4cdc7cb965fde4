//===- tests/distill/CodeCacheTest.cpp ------------------------------------===//

#include "distill/CodeCache.h"

#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::distill;
using namespace specctrl::ir;

namespace {

Function makeVersion(const char *Name, uint32_t Id) {
  Function F(Name, Id, 4);
  IRBuilder B(F);
  B.setBlock(B.makeBlock());
  B.ret();
  return F;
}

} // namespace

TEST(CodeCacheTest, EmptyHasNoVersions) {
  CodeCache Cache;
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(CodeCacheTest, InstallAndCurrent) {
  // install returns the version it stored, and each install stores a new
  // one, also for a function id that already has a version.
  CodeCache Cache;
  const Function *V1 = Cache.install(5, makeVersion("v1", 5));
  EXPECT_EQ(V1->name(), "v1");
  EXPECT_EQ(Cache.size(), 1u);

  const Function *V2 = Cache.install(5, makeVersion("v2", 5));
  EXPECT_EQ(V2->name(), "v2");
  EXPECT_NE(V1, V2);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(CodeCacheTest, PointersStableAcrossInstalls) {
  CodeCache Cache;
  const Function *First = Cache.install(1, makeVersion("a", 1));
  const std::string NameBefore = First->name();
  for (int I = 0; I < 100; ++I)
    Cache.install(1, makeVersion("x", 1));
  Cache.install(2, makeVersion("other", 2));
  // The first pointer still dereferences to the same function.
  EXPECT_EQ(First->name(), NameBefore);
  EXPECT_EQ(Cache.size(), 102u);
}
