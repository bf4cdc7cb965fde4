//===- tests/support/OptionsTest.cpp --------------------------------------===//

#include "support/Options.h"

#include <gtest/gtest.h>

using namespace specctrl;

namespace {

bool parse(OptionSet &Opts, std::initializer_list<const char *> Args) {
  std::vector<const char *> Argv = {"tool"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  return Opts.parse(static_cast<int>(Argv.size()), Argv.data());
}

} // namespace

TEST(OptionsTest, Defaults) {
  OptionSet Opts("t");
  Opts.addFlag("csv", "csv output");
  Opts.addInt("scale", 4, "scale");
  Opts.addDouble("threshold", 0.99, "threshold");
  Opts.addString("bench", "all", "benchmark");
  ASSERT_TRUE(parse(Opts, {}));
  EXPECT_FALSE(Opts.getFlag("csv"));
  EXPECT_EQ(Opts.getInt("scale"), 4);
  EXPECT_DOUBLE_EQ(Opts.getDouble("threshold"), 0.99);
  EXPECT_EQ(Opts.getString("bench"), "all");
  EXPECT_TRUE(Opts.has("csv"));
  EXPECT_TRUE(Opts.has("bench"));
  EXPECT_FALSE(Opts.has("jobs"));
}

TEST(OptionsTest, EqualsAndSpaceForms) {
  OptionSet Opts("t");
  Opts.addInt("n", 0, "n");
  Opts.addString("s", "", "s");
  ASSERT_TRUE(parse(Opts, {"--n=42", "--s", "hello"}));
  EXPECT_EQ(Opts.getInt("n"), 42);
  EXPECT_EQ(Opts.getString("s"), "hello");
}

TEST(OptionsTest, FlagForms) {
  OptionSet Opts("t");
  Opts.addFlag("a", "a");
  Opts.addFlag("b", "b");
  ASSERT_TRUE(parse(Opts, {"--a", "--b=false"}));
  EXPECT_TRUE(Opts.getFlag("a"));
  EXPECT_FALSE(Opts.getFlag("b"));
}

TEST(OptionsTest, UnknownOptionFails) {
  OptionSet Opts("t");
  EXPECT_FALSE(parse(Opts, {"--nope"}));
  EXPECT_TRUE(Opts.wasError());
}

TEST(OptionsTest, BadIntegerFails) {
  OptionSet Opts("t");
  Opts.addInt("n", 0, "n");
  EXPECT_FALSE(parse(Opts, {"--n=abc"}));
  EXPECT_TRUE(Opts.wasError());
}

TEST(OptionsTest, OutOfRangeIntegerFails) {
  // strtoll clamps these to INT64_MAX and INT64_MIN; the parser must not.
  for (const char *Arg : {"--n=99999999999999999999",
                          "--n=-99999999999999999999",
                          "--n=0x10000000000000000"}) {
    OptionSet Opts("t");
    Opts.addInt("n", 0, "n");
    EXPECT_FALSE(parse(Opts, {Arg})) << Arg;
    EXPECT_TRUE(Opts.wasError()) << Arg;
  }
  OptionSet Opts("t");
  Opts.addInt("n", 0, "n");
  ASSERT_TRUE(parse(Opts, {"--n=9223372036854775807"}));
  EXPECT_EQ(Opts.getInt("n"), INT64_MAX);
}

TEST(OptionsTest, PositionalCollected) {
  OptionSet Opts("t", /*MaxPositional=*/2);
  Opts.addFlag("x", "x");
  ASSERT_TRUE(parse(Opts, {"one", "--x", "two"}));
  ASSERT_EQ(Opts.positional().size(), 2u);
  EXPECT_EQ(Opts.positional()[0], "one");
  EXPECT_EQ(Opts.positional()[1], "two");
}

TEST(OptionsTest, SurplusPositionalFails) {
  // A tool takes none unless it says so: a stray word, or a one-dash
  // typo of an option, is an error rather than silently ignored.
  for (const char *Arg : {"stray", "-jobs"}) {
    OptionSet Opts("t");
    Opts.addInt("jobs", 0, "jobs");
    EXPECT_FALSE(parse(Opts, {Arg, "4"})) << Arg;
    EXPECT_TRUE(Opts.wasError()) << Arg;
  }
  OptionSet Opts("t", /*MaxPositional=*/1);
  EXPECT_FALSE(parse(Opts, {"one", "two"}));
  EXPECT_TRUE(Opts.wasError());
  ASSERT_EQ(Opts.positional().size(), 1u);
}

TEST(OptionsTest, HelpReturnsFalseWithoutError) {
  OptionSet Opts("t");
  EXPECT_FALSE(parse(Opts, {"--help"}));
  EXPECT_FALSE(Opts.wasError());
}

TEST(OptionsTest, NegativeAndHexIntegers) {
  OptionSet Opts("t");
  Opts.addInt("a", 0, "a");
  Opts.addInt("b", 0, "b");
  ASSERT_TRUE(parse(Opts, {"--a=-17", "--b=0x10"}));
  EXPECT_EQ(Opts.getInt("a"), -17);
  EXPECT_EQ(Opts.getInt("b"), 16);
}

TEST(OptionsTest, LeadingZeroIntegersAreDecimal) {
  OptionSet Opts("t");
  for (const char *Name : {"a", "b", "c", "d"})
    Opts.addInt(Name, 0, Name);
  ASSERT_TRUE(parse(Opts, {"--a=010", "--b=-010", "--c=08", "--d=0x10"}));
  EXPECT_EQ(Opts.getInt("a"), 10);
  EXPECT_EQ(Opts.getInt("b"), -10);
  EXPECT_EQ(Opts.getInt("c"), 8);
  EXPECT_EQ(Opts.getInt("d"), 16);
}
