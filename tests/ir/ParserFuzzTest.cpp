//===- tests/ir/ParserFuzzTest.cpp - Parser robustness tests --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hostile-input hardening for the textual SimIR parser: truncations,
/// byte mutations, numeric overflow, duplicate/out-of-order labels, and
/// structurally odd but syntactically plausible inputs must all produce a
/// clean ParseError (or a well-formed result) -- never a crash, assert, or
/// silent wrap.  Runs under the sanitizer configs (SPECCTRL_ASAN/UBSAN).
///
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace specctrl;
using namespace specctrl::ir;

namespace {

const char *const SampleModule = R"(module (entry @0)
func @main (id=0, regs=8) {
bb0:
  r1 = load [r0 + 100]
  r2 = cmpltimm r1, 32
  br r2, bb1, bb2  ; site 17
bb1:
  r3 = add r1, r2
  store [r0 + 200], r3
  jmp bb3
bb2:
  call @1
  jmp bb3
bb3:
  halt
}
func @leaf (id=1, regs=4) {
bb0:
  store [r0 + 300], r0
  ret
}
)";

/// Every prefix of a valid module either parses or reports a positioned
/// error; it never crashes.
TEST(ParserFuzzTest, TruncationsAreHandled) {
  const std::string Text = SampleModule;
  for (size_t Len = 0; Len <= Text.size(); ++Len) {
    const std::string Prefix = Text.substr(0, Len);
    ParseError Error;
    const std::optional<Module> M = parseModule(Prefix, &Error);
    if (!M) {
      EXPECT_FALSE(Error.Message.empty()) << "prefix length " << Len;
    } else {
      EXPECT_GT(M->numFunctions(), 0u);
    }
  }
}

/// Deterministic single-byte mutations across the whole sample: flip each
/// position to a handful of hostile characters.
TEST(ParserFuzzTest, SingleByteMutationsAreHandled) {
  const std::string Text = SampleModule;
  const char Hostile[] = {'\0', '@', '9', '-', 'r', 'b', '}', ';', ' '};
  for (size_t Pos = 0; Pos < Text.size(); ++Pos) {
    for (const char C : Hostile) {
      std::string Mutant = Text;
      Mutant[Pos] = C;
      ParseError Error;
      const std::optional<Module> M = parseModule(Mutant, &Error);
      if (!M) {
        EXPECT_FALSE(Error.Message.empty())
            << "pos " << Pos << " char " << static_cast<int>(C);
      }
    }
  }
}

/// Random line-level splices: shuffle, duplicate, and drop lines.  Seeded
/// -> reproducible.
TEST(ParserFuzzTest, RandomLineSplicesAreHandled) {
  std::vector<std::string> Lines;
  {
    std::istringstream IS(SampleModule);
    std::string L;
    while (std::getline(IS, L))
      Lines.push_back(L);
  }
  Rng R(0x5eed);
  for (int Round = 0; Round < 200; ++Round) {
    std::string Text;
    const size_t N = 1 + R.nextBelow(2 * Lines.size());
    for (size_t I = 0; I < N; ++I) {
      Text += Lines[R.nextBelow(Lines.size())];
      Text += '\n';
    }
    ParseError Error;
    const std::optional<Module> M = parseModule(Text, &Error);
    if (!M) {
      EXPECT_FALSE(Error.Message.empty()) << "round " << Round;
    }
  }
}

TEST(ParserFuzzTest, RejectsBadOpcodes) {
  for (const char *Bad : {
           "frobnicate r1, r2",
           "r1 = divide r2, r3",
           "r1 = 'load' [r0 + 4]",
           "br+ r1, bb0, bb1 ; site 0",
           "stor [r0 + 4], r1",
       }) {
    ParseError Error;
    EXPECT_FALSE(parseInstruction(Bad, &Error).has_value()) << Bad;
    EXPECT_FALSE(Error.Message.empty()) << Bad;
  }
}

TEST(ParserFuzzTest, RejectsNumericOverflow) {
  // Immediates beyond int64, block/callee/site ids beyond uint32, and
  // register numbers beyond the file must fail cleanly, never wrap.
  for (const char *Bad : {
           "r1 = movimm 99999999999999999999999",
           "r1 = movimm -99999999999999999999999",
           "jmp bb4294967296",
           "jmp bb99999999999999999999",
           "br r1, bb0, bb4294967299 ; site 0",
           "br r1, bb0, bb1 ; site 4294967295",  // InvalidSite sentinel
           "br r1, bb0, bb1 ; site 99999999999999999999",
           "call @4294967296",
           "r70 = movimm 1",
           "r99999999999999999999 = movimm 1",
       }) {
    ParseError Error;
    EXPECT_FALSE(parseInstruction(Bad, &Error).has_value()) << Bad;
    EXPECT_FALSE(Error.Message.empty()) << Bad;
  }
}

TEST(ParserFuzzTest, RejectsDuplicateAndOutOfOrderLabels) {
  const char *const Dup = "func @f (id=0, regs=2) {\n"
                          "bb0:\n  ret\nbb0:\n  ret\n}\n";
  const char *const Gap = "func @f (id=0, regs=2) {\n"
                          "bb0:\n  ret\nbb2:\n  ret\n}\n";
  for (const char *Text : {Dup, Gap}) {
    ParseError Error;
    EXPECT_FALSE(parseFunction(Text, &Error).has_value());
    EXPECT_NE(Error.Message.find("block label"), std::string::npos);
  }
}

TEST(ParserFuzzTest, RejectsEmptyFunctions) {
  ParseError Error;
  EXPECT_FALSE(
      parseFunction("func @f (id=0, regs=2) {\n}\n", &Error).has_value());
  EXPECT_NE(Error.Message.find("no blocks"), std::string::npos);
}

TEST(ParserFuzzTest, RejectsOversizedHeaderIds) {
  for (const char *Text : {
           "func @f (id=4294967296, regs=2) {\nbb0:\n  ret\n}\n",
           "func @f (id=0, regs=99999999999999999999) {\nbb0:\n  ret\n}\n",
           "func @f (id=-1, regs=2) {\nbb0:\n  ret\n}\n",
       }) {
    ParseError Error;
    EXPECT_FALSE(parseFunction(Text, &Error).has_value()) << Text;
    EXPECT_FALSE(Error.Message.empty()) << Text;
  }
}

/// Self-referencing and forward-referencing blocks are syntactically fine;
/// the parser accepts them and the structural verifier decides validity.
TEST(ParserFuzzTest, SelfReferencingBlocksParse) {
  const char *const Text = "func @spin (id=0, regs=2) {\n"
                           "bb0:\n"
                           "  jmp bb0\n"
                           "}\n";
  ParseError Error;
  const std::optional<Function> F = parseFunction(Text, &Error);
  ASSERT_TRUE(F.has_value()) << Error.Message;
  EXPECT_TRUE(verifyFunction(*F));

  // A branch to a nonexistent block parses but must NOT verify.
  const char *const Dangling = "func @dangle (id=0, regs=2) {\n"
                               "bb0:\n"
                               "  jmp bb7\n"
                               "}\n";
  const std::optional<Function> G = parseFunction(Dangling, &Error);
  ASSERT_TRUE(G.has_value()) << Error.Message;
  EXPECT_FALSE(verifyFunction(*G));
}

} // namespace
