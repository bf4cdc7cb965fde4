//===- tests/exec/PagedMemoryTest.cpp -------------------------------------===//
//
// The engine's memory: copy-on-write pages over a borrowed, read-only
// image.  Engines over one image never see each other's stores and never
// change the image; page edges, loads past the size, growth past the
// image (through its partial last page) and the memory cap behave as the
// flat memory the pages replace, which a random store/load sequence
// checks word for word.
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadedBackend.h"

#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

using namespace specctrl;
using namespace specctrl::exec;
using namespace specctrl::ir;

namespace {

constexpr uint64_t PageWords = ThreadedBackend::PageWords;

/// \p Words distinct nonzero words.
std::vector<uint64_t> makeImage(uint64_t Words) {
  std::vector<uint64_t> Image(Words);
  for (uint64_t I = 0; I < Words; ++I)
    Image[I] = I * 7 + 1;
  return Image;
}

/// A program that, through the engine's own load and store handlers,
/// copies word From[I] to word To[I] for each pair, in order, and then
/// stores Value at word Target.
Module copyThenStore(const std::vector<std::pair<uint64_t, uint64_t>> &Copies,
                     uint64_t Target, uint64_t Value) {
  Module M;
  IRBuilder B(M.createFunction("main", 4));
  B.setBlock(B.makeBlock());
  for (const auto &[From, To] : Copies) {
    B.load(1, 0, static_cast<int64_t>(From));
    B.store(0, static_cast<int64_t>(To), 1);
  }
  B.movImm(2, static_cast<int64_t>(Value));
  B.store(0, static_cast<int64_t>(Target), 2);
  B.halt();
  return M;
}

} // namespace

TEST(PagedMemoryTest, EnginesOverOneImageAreIsolated) {
  const std::vector<uint64_t> Image = makeImage(3 * PageWords + 100);
  const std::vector<uint64_t> Pristine = Image;
  const Module M = copyThenStore({{5, 6}}, 700, 42);
  ThreadedBackend A(M, std::span(Image));
  ThreadedBackend B(M, std::span(Image));

  ASSERT_EQ(A.run(100), StopReason::Halted);
  EXPECT_EQ(A.loadWord(6), Image[5]);
  EXPECT_EQ(A.loadWord(700), 42u);
  // B and the image are untouched by A's stores.
  EXPECT_EQ(B.loadWord(6), Pristine[6]);
  EXPECT_EQ(B.loadWord(700), Pristine[700]);
  EXPECT_EQ(B.memory(), Pristine);
  EXPECT_EQ(Image, Pristine);

  // ... and A by B's.
  B.storeWord(700, 9);
  B.storeWord(6, 3);
  EXPECT_EQ(B.loadWord(700), 9u);
  EXPECT_EQ(A.loadWord(700), 42u);
  EXPECT_EQ(A.loadWord(6), Pristine[5]);
  EXPECT_EQ(Image, Pristine);

  std::vector<uint64_t> Want = Pristine;
  Want[6] = Pristine[5];
  Want[700] = 42;
  EXPECT_EQ(A.memory(), Want);
}

TEST(PagedMemoryTest, StoresAndLoadsAtThePageEdge) {
  const std::vector<uint64_t> Image = makeImage(2 * PageWords);
  // Words 511 and 512 lie on two pages; each is loaded, stored to the
  // other, and read back.
  const Module M = copyThenStore(
      {{PageWords - 1, 10}, {PageWords, PageWords - 1}, {10, PageWords}},
      2 * PageWords - 1, 77);
  ThreadedBackend E(M, std::span(Image));
  ASSERT_EQ(E.run(100), StopReason::Halted);

  std::vector<uint64_t> Want = Image;
  Want[10] = Image[PageWords - 1];
  Want[PageWords - 1] = Image[PageWords];
  Want[PageWords] = Image[PageWords - 1];
  Want[2 * PageWords - 1] = 77;
  EXPECT_EQ(E.memory(), Want);
  EXPECT_EQ(E.loadWord(PageWords - 2), Image[PageWords - 2]);
  EXPECT_EQ(E.loadWord(PageWords + 1), Image[PageWords + 1]);
}

TEST(PagedMemoryTest, LoadsPastTheImageReadZero) {
  // 700 words: the last page is partial.
  const std::vector<uint64_t> Image = makeImage(PageWords + 188);
  const uint64_t Past[] = {Image.size(), 2 * PageWords - 1, 2 * PageWords,
                           5000, ThreadedBackend::MaxMemoryWords - 1,
                           ThreadedBackend::MaxMemoryWords};
  std::vector<std::pair<uint64_t, uint64_t>> Copies;
  for (uint64_t I = 0; I < std::size(Past); ++I)
    Copies.push_back({Past[I], I});
  const Module M = copyThenStore(Copies, std::size(Past), 0);
  ThreadedBackend E(M, std::span(Image));
  ASSERT_EQ(E.run(100), StopReason::Halted);

  for (uint64_t I = 0; I < std::size(Past); ++I) {
    EXPECT_EQ(E.loadWord(I), 0u) << "copy of word " << Past[I];
    EXPECT_EQ(E.loadWord(Past[I]), 0u) << "word " << Past[I];
  }
  EXPECT_EQ(E.memory().size(), Image.size()); // loads never grow memory
}

TEST(PagedMemoryTest, StorePastTheImageGrowsWithZeros) {
  const std::vector<uint64_t> Image = makeImage(PageWords + 188);
  const uint64_t Target = 3 * PageWords + 5;
  const Module M = copyThenStore({}, Target, 99);
  ThreadedBackend E(M, std::span(Image));
  ASSERT_EQ(E.run(100), StopReason::Halted);

  const std::vector<uint64_t> Memory = E.memory();
  ASSERT_EQ(Memory.size(), Target + 1);
  for (uint64_t W = 0; W < Image.size(); ++W)
    ASSERT_EQ(Memory[W], Image[W]) << "word " << W;
  // The rest of the image's partial last page reads 0, as do the pages
  // between it and the stored word.
  for (uint64_t W = Image.size(); W < Target; ++W) {
    ASSERT_EQ(Memory[W], 0u) << "word " << W;
    ASSERT_EQ(E.loadWord(W), 0u) << "word " << W;
  }
  EXPECT_EQ(Memory[Target], 99u);
  EXPECT_EQ(E.loadWord(Target + 1), 0u);
  EXPECT_EQ(Image, makeImage(PageWords + 188));
}

TEST(PagedMemoryTest, StoreAtTheMemoryCapFaults) {
  const uint64_t Cap = ThreadedBackend::MaxMemoryWords;
  const Module M = copyThenStore({}, Cap, 1);
  ThreadedBackend E(M, std::vector<uint64_t>(16, 0));
  EXPECT_EQ(E.run(100), StopReason::Fault);
  EXPECT_EQ(E.memory().size(), 16u);
  EXPECT_EQ(E.loadWord(Cap), 0u);

  // The last word below the cap still grows memory.
  E.storeWord(Cap - 1, 5);
  EXPECT_EQ(E.loadWord(Cap - 1), 5u);
  EXPECT_EQ(E.loadWord(Cap - 2), 0u);
}

TEST(PagedMemoryTest, MatchesFlatMemoryUnderRandomStores) {
  // The flat memory the pages replace: loads at or past the size read 0,
  // and a store past the size grows it with zeros.
  const std::vector<uint64_t> Image = makeImage(2 * PageWords + 77);
  std::vector<uint64_t> Flat = Image;
  const Module M = copyThenStore({}, 0, 0);
  ThreadedBackend Paged(M, std::span(Image));
  uint64_t State = 12345;
  const auto Next = [&State] {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return State >> 33;
  };
  for (int Step = 0; Step < 20000; ++Step) {
    const uint64_t Addr = Next() % (6 * PageWords);
    if (Next() % 3 == 0) {
      const uint64_t Value = Next();
      Paged.storeWord(Addr, Value);
      if (Addr >= Flat.size())
        Flat.resize(Addr + 1, 0);
      Flat[Addr] = Value;
    } else {
      ASSERT_EQ(Paged.loadWord(Addr), Addr < Flat.size() ? Flat[Addr] : 0)
          << "step " << Step << " word " << Addr;
    }
  }
  EXPECT_EQ(Paged.memory(), Flat);
  EXPECT_EQ(Image, makeImage(2 * PageWords + 77));
}
