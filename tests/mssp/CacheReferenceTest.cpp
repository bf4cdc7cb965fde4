//===- tests/mssp/CacheReferenceTest.cpp ----------------------------------===//
//
// CacheModel against an independent true-LRU reference: per set, a list of
// resident block numbers in recency order, looked up by linear search.
// The reference shares no code with CacheModel (no tags, MRU shortcut,
// timestamps or shifts), so a rewrite of the model is checked against a
// different reading of "set-associative LRU", not against itself.  Every
// access's hit or miss and the final miss count must agree, over seeded
// random address streams and the suite programs' load/store streams, in
// Table 5's three geometries and a two-set one that evicts constantly.
//
//===----------------------------------------------------------------------===//

#include "mssp/Cache.h"

#include "exec/ThreadedBackend.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <random>
#include <string>
#include <vector>

using namespace specctrl;
using namespace specctrl::mssp;

namespace {

/// The reference: a true-LRU cache read straight off the geometry.
class ListLru {
public:
  explicit ListLru(const CacheConfig &Config)
      : Assoc(Config.Assoc), WordsPerBlock(Config.BlockBytes / 8),
        Sets(Config.SizeBytes / Config.BlockBytes / Config.Assoc) {}

  bool access(uint64_t WordAddr) {
    const uint64_t Block = WordAddr / WordsPerBlock;
    std::list<uint64_t> &Set = Sets[Block % Sets.size()];
    const auto It = std::find(Set.begin(), Set.end(), Block);
    if (It != Set.end()) {
      Set.splice(Set.begin(), Set, It); // now the most recently used
      return true;
    }
    ++Misses;
    if (Set.size() == Assoc)
      Set.pop_back(); // the least recently used
    Set.push_front(Block);
    return false;
  }

  uint64_t misses() const { return Misses; }

private:
  size_t Assoc;
  uint64_t WordsPerBlock;
  std::vector<std::list<uint64_t>> Sets;
  uint64_t Misses = 0;
};

struct Geometry {
  const char *Name;
  CacheConfig Config;
};

/// Table 5's caches, and two sets of four ways.
std::vector<Geometry> geometries() {
  const MachineConfig M;
  return {{"leading-L1", M.Leading.L1},
          {"trailing-L1", M.Trailing.L1},
          {"L2", M.L2},
          {"two-sets", {2 * 4 * 64, 4, 64, 1}}};
}

/// Feeds \p Stream to a CacheModel and the reference in every geometry;
/// returns the reference's misses per geometry, for coverage checks.
std::vector<uint64_t> expectAgree(const std::vector<uint64_t> &Stream,
                                  const std::string &What) {
  std::vector<uint64_t> Misses;
  for (const Geometry &G : geometries()) {
    CacheModel Model(G.Config);
    ListLru Reference(G.Config);
    for (size_t I = 0; I < Stream.size(); ++I) {
      const bool Hit = Reference.access(Stream[I]);
      if (Model.access(Stream[I]) != Hit) {
        ADD_FAILURE() << What << ", " << G.Name << ": access " << I
                      << " (word " << Stream[I] << ") should "
                      << (Hit ? "hit" : "miss");
        return Misses;
      }
    }
    EXPECT_EQ(Model.accesses(), Stream.size()) << What << ", " << G.Name;
    EXPECT_EQ(Model.misses(), Reference.misses()) << What << ", " << G.Name;
    Misses.push_back(Reference.misses());
  }
  return Misses;
}

/// \p N word addresses from seed \p Seed: a mix of re-touches of recent
/// addresses, short strides and uniform draws over a \p SpanWords span.
std::vector<uint64_t> randomStream(uint64_t Seed, size_t N,
                                   uint64_t SpanWords) {
  std::mt19937_64 Rng(Seed);
  std::vector<uint64_t> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    const unsigned Kind = static_cast<unsigned>(Rng() % 8);
    if (!Out.empty() && Kind < 3)
      Out.push_back(
          Out[Out.size() - 1 - Rng() % std::min<size_t>(Out.size(), 64)]);
    else if (!Out.empty() && Kind < 5)
      Out.push_back((Out.back() + 1 + Rng() % 16) % SpanWords);
    else
      Out.push_back(Rng() % SpanWords);
  }
  return Out;
}

/// Records every load and store address, in program order.
struct AddressRecorder : exec::NoEvents {
  std::vector<uint64_t> *Out;
  void noteLoad(const exec::InstLocation &, uint64_t Addr, uint64_t,
                uint64_t) {
    Out->push_back(Addr);
  }
  void noteStore(uint64_t Addr, uint64_t) { Out->push_back(Addr); }
};

} // namespace

TEST(CacheReferenceTest, SeededRandomStreams) {
  // Spans from inside the trailing L1 (1K words) to 8x the L2 (1M words).
  for (const uint64_t Span : {1u << 10, 1u << 14, 1u << 17, 1u << 20})
    for (const uint64_t Seed : {1u, 2u, 3u}) {
      const std::vector<uint64_t> Misses =
          expectAgree(randomStream(Seed * 977 + Span, 50000, Span),
                      "span " + std::to_string(Span) + ", seed " +
                          std::to_string(Seed));
      for (const uint64_t M : Misses) {
        EXPECT_GT(M, 0u); // every geometry both misses and hits
        EXPECT_LT(M, 50000u);
      }
    }
}

TEST(CacheReferenceTest, SuiteProgramStreams) {
  for (const workload::BenchmarkProfile &Profile :
       workload::suiteProfiles()) {
    const workload::SynthProgram Program =
        workload::synthesize(workload::makeSynthSpecFor(Profile, 400));
    exec::ThreadedBackend Engine(Program.Mod,
                                 std::span(Program.InitialMemory));
    std::vector<uint64_t> Stream;
    AddressRecorder Recorder;
    Recorder.Out = &Stream;
    ASSERT_EQ(Engine.run(~0ull >> 1, Recorder), exec::StopReason::Halted)
        << Profile.Name;
    ASSERT_GT(Stream.size(), 1000u) << Profile.Name;
    const std::vector<uint64_t> Misses = expectAgree(Stream, Profile.Name);
    ASSERT_EQ(Misses.size(), geometries().size()) << Profile.Name;
    EXPECT_GT(Misses.back(), Misses.front())
        << Profile.Name << ": the two-set geometry must evict";
  }
}
