//===- tests/workload/TraceStreamPinTest.cpp ------------------------------===//
//
// Bit-for-bit pins of the trace generator's event streams.  Every suite
// benchmark under both inputs at a reduced scale, one suite benchmark under
// a non-default WorkloadSpec::Seed, and hand-built specs that take the
// paths the suite never does (a fixed gap, gap ranges whose sizes are not
// powers of two, up to the widest range a 16-bit gap holds, a phase with
// no active site, 1 and 16 phases, a single site).  Each stream pins one
// XXH64 digest over every event's site, taken bit, gap, position in the
// stream and instret, chained in event order, and then over the final
// siteExecCounts().  The position is counted here: events stopped storing
// it after the digests were captured, and it is hashed in the word that
// held it, so the digests did not move.
//
// The digests were captured from the generator as it stood before its
// per-event loop was rewritten to draw without division (support/Rng.h's
// BoundedDraw) and to read per-phase slot tables; they pin that the
// rewrite left every stream unchanged.  A mismatch means the generator's
// stream changed, which also invalidates TraceGoldenTest's golden and the
// artifact CSV goldens.
//
//===----------------------------------------------------------------------===//

#include "workload/TraceGenerator.h"

#include "support/Hash.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// The reduced scale of the suite pins: short runs over the default site
/// populations, so the alias tables have their full sizes.
constexpr SuiteScale PinScale{6000.0, 0.25};

/// Chunk sizes the streams are drained at, cycled over the pins; a digest
/// does not depend on the chunking.
constexpr size_t ChunkSizes[] = {DefaultBatchEvents, 1, 7, 1000};

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

/// Generates the whole stream and digests it (see the file header).  Adds
/// the behaviour kinds of the sites that produced events to \p Kinds.
uint64_t streamDigest(const WorkloadSpec &Spec, const InputConfig &In,
                      size_t Chunk, std::set<BehaviorKind> *Kinds = nullptr) {
  TraceGenerator Gen(Spec, In);
  std::vector<BranchEvent> Buffer(Chunk);
  uint64_t Digest = 0;
  uint64_t Events = 0;
  while (const size_t N = Gen.nextBatch(Buffer)) {
    for (size_t I = 0; I < N; ++I) {
      const BranchEvent &E = Buffer[I];
      const uint64_t Words[5] = {E.Site, E.Taken ? 1u : 0u, E.Gap,
                                 Events + I, E.InstRet};
      Digest = hash64(Words, sizeof(Words), Digest);
    }
    Events += N;
  }
  EXPECT_EQ(Events, In.Events);
  const std::vector<uint64_t> &Counts = Gen.siteExecCounts();
  Digest = hash64(Counts.data(), Counts.size() * sizeof(uint64_t), Digest);
  if (Kinds)
    for (SiteId S = 0; S < Spec.numSites(); ++S)
      if (Counts[S] != 0)
        Kinds->insert(Spec.Sites[S].Behavior.Kind);
  return Digest;
}

struct SuitePin {
  const char *Bench;
  uint64_t Train;
  uint64_t Ref;
};

// Captured before the generator rewrite (see the file header).
const SuitePin SuitePins[] = {
    {"bzip2", 0x4bf4f6fc41f23ea6, 0xb0c971be8c0f728b},
    {"crafty", 0xe2b80aa2d0cf92e0, 0x5d5aa2ef1ac3b44d},
    {"eon", 0xf330536a6720eb17, 0x625043d2b03ba358},
    {"gap", 0x669e5376e6634e9f, 0x1d11d855c981ee88},
    {"gcc", 0x50fb0726853cc812, 0x8d139297e389b514},
    {"gzip", 0xebecac70fe9b5c21, 0x105a7faab47dfd4d},
    {"mcf", 0x044dd7d742a32425, 0x4f87d0e05f63b352},
    {"parser", 0x17936a706b2d21fc, 0x609462de7bf9dcef},
    {"perl", 0x7b9e862d41bd543e, 0x3d7400a3004734e2},
    {"twolf", 0xa97dd01d9962aec3, 0xb0b0ad41e010d48c},
    {"vortex", 0x63ccdf04b1113a85, 0xeb515bee48e70f3e},
    {"vpr", 0xce4c81a5384c7b7c, 0xca747dd94593382c},
};

/// One site of every behaviour kind, with changes early enough that the
/// post-change paths (flip, soften decay, induction) run in a short stream.
std::vector<SiteSpec> everyKindSites() {
  std::vector<BehaviorSpec> Behaviors = {
      BehaviorSpec::fixed(0.97),
      BehaviorSpec::flipAt(0.99, 0.02, 300),
      BehaviorSpec::soften(0.995, 0.6, 200, 150),
      BehaviorSpec::inductionFlip(250),
      BehaviorSpec::periodic(0.98, 0.1, 90),
      BehaviorSpec::randomWalk(0.5, 40),
      BehaviorSpec::phaseGroup(0, 0.99, 0.05),
      BehaviorSpec::phaseGroup(1, 0.2, 0.9),
      BehaviorSpec::inputDependent(0.995),
      BehaviorSpec::inputDependent(0.8, 0.3),
      BehaviorSpec::fixed(0.0),
      BehaviorSpec::fixed(1.0),
  };
  std::vector<SiteSpec> Sites;
  for (size_t I = 0; I < Behaviors.size(); ++I) {
    SiteSpec S;
    S.Behavior = Behaviors[I];
    S.Weight = 1.0 + static_cast<double>(I % 5);
    Sites.push_back(S);
  }
  return Sites;
}

WorkloadSpec handSpec(const char *Name, unsigned Phases, unsigned MinGap,
                      unsigned MaxGap) {
  WorkloadSpec Spec;
  Spec.Name = Name;
  Spec.Seed = 0x5EED0001;
  Spec.RefEvents = 40000;
  Spec.TrainEvents = 25001;
  Spec.NumPhases = Phases;
  Spec.MinGap = MinGap;
  Spec.MaxGap = MaxGap;
  Spec.Sites = everyKindSites();
  Spec.GroupOn = {std::vector<bool>(Phases), std::vector<bool>(Phases)};
  for (unsigned P = 0; P < Phases; ++P) {
    Spec.GroupOn[0][P] = P % 2 == 0;
    Spec.GroupOn[1][P] = P % 3 == 1;
  }
  return Spec;
}

struct HandPin {
  const char *Name;
  WorkloadSpec (*Make)();
  uint64_t Train;
  uint64_t Ref;
};

// Captured before the generator rewrite (see the file header).
const HandPin HandPins[] = {
    {"fixed-gap", [] { return handSpec("fixed-gap", 8, 4, 4); },
     0x7e3b78559eacc3fb, 0x7610f0b78b56f897},
    {"gap-range-7", [] { return handSpec("gap-range-7", 8, 3, 9); },
     0x8d990373b8004d53, 0xbefbdef05ab38d07},
    // The widest gap range an event's 16-bit gap holds (a wider one fails
    // WorkloadSpec::validate).  Captured later than the other pins, from
    // the generator as it stood just before events narrowed their gap to
    // 16 bits.
    {"gap-range-widest",
     [] { return handSpec("gap-range-widest", 4, 1, 65535); },
     0x61ccd634f8523e11, 0x616dccda123e0a1a},
    {"one-phase", [] { return handSpec("one-phase", 1, 1, 8); },
     0x7693ce42b67fa03c, 0x615bf1f25f71bf0b},
    {"sixteen-phases", [] { return handSpec("sixteen-phases", 16, 2, 6); },
     0x62cb23aeec4c7533, 0x814ab3f37d6b0335},
    {"empty-phase",
     [] {
       // No site runs in phase 2 (and the input-gated site may never
       // run): that phase samples the whole site table.
       WorkloadSpec Spec = handSpec("empty-phase", 4, 1, 8);
       for (SiteSpec &S : Spec.Sites)
         S.PhaseMask = 0xFFFF & ~(1u << 2);
       Spec.Sites[3].InputGated = true;
       return Spec;
     },
     0x93e419d9534027ad, 0xf3fc6125fdeb6f4a},
    {"single-site",
     [] {
       WorkloadSpec Spec = handSpec("single-site", 8, 1, 8);
       Spec.Sites.resize(1);
       Spec.Sites[0].Behavior = BehaviorSpec::fixed(0.9);
       return Spec;
     },
     0xcefc4f81c1ab8f2e, 0x4d8edbf085ee94a5},
    {"single-walk-site",
     [] {
       WorkloadSpec Spec = handSpec("single-walk-site", 3, 1, 2);
       Spec.Sites.resize(1);
       Spec.Sites[0].Behavior = BehaviorSpec::randomWalk(0.3, 25);
       return Spec;
     },
     0xdb46041dc511171e, 0xc084874fb35f20cb},
};

} // namespace

TEST(TraceStreamPinTest, SuiteStreamsMatchPins) {
  std::set<BehaviorKind> Kinds;
  size_t Pin = 0;
  for (const SuitePin &P : SuitePins) {
    const WorkloadSpec Spec = makeBenchmark(P.Bench, PinScale);
    const size_t ChunkA = ChunkSizes[Pin++ % std::size(ChunkSizes)];
    const size_t ChunkB = ChunkSizes[Pin++ % std::size(ChunkSizes)];
    EXPECT_EQ(hex(streamDigest(Spec, Spec.trainInput(), ChunkA, &Kinds)),
              hex(P.Train))
        << P.Bench << "/train";
    EXPECT_EQ(hex(streamDigest(Spec, Spec.refInput(), ChunkB, &Kinds)),
              hex(P.Ref))
        << P.Bench << "/ref";
  }
  // The pinned streams exercise every behaviour model.
  EXPECT_EQ(Kinds.size(), 8u);
}

TEST(TraceStreamPinTest, NonDefaultWorkloadSeedMatchesPin) {
  WorkloadSpec Spec = makeBenchmark("mcf", PinScale);
  Spec.Seed = 0xC0FFEE;
  EXPECT_EQ(hex(streamDigest(Spec, Spec.refInput(), 333)),
            hex(0xdb0fa17b7ad0cf29));
}

TEST(TraceStreamPinTest, HandBuiltStreamsMatchPins) {
  for (const HandPin &P : HandPins) {
    const WorkloadSpec Spec = P.Make();
    EXPECT_EQ(hex(streamDigest(Spec, Spec.trainInput(), 4096)), hex(P.Train))
        << P.Name << "/train";
    EXPECT_EQ(hex(streamDigest(Spec, Spec.refInput(), 129)), hex(P.Ref))
        << P.Name << "/ref";
  }
}
