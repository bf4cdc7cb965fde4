//===- workload/TraceFile.cpp - SCT2 trace record/replay ------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/TraceFile.h"

#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <new>
#include <ostream>
#include <streambuf>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

constexpr char Magic[4] = {'S', 'C', 'T', '2'};

/// Worst-case encoded bytes per event: 5-byte site-delta varint + the
/// packed taken/gap byte.
constexpr size_t MaxEventBytes = 6;

/// Largest BlockEvents a header may declare.
constexpr uint32_t MaxBlockEvents = 1u << 20;

void putU32(std::ostream &OS, uint32_t V) {
  // Little-endian, explicitly, so traces are portable.
  const char Bytes[4] = {
      static_cast<char>(V & 0xFF), static_cast<char>((V >> 8) & 0xFF),
      static_cast<char>((V >> 16) & 0xFF),
      static_cast<char>((V >> 24) & 0xFF)};
  OS.write(Bytes, 4);
}

void putU64(std::ostream &OS, uint64_t V) {
  putU32(OS, static_cast<uint32_t>(V & 0xFFFFFFFFu));
  putU32(OS, static_cast<uint32_t>(V >> 32));
}

uint32_t loadU32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

uint64_t loadU64(const uint8_t *P) {
  return static_cast<uint64_t>(loadU32(P)) |
         (static_cast<uint64_t>(loadU32(P + 4)) << 32);
}

uint32_t zigzag(int64_t V) {
  return static_cast<uint32_t>((V << 1) ^ (V >> 63));
}

int64_t unzigzag(uint32_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

} // namespace

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

TraceWriterV2::TraceWriterV2(std::ostream &OS, uint32_t NumSites,
                             uint64_t TotalEvents, uint32_t MinGap,
                             uint32_t MaxGap, uint32_t BlockEvents)
    : OS(OS), BlockEvents(BlockEvents ? BlockEvents : TraceV2BlockEvents) {
  OS.write(Magic, 4);
  putU32(OS, NumSites);
  putU64(OS, TotalEvents);
  putU32(OS, MinGap);
  putU32(OS, MaxGap);
  putU32(OS, this->BlockEvents);
  // Sized for the worst-case block up front so append() can emit through a
  // raw pointer with no per-byte capacity checks.
  Payload.resize(static_cast<size_t>(this->BlockEvents) * MaxEventBytes);
}

void TraceWriterV2::flushBlock() {
  if (BlockCount == 0)
    return;
  putU32(OS, BlockCount);
  putU32(OS, static_cast<uint32_t>(PayloadBytes));
  putU64(OS, hash64(Payload.data(), PayloadBytes));
  OS.write(reinterpret_cast<const char *>(Payload.data()),
           static_cast<std::streamsize>(PayloadBytes));
  Written += BlockCount;
  BlockCount = 0;
  PrevSite = 0;
  PayloadBytes = 0;
}

bool TraceWriterV2::append(std::span<const BranchEvent> Events) {
  if (!Ok)
    return false;
  uint8_t *const Base = Payload.data();
  uint8_t *P = Base + PayloadBytes;
  uint32_t Prev = PrevSite;
  uint32_t Count = BlockCount;
  for (const BranchEvent &E : Events) {
    if (E.Site > TraceFileLimits::MaxSite ||
        E.Gap > TraceFileLimits::MaxGap) {
      Ok = false;
      return false;
    }
    uint32_t V = zigzag(static_cast<int64_t>(E.Site) -
                        static_cast<int64_t>(Prev));
    while (V >= 0x80) {
      *P++ = static_cast<uint8_t>(V) | 0x80;
      V >>= 7;
    }
    *P++ = static_cast<uint8_t>(V);
    *P++ = static_cast<uint8_t>((static_cast<uint8_t>(E.Taken) << 7) | E.Gap);
    Prev = E.Site;
    if (++Count == BlockEvents) {
      PayloadBytes = static_cast<size_t>(P - Base);
      BlockCount = Count;
      flushBlock();
      P = Base;
      Prev = 0;
      Count = 0;
    }
  }
  PayloadBytes = static_cast<size_t>(P - Base);
  BlockCount = Count;
  PrevSite = Prev;
  Ok = OS.good();
  return Ok;
}

bool TraceWriterV2::finish() {
  if (!Ok)
    return false;
  flushBlock();
  Ok = OS.good();
  return Ok;
}

uint64_t workload::writeTraceV2(std::ostream &OS, TraceGenerator &Gen,
                                uint32_t BlockEvents) {
  TraceWriterV2 Writer(OS, Gen.spec().numSites(),
                       Gen.totalEvents() - Gen.eventsGenerated(),
                       Gen.spec().MinGap, Gen.spec().MaxGap, BlockEvents);
  std::vector<BranchEvent> Chunk(BlockEvents ? BlockEvents
                                             : TraceV2BlockEvents);
  while (const size_t N = Gen.nextBatch(Chunk))
    if (!Writer.append(std::span<const BranchEvent>(Chunk.data(), N)))
      return 0;
  return Writer.finish() ? Writer.eventsWritten() : 0;
}

//===----------------------------------------------------------------------===//
// Block payload decoding
//===----------------------------------------------------------------------===//

namespace {

/// The event of \p Site and its packed taken/gap byte, built whole so
/// each decoder writes it with one store; advances the running
/// instruction count \p Inst past the gap and the branch.
inline BranchEvent unpackEvent(uint32_t Site, uint32_t Packed,
                               uint64_t &Inst) {
  const uint16_t Gap = static_cast<uint16_t>(Packed & 0x7F);
  Inst += Gap + 1u;
  return BranchEvent{Site, (Packed >> 7) != 0, Gap, Inst};
}

/// The checked decode loop: every bound and range validated, the
/// instruction count committed only on whole-block success (untrusted
/// input, on its first touch).
///
/// Site arithmetic is done in uint32 like the trusted path: sites are
/// < 2^24 and |unzigzag delta| <= 2^31, so a negative or overflowing
/// int64 site can never wrap back into [0, NumSites) -- the single
/// unsigned compare is exactly equivalent to the signed range pair.
bool decodeBlockChecked(const uint8_t *P, const uint8_t *End,
                        uint32_t EventCount, uint32_t NumSites,
                        uint64_t &InstRet, BranchEvent *Out) {
  uint64_t Inst = InstRet;
  uint32_t PrevSite = 0;
  for (uint32_t I = 0; I < EventCount; ++I) {
    // Shortest event: one varint byte + the packed taken/gap byte.
    if (End - P < 2)
      return false;
    uint32_t Byte = *P++;
    uint32_t Delta = Byte & 0x7F;
    if (Byte & 0x80) {
      unsigned Shift = 7;
      do {
        if (P == End || Shift >= 35)
          return false;
        Byte = *P++;
        Delta |= (Byte & 0x7F) << Shift;
        Shift += 7;
      } while (Byte & 0x80);
      if (P == End) // the packed byte must still follow
        return false;
    }
    const uint32_t Site =
        PrevSite + static_cast<uint32_t>(unzigzag(Delta));
    if (Site >= NumSites)
      return false;
    Out[I] = unpackEvent(Site, *P++, Inst);
    PrevSite = Site;
  }
  if (P != End)
    return false;
  InstRet = Inst;
  return true;
}

/// One trusted event at \p P; returns the byte after it.  The scalar step
/// shared by the SWAR tail and the SWAR rare-continuation path.
///
/// Branchless 1/2-byte fast path.  Both loads are always in bounds: a
/// one-byte varint is followed by the packed byte, so P[1] exists either
/// way.  Wide-site workloads alternate varint lengths event to event,
/// which the predictor cannot learn -- masking the second byte in
/// unconditionally beats a mispredicting length branch.
inline const uint8_t *decodeOneTrusted(const uint8_t *P, uint32_t &PrevSite,
                                       uint64_t &Inst, BranchEvent &E) {
  const uint32_t B0 = P[0];
  const uint32_t B1 = P[1];
  const uint32_t More = B0 >> 7;
  uint32_t Delta = (B0 & 0x7F) | (((B1 & 0x7F) << 7) & (0u - More));
  P += 1 + More;
  if (More & (B1 >> 7)) { // rare >= 3-byte continuation
    unsigned Shift = 14;
    uint32_t Byte;
    do {
      Byte = *P++;
      Delta |= (Byte & 0x7F) << Shift;
      Shift += 7;
    } while (Byte & 0x80);
  }
  const uint32_t Site = PrevSite + static_cast<uint32_t>(unzigzag(Delta));
  E = unpackEvent(Site, *P++, Inst);
  PrevSite = Site;
  return P;
}

/// Unaligned little-endian 8-byte load (byte-swapped on big-endian hosts
/// so the SWAR lane math below is endian-independent).
inline uint64_t load64le(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) &&                \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap64(V);
#endif
  return V;
}

} // namespace

bool workload::decodeTraceBlockPayload(const uint8_t *Payload,
                                       size_t PayloadBytes,
                                       uint32_t EventCount, uint32_t NumSites,
                                       uint64_t &InstRet, BranchEvent *Out) {
  return decodeBlockChecked(Payload, Payload + PayloadBytes, EventCount,
                            NumSites, InstRet, Out);
}

void workload::decodeTraceBlockPayloadTrusted(const uint8_t *Payload,
                                              size_t PayloadBytes,
                                              uint32_t EventCount,
                                              uint64_t &InstRet,
                                              BranchEvent *Out) {
  const uint8_t *P = Payload;
  const uint8_t *const End = Payload + PayloadBytes;
  uint64_t Inst = InstRet;
  uint32_t PrevSite = 0;
  uint32_t I = 0;
  // SWAR batch loop: one 8-byte load holding four complete 1-byte-varint
  // events (varint starts at byte offsets 0/2/4/6; the mask tests exactly
  // their continuation bits, never the packed bytes' taken bits, and
  // fails the moment any varint spills, so the lane layout below always
  // holds).  Every lane shift is a constant and the pointer advances by a
  // constant 8, so consecutive loads pipeline instead of waiting on the
  // previous iteration's length computation -- this is where the SWAR
  // decoder earns its speedup on the Zipf-clustered suite traces, where
  // almost every site delta fits one varint byte.  A quad miss (a wide
  // delta somewhere in the window) decodes a single event through the
  // branchless scalar step and re-tests.  The >= 16-byte guard keeps the
  // wide load -- and that scalar step -- strictly inside the payload,
  // which matters for mmap'd blocks decoded in place: bytes past the
  // payload may be beyond the mapping.
  while (I + 4 <= EventCount && End - P >= 16) {
    const uint64_t W = load64le(P);
    if ((W & 0x0080008000800080ull) == 0) {
      const uint32_t S0 =
          PrevSite + static_cast<uint32_t>(
                         unzigzag(static_cast<uint32_t>(W) & 0x7F));
      const uint32_t S1 =
          S0 + static_cast<uint32_t>(
                   unzigzag(static_cast<uint32_t>(W >> 16) & 0x7F));
      const uint32_t S2 =
          S1 + static_cast<uint32_t>(
                   unzigzag(static_cast<uint32_t>(W >> 32) & 0x7F));
      const uint32_t S3 =
          S2 + static_cast<uint32_t>(
                   unzigzag(static_cast<uint32_t>(W >> 48) & 0x7F));
      Out[I] = unpackEvent(S0, static_cast<uint32_t>(W >> 8) & 0xFF, Inst);
      Out[I + 1] =
          unpackEvent(S1, static_cast<uint32_t>(W >> 24) & 0xFF, Inst);
      Out[I + 2] =
          unpackEvent(S2, static_cast<uint32_t>(W >> 40) & 0xFF, Inst);
      Out[I + 3] =
          unpackEvent(S3, static_cast<uint32_t>(W >> 56) & 0xFF, Inst);
      PrevSite = S3;
      P += 8;
      I += 4;
      continue;
    }
    // Quad miss: a multi-byte varint somewhere in the window.  One scalar
    // event (it knows the continuation encoding) and re-test -- on
    // wide-site traces this degenerates to the scalar decoder's speed
    // rather than paying a variable-shift lane extraction that is slower
    // than the scalar step on every tested host.
    P = decodeOneTrusted(P, PrevSite, Inst, Out[I]);
    ++I;
  }
  // Scalar tail: the final events the 16-byte guard excluded.
  for (; I < EventCount; ++I)
    P = decodeOneTrusted(P, PrevSite, Inst, Out[I]);
  InstRet = Inst;
}

//===----------------------------------------------------------------------===//
// MaterializedTrace
//===----------------------------------------------------------------------===//

namespace {

/// The host's page size, the unit of every mapping and of the advice.
uint64_t pageBytes() {
  static const uint64_t Page = [] {
#ifdef _SC_PAGESIZE
    if (const long P = ::sysconf(_SC_PAGESIZE); P > 0)
      return static_cast<uint64_t>(P);
#endif
    return uint64_t{4096};
  }();
  return Page;
}

uint64_t pageCeil(uint64_t Bytes) {
  return (Bytes + pageBytes() - 1) / pageBytes() * pageBytes();
}

/// An ostream sink over a fixed buffer, so the writer encodes straight
/// into a trace's own mapping with no intermediate copy.  A write past the
/// end fails the stream (the default overflow), and with it the writer.
class FixedBuf final : public std::streambuf {
public:
  FixedBuf(uint8_t *Begin, size_t Len) {
    char *const B = reinterpret_cast<char *>(Begin);
    setp(B, B + Len);
  }
  size_t written() const { return static_cast<size_t>(pptr() - pbase()); }
};

} // namespace

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::record(TraceGenerator &Gen) {
  const uint64_t Events = Gen.totalEvents() - Gen.eventsGenerated();
  // Reserve the SCT2 worst case -- the header, one frame per block and
  // MaxEventBytes per event -- so the writer never outgrows the mapping.
  // MAP_NORESERVE commits pages only as the writer reaches them, and the
  // whole pages past the last block are unmapped once it finishes.  Under
  // strict overcommit (vm.overcommit_memory = 2) the kernel ignores
  // MAP_NORESERVE and charges the whole reservation, ~3x the encoded
  // size, until that trim.
  const uint64_t Reserve =
      TraceV2HeaderBytes +
      (Events + TraceV2BlockEvents - 1) / TraceV2BlockEvents *
          TraceV2FrameBytes +
      Events * MaxEventBytes;
  auto Trace = std::shared_ptr<MaterializedTrace>(new MaterializedTrace());
  void *Map = ::mmap(nullptr, static_cast<size_t>(Reserve),
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Map == MAP_FAILED)
    throw std::bad_alloc();
  Trace->Base = static_cast<const uint8_t *>(Map);
  Trace->Len = static_cast<size_t>(Reserve);
  Trace->Owner = BytesOwner::Anonymous; // unmapped by the destructor

  FixedBuf Buf(static_cast<uint8_t *>(Map), Trace->Len);
  {
    std::ostream OS(&Buf);
    if (writeTraceV2(OS, Gen) != Events)
      return nullptr; // beyond the format limits
  }
  Trace->Len = Buf.written();
  if (const uint64_t Used = pageCeil(Trace->Len); Used < Reserve)
    ::munmap(static_cast<uint8_t *>(Map) + Used,
             static_cast<size_t>(Reserve - Used));
  std::string Reason;
  [[maybe_unused]] const bool Indexed = Trace->index(Reason);
  assert(Indexed && "freshly written SCT2 bytes failed to index");
  // The writer enforced every limit: these blocks are trusted.
  for (size_t B = 0; B < Trace->numBlocks(); ++B)
    Trace->setVerified(B);
  return Trace;
}

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::fromBytes(std::vector<uint8_t> Bytes, std::string *Error) {
  auto Trace = std::shared_ptr<MaterializedTrace>(new MaterializedTrace());
  Trace->Owned = std::move(Bytes);
  Trace->Base = Trace->Owned.data();
  Trace->Len = Trace->Owned.size();
  std::string Reason;
  if (!Trace->index(Reason)) {
    if (Error)
      *Error = Reason;
    return nullptr;
  }
  return Trace;
}

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::mapFile(const std::string &Path, std::string *Error) {
  const auto Fail = [&](const std::string &Reason) {
    if (Error)
      *Error = "'" + Path + "': " + Reason;
    return std::shared_ptr<const MaterializedTrace>();
  };
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return Fail(std::string("cannot open: ") + std::strerror(errno));
  struct stat St{};
  if (::fstat(Fd, &St) != 0) {
    const int Errno = errno;
    ::close(Fd);
    return Fail(std::string("cannot stat: ") + std::strerror(Errno));
  }
  const size_t Len = static_cast<size_t>(St.st_size);
  if (Len < TraceV2HeaderBytes) {
    ::close(Fd);
    return Fail("too small for an SCT2 header");
  }
  void *Map = ::mmap(nullptr, Len, PROT_READ, MAP_SHARED, Fd, 0);
  const int Errno = errno;
  ::close(Fd); // the mapping keeps its own reference
  if (Map == MAP_FAILED)
    return Fail(std::string("cannot mmap: ") + std::strerror(Errno));

  auto Trace = std::shared_ptr<MaterializedTrace>(new MaterializedTrace());
  Trace->Base = static_cast<const uint8_t *>(Map);
  Trace->Len = Len;
  Trace->Owner = BytesOwner::File; // unmapped by the destructor from here on
  std::string Reason;
  if (!Trace->index(Reason))
    return Fail(Reason);
  return Trace;
}

MaterializedTrace::~MaterializedTrace() {
  // munmap covers every page that holds a byte of [Base, Base + Len).
  if (Owner != BytesOwner::Vector)
    ::munmap(const_cast<uint8_t *>(Base), // NOLINT
             Len);
}

bool MaterializedTrace::index(std::string &Error) {
  if (Len < TraceV2HeaderBytes || std::memcmp(Base, Magic, 4) != 0) {
    Error = "not an SCT2 trace";
    return false;
  }
  NumSites = loadU32(Base + 4);
  TotalEvents = loadU64(Base + 8);
  MinGap = loadU32(Base + 16);
  MaxGap = loadU32(Base + 20);
  const uint32_t BlockEvents = loadU32(Base + 24);
  if (BlockEvents == 0 || BlockEvents > MaxBlockEvents) {
    Error = "malformed SCT2 header";
    return false;
  }

  // Structural walk: frame bounds and event accounting.  No payload byte
  // is read (that happens per block on first touch), so indexing a
  // mapping faults only the pages its frames sit on, and those are
  // dropped every few MB so the open-time resident set stays bounded too.
  Blocks.reserve(static_cast<size_t>(
      std::min<uint64_t>(TotalEvents / BlockEvents, Len / TraceV2FrameBytes) +
      1));
  uint64_t Indexed = 0;
  uint64_t Pos = TraceV2HeaderBytes;
  uint64_t Dropped = 0;
  while (Pos < Len) {
    if (Pos - Dropped >= (1u << 22))
      dropBehind(Dropped, Pos);
    if (Len - Pos < TraceV2FrameBytes) {
      Error = "truncated SCT2 block frame";
      return false;
    }
    const uint32_t Events = loadU32(Base + Pos);
    const uint32_t PayloadBytes = loadU32(Base + Pos + 4);
    const uint64_t PayloadOffset = Pos + TraceV2FrameBytes;
    if (PayloadBytes > Len - PayloadOffset) {
      Error = "truncated SCT2 block payload";
      return false;
    }
    Pos = PayloadOffset + PayloadBytes;
    if (Events == 0) {
      // Every block holds events, so a real block whose event count
      // flipped to zero is rejected, never skipped.  So is every file of
      // the retired page-aligned layout, whose pad frames held none.
      Error = "malformed SCT2 block frame: zero events (the page-aligned "
              "layout is no longer read)";
      return false;
    }
    if (Events > BlockEvents || Events > TotalEvents - Indexed ||
        PayloadBytes < 2 * static_cast<uint64_t>(Events) ||
        PayloadBytes > MaxEventBytes * static_cast<uint64_t>(Events)) {
      Error = "malformed SCT2 block header";
      return false;
    }
    Blocks.push_back({PayloadOffset, PayloadBytes, Events});
    Indexed += Events;
  }
  if (Indexed != TotalEvents) {
    Error = "SCT2 trace is missing events (truncated)";
    return false;
  }
  Verified = std::unique_ptr<std::atomic<uint8_t>[]>(
      new std::atomic<uint8_t>[(Blocks.size() + 7) / 8 + 1]());
  // An opened mapping holds only its index resident until a cursor reads.
  dropBehind(Dropped, Len);
  return true;
}

double MaterializedTrace::compressionVsV1() const {
  const uint64_t Encoded = encodedBlockBytes();
  return Encoded ? 4.0 * static_cast<double>(TotalEvents) /
                       static_cast<double>(Encoded)
                 : 0.0;
}

bool MaterializedTrace::decodeBlock(size_t B, uint64_t &InstRet,
                                    BranchEvent *Out,
                                    std::string &Error) const {
  const Block &Ref = Blocks[B];
  const uint8_t *Payload = Base + Ref.PayloadOffset;
  if (isVerified(B)) {
    decodeTraceBlockPayloadTrusted(Payload, Ref.PayloadBytes, Ref.Events,
                                   InstRet, Out);
    return true;
  }
  // First touch of untrusted bytes: checksum, then the checked decoder
  // -- which commits the instruction count only on success, so a rejected
  // block delivers nothing.
  if (hash64(Payload, Ref.PayloadBytes) != loadU64(Payload - 8)) {
    Error = "trace block checksum mismatch (corrupt or tampered trace)";
    return false;
  }
  if (!decodeTraceBlockPayload(Payload, Ref.PayloadBytes, Ref.Events,
                               NumSites, InstRet, Out)) {
    Error = "malformed event encoding in trace block";
    return false;
  }
  setVerified(B);
  return true;
}

bool MaterializedTrace::fullyVerified() const {
  for (size_t B = 0; B < Blocks.size(); ++B)
    if (!isVerified(B))
      return false;
  return true;
}

// Advice is best-effort by definition: madvise errors are ignored.

void MaterializedTrace::prefetch(uint64_t Begin, uint64_t End) const {
  if (!mapped())
    return;
  // Round out to whole pages: over-advising is harmless.
  const uint64_t B = Begin / pageBytes() * pageBytes();
  const uint64_t E = pageCeil(std::min<uint64_t>(End, Len));
  if (B < E)
    ::madvise(const_cast<uint8_t *>(Base) + B, // NOLINT
              static_cast<size_t>(E - B), MADV_WILLNEED);
}

void MaterializedTrace::dropBehind(uint64_t &Mark, uint64_t Upto) const {
  const uint64_t Floor = Upto / pageBytes() * pageBytes();
  if (Floor <= Mark)
    return;
  if (mapped())
    ::madvise(const_cast<uint8_t *>(Base) + Mark, // NOLINT
              static_cast<size_t>(Floor - Mark), MADV_DONTNEED);
  Mark = Floor;
}

//===----------------------------------------------------------------------===//
// TraceCursor
//===----------------------------------------------------------------------===//

TraceCursor::TraceCursor(std::shared_ptr<const MaterializedTrace> Trace)
    : Trace(std::move(Trace)) {
  assert(this->Trace && "cursor needs a trace");
}

void TraceCursor::reset() {
  NextBlock = 0;
  InstRet = 0;
  Error.clear();
  Staged.clear();
  StagedPos = 0;
  DroppedBelow = 0;
}

void TraceCursor::adviseAround(size_t B) {
  const std::span<const MaterializedTrace::Block> Blocks = Trace->blocks();
  // Read ahead: the next few blocks the cursor will decode.
  const size_t AheadFirst = B + 1;
  if (AheadFirst < Blocks.size()) {
    const size_t AheadLast =
        std::min(AheadFirst + PrefetchAheadBlocks, Blocks.size()) - 1;
    Trace->prefetch(Blocks[AheadFirst].PayloadOffset - TraceV2FrameBytes,
                    Blocks[AheadLast].PayloadOffset +
                        Blocks[AheadLast].PayloadBytes);
  }
  // Drop behind: pages fully below the retain window are done for this
  // cursor.  The page the window's first frame starts on survives until
  // the window moves past it; another cursor that still needs a dropped
  // page just refaults it from the page cache or disk.
  if (B > RetainBehindBlocks) {
    const MaterializedTrace::Block &Keep = Blocks[B - RetainBehindBlocks];
    Trace->dropBehind(DroppedBelow, Keep.PayloadOffset - TraceV2FrameBytes);
  }
}

bool TraceCursor::decodeBlock(size_t B, BranchEvent *Out) {
  if (!Trace->decodeBlock(B, InstRet, Out, Error))
    return false;
  if (Trace->mapped())
    adviseAround(B);
  return true;
}

size_t TraceCursor::nextBatch(std::span<BranchEvent> Buffer) {
  if (failed())
    return 0;
  const size_t NumBlocks = Trace->numBlocks();
  size_t Filled = 0;
  while (Filled < Buffer.size()) {
    // Drain any partially-consumed staged block first.
    if (StagedPos < Staged.size()) {
      const size_t Take =
          std::min(Buffer.size() - Filled, Staged.size() - StagedPos);
      std::memcpy(Buffer.data() + Filled, Staged.data() + StagedPos,
                  Take * sizeof(BranchEvent));
      StagedPos += Take;
      Filled += Take;
      continue;
    }
    if (NextBlock >= NumBlocks)
      break;
    const uint32_t BlockN = Trace->blocks()[NextBlock].Events;
    if (Buffer.size() - Filled >= BlockN) {
      // The zero-copy fast path: decode the whole block straight into the
      // caller's buffer (the common case when the driver's chunk size
      // matches the block size).
      if (!decodeBlock(NextBlock, Buffer.data() + Filled))
        break;
      Filled += BlockN;
    } else {
      Staged.resize(BlockN);
      StagedPos = 0;
      if (!decodeBlock(NextBlock, Staged.data())) {
        Staged.clear();
        break;
      }
    }
    ++NextBlock;
  }
  return Filled;
}
