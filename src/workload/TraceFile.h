//===- workload/TraceFile.h - SCT2 trace record/replay ----------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compact binary recording and replay of branch-event traces, the
/// real-system workflow of trace-driven studies: record a run once, then
/// replay it against any number of controller configurations without
/// paying generation cost (or needing the workload's seeds at all).
///
/// The on-disk format, "SCT2": a 28-byte header (magic, site count, event
/// count, min/max gap, block-events count) followed by independently
/// decodable blocks.  Each block frames up to BlockEvents events as
/// {u32 event count, u32 payload bytes, u64 XXH64 payload checksum,
/// payload}; the payload stores one event as a zigzag-varint site delta
/// (from the previous event in the block) plus a packed taken/gap byte.
/// The cumulative instruction count (InstRet) is reconstructed from the
/// gaps during replay, so a replayed stream is bit-identical to the
/// recorded one.
///
/// Replay has one reader: a MaterializedTrace (the bytes plus one block
/// index) and any number of TraceCursor event sources over it.  Bytes the
/// writer produced in this process are trusted; bytes from anywhere else
/// (a file, a mapping, a caller's buffer) are checksummed and decoded with
/// the checked decoder the first time each block is read, so a corrupt
/// block is rejected whole: no event of a bad block is ever delivered.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_TRACEFILE_H
#define SPECCTRL_WORKLOAD_TRACEFILE_H

#include "workload/TraceGenerator.h"

#include <atomic>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace specctrl {
namespace workload {

/// Hard limits of the on-disk format.
struct TraceFileLimits {
  static constexpr uint32_t MaxSite = (1u << 24) - 1;
  static constexpr uint32_t MaxGap = (1u << 7) - 1;
};

/// Default events per block (matches the pipeline's chunk size so one
/// block decode fills one arena buffer: 4096 events of 16 B, 64 KiB).
inline constexpr uint32_t TraceV2BlockEvents = 4096;

/// SCT2 fixed-layout sizes.
/// Header: magic + sites + total events + min/max gap + block events.
inline constexpr size_t TraceV2HeaderBytes = 4 + 4 + 8 + 4 + 4 + 4;
/// Per-block frame: event count + payload bytes + XXH64 checksum.
inline constexpr size_t TraceV2FrameBytes = 4 + 4 + 8;

/// Decodes one block payload of \p EventCount events into \p Out
/// (capacity >= EventCount), reconstructing InstRet from the running
/// instruction count \p InstRet, which is committed only when the whole
/// block decodes cleanly.  Returns false on malformed encoding,
/// out-of-range site, or trailing payload bytes: the all-or-nothing block
/// contract for untrusted bytes.
bool decodeTraceBlockPayload(const uint8_t *Payload, size_t PayloadBytes,
                             uint32_t EventCount, uint32_t NumSites,
                             uint64_t &InstRet, BranchEvent *Out);

/// Validation-free variant of decodeTraceBlockPayload for payloads already
/// proven well-formed (written in this process, or verified by the checked
/// decoder on first touch).  Same event reconstruction, no bounds or range
/// checks, cannot fail; the payload size only delimits the encoded bytes
/// and is never re-validated.  Implementation is the SWAR batch decoder:
/// four events per 8-byte load on the 1-byte varint fast path, falling
/// back to a scalar step per event when a wide site delta breaks the lane
/// layout.
void decodeTraceBlockPayloadTrusted(const uint8_t *Payload,
                                    size_t PayloadBytes, uint32_t EventCount,
                                    uint64_t &InstRet, BranchEvent *Out);

/// Streaming SCT2 writer: construct with the header facts, append event
/// chunks (any chunking -- block framing is internal), then finish().
/// Block frames follow one another with no gap between them.
class TraceWriterV2 {
public:
  TraceWriterV2(std::ostream &OS, uint32_t NumSites, uint64_t TotalEvents,
                uint32_t MinGap, uint32_t MaxGap,
                uint32_t BlockEvents = TraceV2BlockEvents);

  /// Appends events to the current block, flushing full blocks.  Returns
  /// false if an event exceeded format limits or the stream went bad.
  bool append(std::span<const BranchEvent> Events);

  /// Flushes the final partial block.  Returns overall success.
  bool finish();

  uint64_t eventsWritten() const { return Written; }

private:
  void flushBlock();

  std::ostream &OS;
  uint32_t BlockEvents;
  std::vector<uint8_t> Payload;   ///< worst-case-sized block encode buffer
  size_t PayloadBytes = 0;        ///< encoded bytes in the current block
  uint32_t BlockCount = 0;        ///< events in the current block
  uint32_t PrevSite = 0;          ///< delta base within the current block
  uint64_t Written = 0;
  bool Ok = true;
};

/// Drains \p Gen to \p OS in SCT2 format via the batched generator path.
/// Returns events written, or 0 on failure.
uint64_t writeTraceV2(std::ostream &OS, TraceGenerator &Gen,
                      uint32_t BlockEvents = TraceV2BlockEvents);

/// One immutable SCT2 trace: its bytes, one structural block index built
/// when the trace is opened, and one verified bit per block.  Shared
/// (shared_ptr) by any number of TraceCursors, in any number of threads.
///
/// The bytes have one of three owners.  record() encodes into an anonymous
/// mapping the trace owns, so the pages of a released trace go back to
/// the OS when its last owner drops it, whatever its size (a malloc'd
/// buffer below glibc's mmap threshold would stay in the process's heap).
/// fromBytes() adopts the caller's vector, and mapFile() maps a file
/// read-only.  Replay advises the kernel (read-ahead, drop-behind) over a
/// file mapping only: dropped file pages refault from the page cache,
/// while dropped anonymous pages would read back as zeros.
///
/// Blocks written by record() start verified and always replay through the
/// SWAR decoder.  Blocks of fromBytes()/mapFile() traces start unverified:
/// the first read of each checksums it and decodes it with the checked
/// decoder, and only then flips its bit.  Opening never reads a payload,
/// so a truncated or misframed trace is rejected at open while a corrupt
/// payload is rejected when its block is first read.
class MaterializedTrace {
public:
  /// One block of the index.
  struct Block {
    uint64_t PayloadOffset = 0; ///< payload start within the bytes
    uint32_t PayloadBytes = 0;  ///< encoded payload size
    uint32_t Events = 0;        ///< events in this block
  };

  /// Encodes the rest of \p Gen's stream straight into the trace's own
  /// anonymous mapping (trusted: every block starts verified).  Returns
  /// nullptr when an event exceeds the format limits; throws
  /// std::bad_alloc when the mapping cannot be made.
  static std::shared_ptr<const MaterializedTrace> record(TraceGenerator &Gen);

  /// Adopts a caller's SCT2 bytes (untrusted).  Returns nullptr on a bad
  /// header or a truncated or misframed trace, with the reason in
  /// \p Error when non-null.
  static std::shared_ptr<const MaterializedTrace>
  fromBytes(std::vector<uint8_t> Bytes, std::string *Error = nullptr);

  /// Maps the SCT2 file at \p Path read-only (untrusted).  Returns nullptr
  /// when the file cannot be mapped or indexed, with a reason naming the
  /// path in \p Error when non-null.
  static std::shared_ptr<const MaterializedTrace>
  mapFile(const std::string &Path, std::string *Error = nullptr);

  ~MaterializedTrace();
  MaterializedTrace(const MaterializedTrace &) = delete;
  MaterializedTrace &operator=(const MaterializedTrace &) = delete;

  uint32_t numSites() const { return NumSites; }
  uint64_t totalEvents() const { return TotalEvents; }
  uint32_t minGap() const { return MinGap; }
  uint32_t maxGap() const { return MaxGap; }
  /// Trace size in bytes (header + blocks).
  size_t bytes() const { return Len; }
  const uint8_t *data() const { return Base; }
  /// True when the bytes are a file mapping (replay advises the kernel).
  bool mapped() const { return Owner == BytesOwner::File; }
  std::span<const Block> blocks() const { return Blocks; }
  size_t numBlocks() const { return Blocks.size(); }
  /// Block framing + payload bytes: everything after the header.
  uint64_t encodedBlockBytes() const { return Len - TraceV2HeaderBytes; }
  /// Compression achieved vs a flat 4 B/event encoding.
  double compressionVsV1() const;

  /// True once every block has been verified in this process.
  bool fullyVerified() const;

private:
  friend class TraceCursor;

  /// Who holds the bytes; the destructor unmaps both mappings.
  enum class BytesOwner : uint8_t { Vector, Anonymous, File };

  MaterializedTrace() = default;

  /// The one SCT2 frame walk: parses the header at Base and indexes every
  /// block.  Returns false (reason in \p Error) on any structural problem.
  bool index(std::string &Error);

  /// Decodes block \p B into \p Out (capacity >= its event count),
  /// advancing the running instruction count \p InstRet.  An unverified
  /// block is checksummed and decoded with the checked decoder first;
  /// on rejection nothing is committed and the reason goes to \p Error.
  bool decodeBlock(size_t B, uint64_t &InstRet, BranchEvent *Out,
                   std::string &Error) const;

  /// Read-ahead: madvise WILLNEED over bytes [Begin, End) of a file
  /// mapping, rounded out to pages; a no-op for any other owner.
  void prefetch(uint64_t Begin, uint64_t End) const;

  /// The one drop-behind rule of a file mapping: madvise DONTNEED over
  /// the whole pages in [Mark, Upto), then move \p Mark (page-aligned,
  /// starting at 0) to the page floor of Upto -- the first byte it did
  /// not release.  The page that straddles Upto may hold a block still
  /// being read; it stays until a later sweep's Upto has passed it.  Only
  /// the mark moves for any other owner: DONTNEED on anonymous bytes
  /// would zero them, and trusted blocks are never re-verified.
  void dropBehind(uint64_t &Mark, uint64_t Upto) const;

  bool isVerified(size_t B) const {
    return Verified[B >> 3].load(std::memory_order_acquire) &
           (1u << (B & 7));
  }
  void setVerified(size_t B) const {
    Verified[B >> 3].fetch_or(static_cast<uint8_t>(1u << (B & 7)),
                              std::memory_order_release);
  }

  std::vector<uint8_t> Owned; ///< the bytes when Owner is Vector
  const uint8_t *Base = nullptr;
  size_t Len = 0;
  BytesOwner Owner = BytesOwner::Vector;
  std::vector<Block> Blocks;
  /// One bit per block.  Mutable state of an immutable trace: bits only
  /// ever go unverified -> verified, and a redundant re-verification by a
  /// racing cursor is harmless.
  std::unique_ptr<std::atomic<uint8_t>[]> Verified;
  uint32_t NumSites = 0;
  uint64_t TotalEvents = 0;
  uint32_t MinGap = 0;
  uint32_t MaxGap = 0;
};

/// The replay cursor: an EventSource over one MaterializedTrace whose
/// stream is bit-identical to the recorded one.  Cursors are independent
/// (each holds only its own decode position); whole blocks decode straight
/// into the caller's batch buffer whenever it has room for them.  On a
/// rejected block the cursor fails: failed()/error() report it and no
/// event of that block is delivered.  Over a file mapping the cursor also
/// keeps the resident set bounded at any trace length: it advises WILLNEED
/// a few blocks ahead and DONTNEED the pages it has passed.
class TraceCursor final : public EventSource {
public:
  explicit TraceCursor(std::shared_ptr<const MaterializedTrace> Trace);

  size_t nextBatch(std::span<BranchEvent> Buffer) override;

  /// Restarts the stream from the beginning (clears any failure).
  void reset();

  bool failed() const { return !Error.empty(); }
  const std::string &error() const { return Error; }
  const MaterializedTrace &trace() const { return *Trace; }

  /// Blocks of WILLNEED read-ahead issued ahead of the cursor.
  static constexpr size_t PrefetchAheadBlocks = 8;
  /// Blocks kept mapped behind the cursor before DONTNEED drops them.
  static constexpr size_t RetainBehindBlocks = 2;

private:
  /// Decodes block \p B into \p Out, failing the cursor on rejection.
  bool decodeBlock(size_t B, BranchEvent *Out);
  /// Issues the madvise window around the cursor at block \p B.
  void adviseAround(size_t B);

  std::shared_ptr<const MaterializedTrace> Trace;
  size_t NextBlock = 0;
  uint64_t InstRet = 0;
  std::string Error;
  /// Partial-consumption staging: filled when the caller's buffer cannot
  /// hold the next whole block (at most one block of 16-byte events,
  /// 64 KiB at the default block size).
  std::vector<BranchEvent> Staged;
  size_t StagedPos = 0;
  /// Page floor below which the cursor has dropped every page.
  uint64_t DroppedBelow = 0;
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_TRACEFILE_H
