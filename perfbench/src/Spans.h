//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder.  A span is one timed call into a layer
/// (name "layer.operation", start, end, the span that caused it, and an
/// optional item count such as the events a batch carried).  Spans are kept
/// in per-thread buffers while the run executes and written at exit as
/// Chrome trace-event JSON, which Perfetto and chrome://tracing open.
///
/// Recording is off unless a recorder is installed (SpanRecorder::install);
/// a ScopedSpan then costs one branch.  Buffers are read only after the
/// threads that filled them have been joined.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t nowNs();

struct Span {
  const char *Name = nullptr; ///< static "layer.operation" string
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0 = no parent
  uint32_t Tid = 0;
  uint64_t Items = 0; ///< work the call carried (events, instructions, ...)
};

/// Per-name totals derived from the spans.
struct SpanTotals {
  uint64_t TotalNs = 0;
  /// Duration minus the part covered by child spans on the same thread.
  uint64_t SelfNs = 0;
  uint64_t Items = 0;
};

class SpanRecorder {
public:
  explicit SpanRecorder(std::string Workload);
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  /// The installed recorder, or null when tracing is off.
  static SpanRecorder *active() {
    return Active.load(std::memory_order_acquire);
  }
  /// Installs \p R (null turns tracing off).  Call between runs only.
  static void install(SpanRecorder *R) {
    Active.store(R, std::memory_order_release);
  }

  /// Parent for spans opened on a thread with no open span (engine
  /// workers, server threads): the span that caused their work.
  void setRoot(uint32_t Id) { Root.store(Id, std::memory_order_release); }

  /// Fills \p S's id, parent, thread, and start time and marks it open.
  void open(Span &S);
  /// Records the finished span \p S (EndNs set) and closes it.
  void close(const Span &S);

  /// Every span recorded so far.  Call only after the recording threads
  /// have been joined.
  std::vector<Span> spans() const;

  /// Totals per span name over \p Spans.
  static std::map<std::string, SpanTotals>
  totals(const std::vector<Span> &Spans);

  /// Writes \p Spans (at most \p MaxSpans of them) as Chrome trace-event
  /// JSON.  Returns false when the file cannot be written.
  bool writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans,
                        size_t MaxSpans) const;

private:
  struct ThreadBuf {
    uint32_t Tid = 0;
    std::vector<Span> Done;
    std::vector<uint32_t> Stack; ///< open span ids, innermost last
  };
  ThreadBuf &local();

  static std::atomic<SpanRecorder *> Active;

  std::string Workload;
  uint64_t EpochNs;
  std::atomic<uint32_t> NextId{1};
  std::atomic<uint32_t> Root{0};
  mutable std::mutex Mutex; ///< guards Threads
  std::vector<std::unique_ptr<ThreadBuf>> Threads;
};

/// Records one span for its scope when a recorder is installed.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : Rec(SpanRecorder::active()) {
    if (Rec) {
      S.Name = Name;
      Rec->open(S);
    }
  }
  ~ScopedSpan() {
    if (Rec) {
      S.EndNs = nowNs();
      Rec->close(S);
    }
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  void setItems(uint64_t N) { S.Items = N; }
  uint32_t id() const { return S.Id; }

private:
  SpanRecorder *Rec;
  Span S;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
