//===- perfbench/src/Spans.cpp - In-memory span recorder ------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

std::atomic<SpanRecorder *> SpanRecorder::Active{nullptr};

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRecorder::SpanRecorder(std::string Workload)
    : Workload(std::move(Workload)), EpochNs(nowNs()) {}

SpanRecorder::ThreadBuf &SpanRecorder::local() {
  // One buffer per (thread, recorder); a thread that outlives a recorder
  // re-registers with the next one.
  thread_local SpanRecorder *Owner = nullptr;
  thread_local ThreadBuf *Buf = nullptr;
  if (Owner != this) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Threads.push_back(std::make_unique<ThreadBuf>());
    Buf = Threads.back().get();
    Buf->Tid = static_cast<uint32_t>(Threads.size());
    Owner = this;
  }
  return *Buf;
}

void SpanRecorder::open(Span &S) {
  ThreadBuf &B = local();
  S.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = B.Stack.empty() ? Root.load(std::memory_order_acquire)
                             : B.Stack.back();
  S.Tid = B.Tid;
  B.Stack.push_back(S.Id);
  S.StartNs = nowNs();
}

void SpanRecorder::close(const Span &S) {
  ThreadBuf &B = local();
  if (!B.Stack.empty() && B.Stack.back() == S.Id)
    B.Stack.pop_back();
  B.Done.push_back(S);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Span> Out;
  for (const auto &T : Threads)
    Out.insert(Out.end(), T->Done.begin(), T->Done.end());
  std::sort(Out.begin(), Out.end(), [](const Span &A, const Span &B) {
    return A.StartNs < B.StartNs;
  });
  return Out;
}

std::map<std::string, SpanTotals>
SpanRecorder::totals(const std::vector<Span> &Spans) {
  // Child time is subtracted only for children on the parent's own thread:
  // a cell running on an engine worker overlaps its parent, it does not
  // nest inside it.
  std::unordered_map<uint32_t, const Span *> ById;
  ById.reserve(Spans.size());
  for (const Span &S : Spans)
    ById.emplace(S.Id, &S);
  std::unordered_map<uint32_t, uint64_t> ChildNs;
  for (const Span &S : Spans) {
    auto It = ById.find(S.Parent);
    if (It != ById.end() && It->second->Tid == S.Tid)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  }
  std::map<std::string, SpanTotals> Out;
  for (const Span &S : Spans) {
    SpanTotals &T = Out[S.Name];
    const uint64_t Dur = S.EndNs - S.StartNs;
    const auto Child = ChildNs.find(S.Id);
    const uint64_t Covered = Child == ChildNs.end() ? 0 : Child->second;
    T.TotalNs += Dur;
    T.SelfNs += Covered < Dur ? Dur - Covered : 0;
    T.Items += S.Items;
  }
  return Out;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path,
                                    const std::vector<Span> &Spans,
                                    size_t MaxSpans) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const size_t N = std::min(Spans.size(), MaxSpans);
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
                  "\"%s\",\"spans\":%zu,\"written\":%zu},\"traceEvents\":[\n",
               Workload.c_str(), Spans.size(), N);
  for (size_t I = 0; I < N; ++I) {
    const Span &S = Spans[I];
    const std::string Name = S.Name;
    const std::string Layer = Name.substr(0, Name.find('.'));
    const double Ts = static_cast<double>(S.StartNs - EpochNs) / 1e3;
    const double Dur = static_cast<double>(S.EndNs - S.StartNs) / 1e3;
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"workload\":\"%s\",\"items\":%llu}}\n",
                 I ? "," : "", Name.c_str(), Layer.c_str(), Ts, Dur, S.Tid,
                 S.Id, S.Parent, Workload.c_str(),
                 static_cast<unsigned long long>(S.Items));
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}
