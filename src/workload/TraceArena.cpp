//===- workload/TraceArena.cpp - Shared materialized traces ---------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/TraceArena.h"

#include "support/RunConfig.h"
#include "workload/TraceGenerator.h"

#include <algorithm>
#include <bit>
#include <cstdio>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

//===----------------------------------------------------------------------===//
// Key serialization
//===----------------------------------------------------------------------===//
// Injective, length-prefixed serialization: two distinct (spec, input)
// pairs can never serialize to the same byte string, so arena sharing is
// decided by content, not by name.

void putU64(std::string &K, uint64_t V) {
  for (unsigned I = 0; I < 8; ++I)
    K.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

void putF64(std::string &K, double V) {
  putU64(K, std::bit_cast<uint64_t>(V));
}

void putStr(std::string &K, const std::string &S) {
  putU64(K, S.size());
  K.append(S);
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceArena
//===----------------------------------------------------------------------===//

TraceArena::TraceArena() : Verbose(RunConfig::global().ArenaVerbose) {}

std::string TraceArena::keyOf(const WorkloadSpec &Spec,
                              const InputConfig &Input) {
  std::string K;
  K.reserve(64 + Spec.Sites.size() * 56);
  K.append("SCTA1"); // key-format version
  putStr(K, Spec.Name);
  putU64(K, Spec.Seed);
  putU64(K, Spec.NumPhases);
  putU64(K, Spec.MinGap);
  putU64(K, Spec.MaxGap);
  putU64(K, Spec.Sites.size());
  for (const SiteSpec &S : Spec.Sites) {
    putU64(K, static_cast<uint64_t>(S.Behavior.Kind));
    putF64(K, S.Behavior.BiasA);
    putF64(K, S.Behavior.BiasB);
    putU64(K, S.Behavior.ChangeAt);
    putU64(K, S.Behavior.Period);
    putU64(K, S.Behavior.GroupId);
    putF64(K, S.Weight);
    putU64(K, S.PhaseMask);
    putU64(K, S.InputGated);
  }
  putU64(K, Spec.GroupOn.size());
  for (const std::vector<bool> &Row : Spec.GroupOn) {
    putU64(K, Row.size());
    for (const bool On : Row)
      K.push_back(On ? 1 : 0);
  }
  putStr(K, Input.Name);
  putU64(K, Input.Seed);
  putU64(K, Input.Events);
  putF64(K, Input.CoverProb);
  return K;
}

std::unique_ptr<EventSource> TraceArena::open(const WorkloadSpec &Spec,
                                              const InputConfig &Input) {
  std::shared_ptr<const MaterializedTrace> Trace = materialize(Spec, Input);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.CursorOpens;
    if (!Trace)
      ++Stats.Fallbacks;
  }
  if (!Trace)
    return std::make_unique<TraceGenerator>(Spec, Input);
  return std::make_unique<TraceCursor>(std::move(Trace));
}

std::shared_ptr<const MaterializedTrace>
TraceArena::materialize(const WorkloadSpec &Spec, const InputConfig &Input) {
  const std::string Key = keyOf(Spec, Input);
  Entry *E = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::unique_ptr<Entry> &Slot = Entries[Key];
    if (!Slot)
      Slot = std::make_unique<Entry>();
    E = Slot.get();
  }
  // First caller materializes; racing callers for the same key block here
  // (and only here -- other keys proceed independently).
  std::lock_guard<std::mutex> KeyLock(E->Mutex);
  if (E->Retained || E->Unencodable)
    return E->Retained;
  // A released key that a cursor still reads is retained again, not
  // generated twice.
  std::shared_ptr<const MaterializedTrace> Trace = E->Live.lock();
  if (!Trace)
    Trace = materializeKey(Spec, Input);
  if (!Trace) {
    E->Unencodable = true; // beyond SCT2 limits: the key stays a fallback
    return nullptr;
  }
  E->Live = Trace;
  E->Retained = Trace;
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats.PeakResidentKeys = std::max(Stats.PeakResidentKeys, ++ResidentKeys);
  return Trace;
}

void TraceArena::release(const WorkloadSpec &Spec, const InputConfig &Input) {
  const std::string Key = keyOf(Spec, Input);
  Entry *E = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    const auto It = Entries.find(Key);
    if (It == Entries.end())
      return;
    E = It->second.get();
  }
  {
    std::lock_guard<std::mutex> KeyLock(E->Mutex);
    if (!E->Retained)
      return;
    E->Retained.reset();
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Releases;
    --ResidentKeys;
  }
  if (Verbose)
    std::fprintf(stderr, "specctrl-arena: %s/%s: released\n",
                 Spec.Name.c_str(), Input.Name.c_str());
}

std::shared_ptr<const MaterializedTrace>
TraceArena::materializeKey(const WorkloadSpec &Spec,
                           const InputConfig &Input) {
  TraceGenerator Gen(Spec, Input);
  std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::record(Gen);
  if (!Trace)
    return nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Materializations;
    Stats.ResidentEvents += Trace->totalEvents();
    Stats.ResidentBytes += Trace->bytes();
  }
  if (Verbose)
    std::fprintf(stderr,
                 "specctrl-arena: %s/%s: %llu events, %zu bytes "
                 "(%.2fx vs 4 B/event, %zu blocks) [generated]\n",
                 Spec.Name.c_str(), Input.Name.c_str(),
                 static_cast<unsigned long long>(Trace->totalEvents()),
                 Trace->bytes(), Trace->compressionVsV1(),
                 Trace->numBlocks());
  return Trace;
}

TraceArenaStats TraceArena::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}
