//===- workload/TraceArena.cpp - Materialize-once trace store -------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/TraceArena.h"

#include "support/Hash.h"
#include "support/RunConfig.h"
#include "workload/TraceGenerator.h"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

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

TraceArena::TraceArena() : TraceArena(Config{}) {}

TraceArena::TraceArena(Config C) : Cfg(std::move(C)) {
  if (RunConfig::global().ArenaVerbose)
    Cfg.Verbose = true;
}

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

std::string TraceArena::cachePathOf(const std::string &Key) const {
  char Name[48];
  std::snprintf(Name, sizeof(Name), "%016llx%016llx.sct2",
                static_cast<unsigned long long>(
                    hash64(Key.data(), Key.size(), 0)),
                static_cast<unsigned long long>(
                    hash64(Key.data(), Key.size(), 1)));
  return (std::filesystem::path(Cfg.CacheDir) / Name).string();
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
  std::call_once(E->Once,
                 [&] { E->Trace = materializeKey(Key, Spec, Input); });
  return E->Trace;
}

std::shared_ptr<const MaterializedTrace>
TraceArena::mapCached(const std::string &Key, const WorkloadSpec &Spec,
                      const InputConfig &Input) {
  namespace fs = std::filesystem;
  const std::string Path = cachePathOf(Key);

  // The file is untrusted input: verify the whole of it before serving
  // (checksums + checked decode, bounded by one block buffer), so a
  // stale or corrupt cache falls through to regeneration, never into
  // results -- and a mapped stream never fails mid-replay.
  const auto Serve =
      [&](bool Stored) -> std::shared_ptr<const MaterializedTrace> {
    std::shared_ptr<const MaterializedTrace> Trace =
        MaterializedTrace::mapFile(Path);
    if (!Trace || Trace->totalEvents() != Input.Events ||
        Trace->numSites() != Spec.numSites() || !Trace->verifyAllBlocks())
      return nullptr;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stats.MmapLoads += !Stored;
      Stats.MmapStores += Stored;
      Stats.MappedBytes += Trace->bytes();
    }
    if (Cfg.Verbose)
      std::fprintf(stderr,
                   "specctrl-arena: %s/%s: %llu events, %zu bytes "
                   "(%zu blocks) [mmap%s]\n",
                   Spec.Name.c_str(), Input.Name.c_str(),
                   static_cast<unsigned long long>(Trace->totalEvents()),
                   Trace->bytes(), Trace->numBlocks(),
                   Stored ? ", generated" : "");
    return Trace;
  };
  if (std::shared_ptr<const MaterializedTrace> Trace = Serve(/*Stored=*/false))
    return Trace;

  // Miss (or a stale/corrupt file): stream-generate straight to the
  // file -- the trace is never resident -- then map that.  Temp name +
  // rename keeps concurrent processes from seeing a partial file.
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);
  const std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<uint64_t>(::getpid())) +
      "." + std::to_string(reinterpret_cast<uintptr_t>(this));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return nullptr;
    TraceGenerator Gen(Spec, Input);
    if (writeTraceV2(Out, Gen) != Input.Events || !Out) {
      Out.close();
      fs::remove(Tmp, EC);
      return nullptr;
    }
  }
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return nullptr;
  }
  return Serve(/*Stored=*/true);
}

std::shared_ptr<const MaterializedTrace>
TraceArena::materializeKey(const std::string &Key, const WorkloadSpec &Spec,
                           const InputConfig &Input) {
  if (!Cfg.CacheDir.empty())
    if (std::shared_ptr<const MaterializedTrace> Trace =
            mapCached(Key, Spec, Input))
      return Trace;

  TraceGenerator Gen(Spec, Input);
  std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::record(Gen);
  if (!Trace)
    return nullptr; // beyond SCT2 limits: the key stays a fallback
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Materializations;
    Stats.ResidentEvents += Trace->totalEvents();
    Stats.ResidentBytes += Trace->bytes();
  }
  if (Cfg.Verbose)
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
