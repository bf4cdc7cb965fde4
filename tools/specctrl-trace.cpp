//===- tools/specctrl-trace.cpp - Workload/trace inspection tool ----------===//
//
// Inspection tooling for the workload substrate:
//
//   specctrl-trace --bench=NAME [--input=ref|train] ...
//     --list-sites            dump the static site table (behavior, weight)
//     --dump-profile[=FILE]   run and save the whole-run branch profile
//     --synthesize            print the benchmark-like SimIR program
//     --head=N                print the first N branch events, in tables
//                             of at most 4096 rows
//     --record=FILE           record the run as an SCT2 trace
//     --replay=FILE           replay a recorded trace zero-copy from a
//                             read-only mapping and report peak RSS
//     --stats=FILE            structural stats: events, blocks, bytes,
//                             bytes/event
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "ir/Printer.h"
#include "profile/BranchProfile.h"
#include "support/Format.h"
#include "support/Options.h"
#include "support/Table.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"
#include "workload/TraceFile.h"
#include "workload/TraceGenerator.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::workload;

int main(int Argc, char **Argv) try {
  OptionSet Opts("specctrl-trace: inspect the synthetic workloads");
  Opts.addString("bench", "gzip", "benchmark name");
  Opts.addString("input", "ref", "input data set: ref or train");
  Opts.addFlag("list-sites", "dump the static site table");
  Opts.addString("dump-profile", "", "run fully and save the profile here");
  Opts.addString("record", "", "record the run as an SCT2 trace file");
  Opts.addString("replay", "",
                 "replay a recorded trace from a read-only mapping and "
                 "report peak resident memory");
  Opts.addString("stats", "",
                 "print structural stats for this trace file (events, "
                 "blocks, bytes, bytes/event)");
  Opts.addFlag("synthesize", "print the benchmark-like SimIR program");
  Opts.addInt("head", 0,
              "print the first N branch events (in tables of at most 4096 "
              "rows)");
  bench::addScaleOptions(Opts); // shared with the bench harnesses
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;

  const std::string &InputName = Opts.getString("input");
  if (InputName != "ref" && InputName != "train") {
    std::cerr << "error: --input must be ref or train, got '" << InputName
              << "'\n";
    return 2;
  }
  const uint64_t Head = bench::readCount(Opts, "head", 0);
  const SuiteScale Scale = bench::readScale(Opts);
  const WorkloadSpec Spec = makeBenchmark(Opts.getString("bench"), Scale);
  const InputConfig Input =
      InputName == "train" ? Spec.trainInput() : Spec.refInput();

  if (Opts.getFlag("synthesize")) {
    SynthProgram P = synthesize(makeSynthSpecFor(
        profileByName(Spec.Name), /*Iterations=*/1000));
    ir::printModule(P.Mod, std::cout);
    return 0;
  }

  if (Opts.getFlag("list-sites")) {
    const std::vector<double> Execs = Spec.expectedSiteExecs(Input);
    Table Out({"site", "behavior", "P(taken)", "expected execs", "gated",
               "phases"});
    for (SiteId S = 0; S < Spec.numSites(); ++S) {
      const SiteSpec &Site = Spec.Sites[S];
      std::string Phases;
      for (unsigned P = 0; P < Spec.NumPhases; ++P)
        Phases += (Site.PhaseMask >> P) & 1 ? '#' : '.';
      Out.row()
          .cell(static_cast<uint64_t>(S))
          .cell(behaviorKindName(Site.Behavior.Kind))
          .cell(Site.Behavior.BiasA, 4)
          .cell(formatMagnitude(Execs[S]))
          .cell(Site.InputGated ? "yes" : "")
          .cell(Phases);
    }
    Out.printText(std::cout);
    return 0;
  }

  if (!Opts.getString("stats").empty()) {
    const std::string &Path = Opts.getString("stats");
    std::string Error;
    const std::shared_ptr<const MaterializedTrace> Trace =
        MaterializedTrace::mapFile(Path, &Error);
    if (!Trace) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    char PerEvent[32];
    std::snprintf(PerEvent, sizeof(PerEvent), "%.2f",
                  Trace->totalEvents()
                      ? static_cast<double>(Trace->encodedBlockBytes()) /
                            static_cast<double>(Trace->totalEvents())
                      : 0.0);
    Table Out({"stat", "value"});
    Out.row().cell("events").cell(Trace->totalEvents());
    Out.row().cell("sites").cell(static_cast<uint64_t>(Trace->numSites()));
    Out.row().cell("blocks").cell(static_cast<uint64_t>(Trace->numBlocks()));
    Out.row().cell("file bytes").cell(static_cast<uint64_t>(Trace->bytes()));
    Out.row().cell("encoded bytes").cell(Trace->encodedBlockBytes());
    Out.row().cell("bytes/event").cell(PerEvent);
    Out.printText(std::cout);
    return 0;
  }

  if (!Opts.getString("replay").empty()) {
    std::string Error;
    const std::shared_ptr<const MaterializedTrace> Trace =
        MaterializedTrace::mapFile(Opts.getString("replay"), &Error);
    if (!Trace) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    TraceCursor Cursor(Trace);
    const auto Start = std::chrono::steady_clock::now();
    uint64_t Events = 0;
    std::vector<BranchEvent> Chunk(DefaultBatchEvents);
    while (const size_t N = Cursor.nextBatch(Chunk))
      Events += N;
    if (Cursor.failed()) {
      std::cerr << "error: " << Cursor.error() << '\n';
      return 1;
    }
    const double Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    struct rusage Usage {};
    ::getrusage(RUSAGE_SELF, &Usage);
    std::cout << "replayed "
              << formatMagnitude(static_cast<double>(Events))
              << " events over " << Trace->numSites() << " sites in "
              << formatMagnitude(Seconds) << "s ("
              << formatMagnitude(Seconds > 0.0
                                     ? static_cast<double>(Events) / Seconds
                                     : 0.0)
              << " events/s), peak RSS "
              << formatMagnitude(static_cast<double>(Usage.ru_maxrss) *
                                 1024.0)
              << "B over a "
              << formatMagnitude(static_cast<double>(Trace->bytes()))
              << "B mapping\n";
    return 0;
  }

  if (!Opts.getString("record").empty()) {
    std::ofstream OutFile(Opts.getString("record"), std::ios::binary);
    if (!OutFile) {
      std::cerr << "error: cannot write trace file\n";
      return 1;
    }
    TraceGenerator Gen(Spec, Input);
    const uint64_t N = writeTraceV2(OutFile, Gen);
    if (N == 0) {
      std::cerr << "error: trace write failed\n";
      return 1;
    }
    std::cout << "recorded " << formatMagnitude(static_cast<double>(N))
              << " events to " << Opts.getString("record") << '\n';
    return 0;
  }

  if (Head > 0) {
    // One table per generated chunk, so memory stays bounded by a chunk
    // however large N is.
    TraceGenerator Gen(Spec, Input);
    std::vector<BranchEvent> Chunk(DefaultBatchEvents);
    uint64_t Index = 0;
    while (Index < Head) {
      const size_t N = Gen.nextBatch({Chunk.data(),
                                      static_cast<size_t>(std::min<uint64_t>(
                                          Chunk.size(), Head - Index))});
      if (N == 0)
        break;
      Table Out({"index", "site", "taken", "instret"});
      for (size_t I = 0; I < N; ++I, ++Index)
        Out.row()
            .cell(Index)
            .cell(static_cast<uint64_t>(Chunk[I].Site))
            .cell(Chunk[I].Taken ? "T" : "N")
            .cell(Chunk[I].InstRet);
      Out.printText(std::cout);
    }
    return 0;
  }

  // Default / --dump-profile: run fully and report.
  profile::BranchProfile P(Spec.numSites());
  TraceGenerator Gen(Spec, Input);
  std::vector<BranchEvent> Chunk(DefaultBatchEvents);
  while (const size_t N = Gen.nextBatch(Chunk))
    for (size_t I = 0; I < N; ++I)
      P.addOutcome(Chunk[I].Site, Chunk[I].Taken);

  const std::string &File = Opts.getString("dump-profile");
  if (!File.empty()) {
    std::ofstream OS(File);
    if (!OS) {
      std::cerr << "error: cannot write '" << File << "'\n";
      return 1;
    }
    P.save(OS);
    std::cout << "wrote profile for " << Spec.Name << "/" << Input.Name
              << " (" << P.touchedSites() << " sites, "
              << formatMagnitude(static_cast<double>(P.totalExecutions()))
              << " events) to " << File << '\n';
    return 0;
  }

  std::cout << Spec.Name << "/" << Input.Name << ": "
            << formatMagnitude(static_cast<double>(P.totalExecutions()))
            << " events over " << P.touchedSites() << " touched sites, "
            << formatMagnitude(
                   static_cast<double>(Gen.instructionsRetired()))
            << " instructions\n";
  return 0;
} catch (const std::invalid_argument &E) {
  std::cerr << "error: " << E.what() << '\n';
  return 2;
}
