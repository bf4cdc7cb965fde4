//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload sweep|mssp|serve --seed N --seconds S --trace 0|1
//           [--scale full|tiny] [--pins FILE] [--trace-out FILE]
//           [--commit ID] [--perturb-pin] [--print-pins]
//
// Sets the workload up, then runs iterations until the time budget is spent
// (setting up again after each one; setup_s is the median set-up time) and
// prints one JSON object:
// the run context, the operation counts behind failed_frac, and the
// metrics -- end-to-end ones for --trace 0; per-layer ones, derived from
// the spans of the traced iterations that alternate with untraced ones, for
// --trace 1.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <malloc.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sweep|mssp|serve "
               "--seed N --seconds S --trace 0|1 [--scale full|tiny] "
               "[--pins FILE] [--trace-out FILE] [--commit ID] "
               "[--perturb-pin] [--print-pins]\n",
               Why);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  const char *End = S + std::strlen(S);
  const auto [Ptr, Ec] = std::from_chars(S, End, Out);
  return Ec == std::errc() && Ptr == End && Ptr != S;
}

bool parseArgs(int Argc, char **Argv, Options &Opt, std::string &Error) {
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--perturb-pin") {
      Opt.PerturbPin = true;
      continue;
    }
    if (Arg == "--print-pins") {
      Opt.PrintPins = true;
      continue;
    }
    if (I + 1 >= Argc) {
      Error = "missing value for " + Arg;
      return false;
    }
    const char *Value = Argv[++I];
    if (Arg == "--workload") {
      Opt.Workload = Value;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      if (!parseU64(Value, Opt.Seed)) {
        Error = std::string("--seed must be a non-negative integer, got '") +
                Value + "'";
        return false;
      }
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      char *End = nullptr;
      Opt.Seconds = std::strtod(Value, &End);
      if (!*Value || *End || !(Opt.Seconds > 0) || Opt.Seconds > 3600) {
        Error = std::string("--seconds must be in (0, 3600], got '") + Value +
                "'";
        return false;
      }
    } else if (Arg == "--trace") {
      if (std::strcmp(Value, "0") && std::strcmp(Value, "1")) {
        Error = "--trace must be 0 or 1";
        return false;
      }
      Opt.Trace = Value[0] == '1';
    } else if (Arg == "--scale") {
      Opt.Scale = Value;
      if (Opt.Scale != "full" && Opt.Scale != "tiny") {
        Error = "--scale must be full or tiny";
        return false;
      }
    } else if (Arg == "--pins") {
      Opt.PinsPath = Value;
    } else if (Arg == "--trace-out") {
      Opt.TraceOut = Value;
    } else if (Arg == "--commit") {
      Opt.Commit = Value;
    } else {
      Error = "unknown option " + Arg;
      return false;
    }
  }
  if (!HaveWorkload || !HaveSeed) {
    Error = "--workload and --seed are required";
    return false;
  }
  if (Opt.Workload != "sweep" && Opt.Workload != "mssp" &&
      Opt.Workload != "serve") {
    Error = "unknown workload '" + Opt.Workload + "'";
    return false;
  }
  return true;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// Metrics every workload reports in a traced run (zero where the
/// workload never enters the layer), so runs of different workloads share
/// one schema.
void addCommonLayerMetrics(MetricMap &Out) {
  const std::pair<const char *, const char *> Common[] = {
      {"workload.materializations", "count"},
      {"workload.encoded_bytes_per_event", "B/event"},
      {"core.requests", "count"},
      {"core.speculated_correct_frac", "frac"},
      {"engine.idle_frac", "frac"},
      {"mssp.squash_frac", "frac"},
      {"mssp.tasks", "count"},
      {"mssp.total_cycles", "cycles"},
      {"distill.runs", "count"},
      {"distill.cache_hit_frac", "frac"},
      {"serve.ring_full_retries", "count"},
      {"serve.ring_occupancy_p99", "events"}};
  for (const auto &[Name, Unit] : Common)
    Out.emplace(Name, Metric{0.0, Unit});
}

/// Each layer's share of all recorded self time ("<layer>.self_frac").
/// The iteration span is left out: its self time is the main thread
/// waiting for the engine's workers.
void addSelfShares(const std::map<std::string, SpanTotals> &Spans,
                   MetricMap &Out) {
  const char *Layers[] = {"bench",   "workload", "profile", "core",
                          "engine",  "mssp",     "exec",    "serve"};
  std::map<std::string, double> ByLayer;
  double Total = 0;
  for (const auto &[Name, T] : Spans) {
    if (Name == "bench.iteration")
      continue;
    ByLayer[Name.substr(0, Name.find('.'))] += static_cast<double>(T.SelfNs);
    Total += static_cast<double>(T.SelfNs);
  }
  for (const char *L : Layers)
    Out[std::string(L) + ".self_frac"] = {Total ? ByLayer[L] / Total : 0.0,
                                          "frac"};
}

} // namespace

int main(int Argc, char **Argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to report from an unoptimized build "
               "(build type '%s')\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  Options Opt;
  std::string Error;
  if (!parseArgs(Argc, Argv, Opt, Error))
    return usage(Error.c_str());
  Opt.Jobs = std::max(1u, std::thread::hardware_concurrency());

  std::unique_ptr<Workload> W = Opt.Workload == "sweep" ? makeSweep(Opt)
                                : Opt.Workload == "mssp" ? makeMssp(Opt)
                                                         : makeServe(Opt);
  if (!W->pins().load(Opt.PinsPath, Opt.PerturbPin) && Opt.Seed == 0)
    std::fprintf(stderr, "perfbench: cannot read pins from %s\n",
                 Opt.PinsPath.c_str());

  SpanRecorder Recorder(Opt.Workload);
  std::vector<double> SetupSeconds;
  std::vector<double> Walls[2]; // [traced]
  auto TimedSetup = [&] {
    const uint64_t Start = nowNs();
    W->setup();
    SetupSeconds.push_back(secondsBetween(Start, nowNs()));
  };
  try {
    // The traced run records the first set-up's spans.
    SpanRecorder::install(Opt.Trace ? &Recorder : nullptr);
    TimedSetup();
    SpanRecorder::install(nullptr);

    // Iterate until the next iteration would overrun the budget; a traced
    // run alternates untraced and traced iterations.
    const uint64_t Deadline =
        nowNs() + static_cast<uint64_t>(Opt.Seconds * 1e9);
    const size_t MinIterations = Opt.Trace ? 2 : 1;
    for (size_t I = 0; I < 10000; ++I) {
      const bool Traced = Opt.Trace && I % 2 == 1;
      SpanRecorder::install(Traced ? &Recorder : nullptr);
      const uint64_t Start = nowNs();
      Walls[Traced].push_back(W->iterate(Traced));
      const uint64_t End = nowNs();
      SpanRecorder::install(nullptr);
      // Hand freed memory back so every iteration starts from the same
      // heap and peak_rss_mb does not drift with fragmentation.
      malloc_trim(0);
      for (unsigned R = 0; R < W->setupsPerIteration(); ++R)
        TimedSetup();
      if (I + 1 >= MinIterations && nowNs() + (End - Start) > Deadline)
        break;
    }
  } catch (const std::exception &E) {
    SpanRecorder::install(nullptr);
    std::fprintf(stderr, "perfbench: %s workload failed: %s\n",
                 Opt.Workload.c_str(), E.what());
    return 1;
  }

  Checker &Check = W->check();
  const uint64_t Attempted = std::max<uint64_t>(Check.attempted(), 1);
  const uint64_t Failed = std::min(Check.failed(), Attempted);
  const double FailedFrac =
      static_cast<double>(Failed) / static_cast<double>(Attempted);

  MetricMap Metrics;
  std::string TraceFile;
  if (!Opt.Trace) {
    W->endToEnd(Metrics);
    Metrics["setup_s"] = {median(SetupSeconds), "s"};
    Metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    Metrics["failed_frac"] = {FailedFrac, "frac"};
  } else {
    const std::vector<Span> Spans = Recorder.spans();
    const std::map<std::string, SpanTotals> Totals =
        SpanRecorder::totals(Spans);
    W->perLayer(Totals, Metrics);
    addCommonLayerMetrics(Metrics);
    addSelfShares(Totals, Metrics);
    // The first iteration runs cold; leave it out when there are others.
    std::vector<double> Untraced(Walls[0].begin() + (Walls[0].size() > 1),
                                 Walls[0].end());
    Metrics["tracing_overhead_frac"] = {
        median(Walls[1]) / median(Untraced) - 1.0, "frac"};
    Metrics["trace.spans"] = {static_cast<double>(Spans.size()), "count"};
    if (!Opt.TraceOut.empty()) {
      if (!Recorder.writeChromeTrace(Opt.TraceOut, Spans, 100000)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     Opt.TraceOut.c_str());
        return 1;
      }
      TraceFile = Opt.TraceOut;
    }
  }

  if (Opt.PrintPins)
    for (const auto &[Cell, Digest] : W->digests())
      std::printf("%s\t%s\t%s\t%s\n", Opt.Workload.c_str(), Opt.Scale.c_str(),
                  Cell.c_str(), Digest.c_str());

  std::string Out = "{\"workload\":" + jsonString(Opt.Workload);
  Out += ",\"correct\":" + std::string(Failed == 0 ? "true" : "false");
  Out += ",\"attempted\":" + std::to_string(Attempted);
  Out += ",\"failed\":" + std::to_string(Failed);
  Out += ",\"errors\":[";
  for (size_t I = 0; I < Check.errors().size(); ++I)
    Out += (I ? "," : "") + jsonString(Check.errors()[I]);
  Out += "],\"metrics\":{";
  bool FirstMetric = true;
  for (const auto &[Name, M] : Metrics) {
    Out += (FirstMetric ? "" : ",") + jsonString(Name) + ":{\"value\":" +
           jsonNumber(M.Value) + ",\"unit\":" + jsonString(M.Unit) + "}";
    FirstMetric = false;
  }
  Out += "},\"context\":{";
  Out += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  Out += ",\"compiler\":" + jsonString(__VERSION__);
  Out += ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE);
  Out += ",\"optimized\":true";
  Out += ",\"commit\":" + jsonString(Opt.Commit);
  Out += ",\"seed\":" + std::to_string(Opt.Seed);
  Out += ",\"scale\":" + jsonString(Opt.Scale);
  Out += ",\"seconds\":" + jsonNumber(Opt.Seconds);
  Out += ",\"trace\":" + std::string(Opt.Trace ? "1" : "0");
  Out += ",\"setup_repetitions\":" + std::to_string(SetupSeconds.size());
  Out += ",\"iterations\":" + std::to_string(Walls[0].size());
  Out += ",\"traced_iterations\":" + std::to_string(Walls[1].size());
  Out += ",\"trace_file\":" + jsonString(TraceFile);
  Out += ",\"params\":{";
  bool FirstParam = true;
  for (const auto &[Key, Value] : W->params()) {
    Out += (FirstParam ? "" : ",") + jsonString(Key) + ":" + jsonString(Value);
    FirstParam = false;
  }
  Out += "}}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
