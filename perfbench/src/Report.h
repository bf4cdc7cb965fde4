//===- perfbench/src/Report.h - Benchmark harness types ---------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the command-line options, the metric and
/// outcome records, the operation checker behind failed_frac, and the
/// Workload interface main() drives (set up repeatedly, then iterate until
/// the time budget is spent, alternating traced iterations in a traced run).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include "Digest.h"
#include "Spans.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// "full" (the measured configuration) or "tiny" (self-tests).
  std::string Scale = "full";
  std::string PinsPath = "perfbench/pins.tsv";
  bool PerturbPin = false;
  /// Print "workload<TAB>scale<TAB>cell<TAB>digest" lines for pins.tsv.
  bool PrintPins = false;
  /// Chrome trace-event output of a traced run (empty = not written).
  std::string TraceOut;
  std::string Commit = "unknown";
  /// Worker threads: the host's hardware concurrency.
  unsigned Jobs = 1;

  bool tiny() const { return Scale == "tiny"; }
};

struct Metric {
  double Value = 0.0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Counts attempted operations and the ones that failed or produced a
/// wrong output; keeps the first few failure messages.
class Checker {
public:
  void attempt(uint64_t N = 1) { Attempted += N; }
  void fail(const std::string &Message);
  /// Marks one operation failed unless \p Ok.
  void expect(bool Ok, const std::string &Message) {
    if (!Ok)
      fail(Message);
  }

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &errors() const { return Errors; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
};

/// One benchmark workload.  main() calls setup(), then iterate() until the
/// time budget is spent, repeating setup() a few times after each
/// iteration so that setup_s -- the median of all set-ups -- is measured
/// under the same conditions as the iterations; then the metric hooks.
class Workload {
public:
  explicit Workload(const Options &Opt) : Opt(Opt) {}
  virtual ~Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Workload parameters recorded in the run context.
  virtual std::vector<std::pair<std::string, std::string>> params() const = 0;
  /// Extra set-ups after each iteration.
  virtual unsigned setupsPerIteration() const = 0;
  /// Builds the inputs from the seed.  Repeatable: every call builds the
  /// same inputs.
  virtual void setup() = 0;
  /// Runs one measured unit and returns its timed wall seconds (the
  /// traced/untraced comparison uses these).  Checks the outputs into
  /// check().
  virtual double iterate(bool Traced) = 0;
  /// End-to-end metrics over the untraced iterations.
  virtual void endToEnd(MetricMap &Out) const = 0;
  /// Per-layer metrics over the traced iterations' spans and counters.
  virtual void perLayer(const std::map<std::string, SpanTotals> &Spans,
                        MetricMap &Out) const = 0;

  Checker &check() { return Check; }
  PinTable &pins() { return Pins; }
  /// Output digests of the first iteration, as (cell, digest).
  const std::vector<std::pair<std::string, std::string>> &digests() const {
    return Digests;
  }

protected:
  /// Checks one cell's digest: against the default-seed pin at seed 0, and
  /// against the first iteration's digest in every later iteration.
  void checkDigest(const std::string &Workload, const std::string &Cell,
                   const std::string &Digest, size_t CellIndex,
                   bool FirstIteration);

  const Options &Opt;
  Checker Check;
  PinTable Pins;
  std::vector<std::pair<std::string, std::string>> Digests;
};

/// One engine plan run (an iteration of sweep or mssp): its timing, the
/// work it completed, and its controllers' speculation outcomes.
struct PlanRun {
  bool Traced = false;
  double WallSeconds = 0;
  unsigned Jobs = 1;
  double Work = 0; ///< controller events (sweep), simulated tasks (mssp)
  std::vector<double> CellSeconds;
  double QueueWaitSeconds = 0; ///< summed over cells
  uint64_t Requests = 0;
  uint64_t CorrectSpecs = 0;
  uint64_t Speculated = 0;
};

/// wall_s, \p RateName (work per second), and the cell-time percentiles
/// over the untraced runs: medians over runs, percentiles taken per run.
void planEndToEnd(const std::vector<PlanRun> &Runs, const std::string &RateName,
                  MetricMap &Out);
/// The engine.* and core.* metrics over the traced runs.
void planPerLayer(const std::vector<PlanRun> &Runs, MetricMap &Out);

std::unique_ptr<Workload> makeSweep(const Options &Opt);
std::unique_ptr<Workload> makeMssp(const Options &Opt);
std::unique_ptr<Workload> makeServe(const Options &Opt);

/// SplitMix64: the benchmark's seed mixer.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

double median(std::vector<double> V);
/// Linear-interpolated quantile \p Q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> V, double Q);
/// Seconds between two nowNs() readings.
inline double secondsBetween(uint64_t StartNs, uint64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e9;
}
/// Self nanoseconds of \p Name per item, or 0 when the span never ran.
double selfNsPerItem(const std::map<std::string, SpanTotals> &Spans,
                     const std::string &Name);
/// Total (span) seconds of \p Name.
double totalSeconds(const std::map<std::string, SpanTotals> &Spans,
                    const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
