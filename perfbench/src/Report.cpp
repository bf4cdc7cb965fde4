//===- perfbench/src/Report.cpp - Benchmark harness types -----------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

void Checker::fail(const std::string &Message) {
  ++Failed;
  if (Errors.size() < 8)
    Errors.push_back(Message);
}

void Workload::checkDigest(const std::string &Workload, const std::string &Cell,
                           const std::string &Digest, size_t CellIndex,
                           bool FirstIteration) {
  if (FirstIteration) {
    if (Digests.size() <= CellIndex)
      Digests.resize(CellIndex + 1);
    Digests[CellIndex] = {Cell, Digest};
    if (Opt.Seed != 0)
      return;
    const std::optional<std::string> Pin = Pins.find(Workload, Opt.Scale, Cell);
    if (!Pin)
      Check.fail(Cell + ": no digest pinned for the default seed");
    else if (*Pin != Digest)
      Check.fail(Cell + ": digest " + Digest + " != pinned " + *Pin);
    return;
  }
  if (CellIndex >= Digests.size() || Digests[CellIndex].second != Digest)
    Check.fail(Cell + ": output differs from the first iteration's");
}

void perfbench::planEndToEnd(const std::vector<PlanRun> &Runs,
                             const std::string &RateName, MetricMap &Out) {
  // p90 is the highest percentile with about ten of a run's ~100 cells
  // beyond it.
  std::vector<double> Wall, Rate, P50, P90;
  size_t Samples = 0;
  for (const PlanRun &R : Runs) {
    if (R.Traced)
      continue;
    Wall.push_back(R.WallSeconds);
    Rate.push_back(R.Work / R.WallSeconds);
    P50.push_back(quantile(R.CellSeconds, 0.50) * 1e6);
    P90.push_back(quantile(R.CellSeconds, 0.90) * 1e6);
    Samples += R.CellSeconds.size();
  }
  Out["wall_s"] = {median(Wall), "s"};
  Out[RateName] = {median(Rate), "1/s"};
  Out["cell_p50_us"] = {median(P50), "us"};
  Out["cell_p90_us"] = {median(P90), "us"};
  Out["cell_samples"] = {static_cast<double>(Samples), "count"};
}

void perfbench::planPerLayer(const std::vector<PlanRun> &Runs, MetricMap &Out) {
  std::vector<double> Queue, Idle, Longest;
  uint64_t Requests = 0, Correct = 0, Speculated = 0;
  for (const PlanRun &R : Runs) {
    if (!R.Traced || R.CellSeconds.empty())
      continue;
    double Busy = 0;
    for (double S : R.CellSeconds)
      Busy += S;
    Queue.push_back(R.QueueWaitSeconds /
                    static_cast<double>(R.CellSeconds.size()));
    Idle.push_back(1.0 - Busy / (R.Jobs * R.WallSeconds));
    Longest.push_back(*std::max_element(R.CellSeconds.begin(),
                                        R.CellSeconds.end()));
    Requests = R.Requests;
    Correct += R.CorrectSpecs;
    Speculated += R.Speculated;
  }
  Out["engine.queue_wait_s"] = {median(Queue), "s"};
  Out["engine.idle_frac"] = {median(Idle), "frac"};
  Out["engine.longest_cell_s"] = {median(Longest), "s"};
  Out["core.requests"] = {static_cast<double>(Requests), "count"};
  Out["core.speculated_correct_frac"] = {
      Speculated ? static_cast<double>(Correct) / static_cast<double>(Speculated)
                 : 0.0,
      "frac"};
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Salt + 0x632BE59BD9B4E019ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

double perfbench::median(std::vector<double> V) { return quantile(V, 0.5); }

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::selfNsPerItem(const std::map<std::string, SpanTotals> &Spans,
                                const std::string &Name) {
  auto It = Spans.find(Name);
  if (It == Spans.end() || It->second.Items == 0)
    return 0.0;
  return static_cast<double>(It->second.SelfNs) /
         static_cast<double>(It->second.Items);
}

double perfbench::totalSeconds(const std::map<std::string, SpanTotals> &Spans,
                               const std::string &Name) {
  auto It = Spans.find(Name);
  return It == Spans.end() ? 0.0 : static_cast<double>(It->second.TotalNs) / 1e9;
}
