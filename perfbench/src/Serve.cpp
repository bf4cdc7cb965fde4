//===- perfbench/src/Serve.cpp - The online streaming-server workload -----===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// 1024 streams on one serve::StreamServer, fed by a single producer thread
// (this one) while nproc - 2 consumer shards drain them.  Each stream
// replays a contiguous slice of one suite benchmark's ref trace; the traces
// are generated and decoded during set-up, so controllers see real site
// counts and biases and generation stays out of the timed region.
//
// Each iteration has two phases on the same streams:
//  * closed loop -- the producer pushes every stream's first part round
//    robin, as fast as the rings accept (each stream carries several ring
//    capacities, so back-pressure is real), until the consumers have
//    drained it all;
//  * open loop -- batches go out on a fixed schedule well below capacity,
//    round robin over the streams, each timed from when it was due until
//    its stream's controller has consumed it.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "Timed.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "serve/StreamServer.h"
#include "support/Rng.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

using namespace perfbench;
using namespace specctrl;

namespace {

using workload::BranchEvent;

/// Replays a vector of events (the batch check's source).
class VectorSource final : public workload::EventSource {
public:
  explicit VectorSource(std::span<const BranchEvent> Events) : Events(Events) {}
  bool next(BranchEvent &E) override {
    if (Pos == Events.size())
      return false;
    E = Events[Pos++];
    return true;
  }
  size_t nextBatch(std::span<BranchEvent> Buffer) override {
    const size_t N = std::min(Buffer.size(), Events.size() - Pos);
    std::copy_n(Events.begin() + static_cast<std::ptrdiff_t>(Pos), N,
                Buffer.begin());
    Pos += N;
    return N;
  }

private:
  std::span<const BranchEvent> Events;
  size_t Pos = 0;
};

/// Pushes all of \p Batch, yielding while the ring is full; counts the
/// pushes that found it full.
void pushAll(workload::SpscRing &Ring, std::span<const BranchEvent> Batch,
             uint64_t &Retries) {
  while (!Batch.empty()) {
    const size_t N = Ring.push(Batch);
    Batch = Batch.subspan(N);
    if (!Batch.empty()) {
      ++Retries;
      std::this_thread::yield();
    }
  }
}

struct Params {
  size_t Streams;
  size_t BatchEvents;
  size_t ClosedEvents;     ///< per stream, closed-loop phase
  size_t OpenBatches;      ///< per iteration, open-loop phase
  double OpenEventsPerSec; ///< open-loop offered load
  size_t CheckedStreams;   ///< streams re-run in batch per iteration
  double EventsPerBillion;
  double SiteScale;
  size_t PrefixEvents; ///< decoded trace prefix per benchmark
};

Params paramsFor(bool Tiny) {
  if (Tiny)
    return {48, 1024, 4096, 96, 4.0e6, 4, 1.2e4, 0.02, 16384};
  return {1024, 1024, 65536, 8192, 16.0e6, 16, 1.2e4, 0.02, 98304};
}

struct IterationStats {
  bool Traced = false;
  double ClosedSeconds = 0;
  uint64_t ClosedEvents = 0;
  double OpenStreamUs = 0;
  double DrainSeconds = 0;
  uint64_t RingFullRetries = 0;
  std::vector<double> Occupancy;
  std::vector<double> BatchUs; ///< open loop, due time -> consumed
  std::vector<double> LateUs;  ///< open loop, send start - due time
  uint64_t Requests = 0;
  uint64_t CorrectSpecs = 0;
  uint64_t Speculated = 0;
};

class Serve final : public Workload {
public:
  // One CPU runs the producer and one is left free: with every CPU busy, a
  // stray system thread preempting a consumer for a scheduler slice
  // dominates the open loop's tail latency.
  explicit Serve(const Options &Opt)
      : Workload(Opt), P(paramsFor(Opt.tiny())),
        Consumers(Opt.Jobs > 2 ? Opt.Jobs - 2 : 1) {}

  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"streams", std::to_string(P.Streams)},
            {"consumers", std::to_string(Consumers)},
            {"producers", "1"},
            {"batch_events", std::to_string(P.BatchEvents)},
            {"closed_events_per_stream", std::to_string(P.ClosedEvents)},
            {"open_batches", std::to_string(P.OpenBatches)},
            {"open_events_per_s", std::to_string(P.OpenEventsPerSec)},
            {"events_per_billion", std::to_string(P.EventsPerBillion)},
            {"site_scale", std::to_string(P.SiteScale)},
            {"monitor_period", std::to_string(control().MonitorPeriod)}};
  }
  unsigned setupsPerIteration() const override { return 1; }

  void setup() override;
  double iterate(bool Traced) override;
  void endToEnd(MetricMap &Out) const override;
  void perLayer(const std::map<std::string, SpanTotals> &Spans,
                MetricMap &Out) const override;

private:
  /// bench/serve_ingest's stream policy: short monitor and wait periods
  /// suit streams of tens of thousands of events.
  static core::ReactiveConfig control() {
    core::ReactiveConfig C = core::ReactiveConfig::baseline();
    C.MonitorPeriod = 100;
    C.WaitPeriod = 2000;
    C.OptLatency = 0;
    return C;
  }
  size_t openPerStream() const {
    return (P.OpenBatches + P.Streams - 1) / P.Streams;
  }
  size_t sliceEvents() const {
    return P.ClosedEvents + openPerStream() * P.BatchEvents;
  }
  /// Stream \p S's whole event sequence (closed part, then open part).
  std::span<const BranchEvent> slice(size_t S) const {
    return std::span<const BranchEvent>(Prefix[S % Prefix.size()])
        .subspan(Offsets[S], sliceEvents());
  }

  void checkStreams(serve::StreamServer &Server,
                    const std::vector<serve::StreamServer::StreamHandle> &H,
                    const std::vector<uint64_t> &Pushed, IterationStats &It);

  const Params P;
  const unsigned Consumers;
  std::vector<std::vector<BranchEvent>> Prefix; ///< per benchmark
  std::vector<size_t> Offsets;                  ///< per stream
  std::vector<IterationStats> Iterations;
  workload::TraceArenaStats Arena;
};

void Serve::setup() {
  workload::SuiteScale Scale;
  Scale.EventsPerBillion = P.EventsPerBillion;
  Scale.SiteScale = P.SiteScale;
  workload::TraceArena TraceStore;
  Prefix.clear();
  const std::vector<workload::BenchmarkProfile> &Profiles =
      workload::suiteProfiles();
  for (size_t I = 0; I < Profiles.size(); ++I) {
    if (Opt.tiny() && Profiles[I].Name != "gzip" && Profiles[I].Name != "mcf")
      continue;
    workload::WorkloadSpec Spec = workload::makeBenchmark(Profiles[I], Scale);
    if (Opt.Seed != 0)
      Spec.Seed ^= mixSeed(Opt.Seed, I);
    const workload::InputConfig Ref = Spec.refInput();
    {
      ScopedSpan S("workload.generate");
      const std::shared_ptr<const workload::MaterializedTrace> Trace =
          TraceStore.materialize(Spec, Ref);
      if (Trace)
        S.setItems(Trace->totalEvents());
    }
    const std::unique_ptr<workload::EventSource> Source =
        TraceStore.open(Spec, Ref);
    TimedSource Timed(*Source);
    std::vector<BranchEvent> Events(P.PrefixEvents);
    size_t Have = 0;
    while (Have < Events.size()) {
      const size_t N = Timed.nextBatch(std::span<BranchEvent>(Events).subspan(
          Have, std::min<size_t>(workload::DefaultBatchEvents,
                                 Events.size() - Have)));
      if (N == 0)
        break;
      Have += N;
    }
    if (Have < sliceEvents())
      throw std::runtime_error(Spec.Name + ": ref trace shorter than a stream");
    Events.resize(Have);
    Prefix.push_back(std::move(Events));
  }
  Arena = TraceStore.stats();

  Rng R(mixSeed(Opt.Seed, 0x5E87E));
  Offsets.assign(P.Streams, 0);
  for (size_t S = 0; S < P.Streams; ++S)
    Offsets[S] = static_cast<size_t>(
        R.next() % (Prefix[S % Prefix.size()].size() - sliceEvents() + 1));
}

double Serve::iterate(bool Traced) {
  ScopedSpan Iter("bench.iteration");
  if (SpanRecorder *Rec = SpanRecorder::active())
    Rec->setRoot(Iter.id());
  IterationStats It;
  It.Traced = Traced;

  serve::ServeConfig Cfg;
  Cfg.Consumers = Consumers;
  std::unique_ptr<serve::StreamServer> Owned;
  {
    ScopedSpan Start("serve.start");
    Owned = std::make_unique<serve::StreamServer>(Cfg);
  }
  serve::StreamServer &Server = *Owned;

  std::vector<serve::StreamServer::StreamHandle> Handles(P.Streams);
  {
    const uint64_t Start = nowNs();
    for (size_t S = 0; S < P.Streams; ++S) {
      ScopedSpan Open("serve.openStream");
      Handles[S] = Server.openStream(control());
    }
    It.OpenStreamUs = secondsBetween(Start, nowNs()) * 1e6 /
                      static_cast<double>(P.Streams);
  }
  std::vector<uint64_t> Pushed(P.Streams, 0);

  // Closed loop: round robin, as fast as the rings accept.
  {
    ScopedSpan Phase("bench.closed_loop");
    const uint64_t Start = nowNs();
    for (size_t Off = 0; Off < P.ClosedEvents; Off += P.BatchEvents) {
      for (size_t S = 0; S < P.Streams; ++S) {
        workload::SpscRing &Ring = *Handles[S].Ring;
        const std::span<const BranchEvent> Batch =
            slice(S).subspan(Off, std::min(P.BatchEvents, P.ClosedEvents - Off));
        It.Occupancy.push_back(static_cast<double>(Ring.sizeApprox()));
        ScopedSpan Push("serve.push");
        Push.setItems(Batch.size());
        pushAll(Ring, Batch, It.RingFullRetries);
        Pushed[S] += Batch.size();
      }
    }
    const uint64_t AllPushed = nowNs();
    {
      ScopedSpan Drain("serve.drain");
      for (size_t S = 0; S < P.Streams; ++S)
        while (Server.processed(Handles[S].Id) < Pushed[S])
          std::this_thread::yield();
    }
    const uint64_t End = nowNs();
    It.ClosedSeconds = secondsBetween(Start, End);
    It.DrainSeconds = secondsBetween(AllPushed, End);
    It.ClosedEvents = P.ClosedEvents * P.Streams;
  }

  // Open loop: one batch every BatchEvents / OpenEventsPerSec seconds.  A
  // batch's latency runs from its due time until its stream's controller
  // has consumed it; the producer polls the batches in flight while it
  // waits for the next due time.
  {
    ScopedSpan Phase("bench.open_loop");
    struct InFlight {
      serve::StreamId Id;
      uint64_t Target; ///< stream's processed count once the batch is in
      uint64_t Due;
    };
    std::vector<InFlight> Waiting;
    auto Poll = [&] {
      size_t Kept = 0;
      for (const InFlight &B : Waiting) {
        if (Server.processed(B.Id) >= B.Target)
          It.BatchUs.push_back(static_cast<double>(nowNs() - B.Due) / 1e3);
        else
          Waiting[Kept++] = B;
      }
      Waiting.resize(Kept);
    };
    const double IntervalNs =
        static_cast<double>(P.BatchEvents) / P.OpenEventsPerSec * 1e9;
    const uint64_t Begin = nowNs() + 1000000;
    It.BatchUs.reserve(P.OpenBatches);
    It.LateUs.reserve(P.OpenBatches);
    for (size_t K = 0; K < P.OpenBatches; ++K) {
      const uint64_t Due =
          Begin + static_cast<uint64_t>(static_cast<double>(K) * IntervalNs);
      uint64_t Now;
      while ((Now = nowNs()) < Due)
        Poll();
      const size_t S = K % P.Streams;
      const std::span<const BranchEvent> Batch = slice(S).subspan(
          Pushed[S], std::min(P.BatchEvents, sliceEvents() - Pushed[S]));
      ScopedSpan Push("serve.push_open");
      Push.setItems(Batch.size());
      uint64_t Retries = 0;
      pushAll(*Handles[S].Ring, Batch, Retries);
      Pushed[S] += Batch.size();
      Waiting.push_back({Handles[S].Id, Pushed[S], Due});
      It.LateUs.push_back(static_cast<double>(Now - Due) / 1e3);
    }
    while (!Waiting.empty()) {
      Poll();
      std::this_thread::yield();
    }
    for (const serve::StreamServer::StreamHandle &H : Handles)
      H.Ring->close();
    for (const serve::StreamServer::StreamHandle &H : Handles)
      Server.waitFinished(H.Id);
  }

  {
    ScopedSpan CheckSpan("bench.check");
    checkStreams(Server, Handles, Pushed, It);
  }
  {
    ScopedSpan Stop("serve.stop");
    Owned.reset();
  }
  const double Closed = It.ClosedSeconds;
  Iterations.push_back(std::move(It));
  return Closed;
}

void Serve::checkStreams(
    serve::StreamServer &Server,
    const std::vector<serve::StreamServer::StreamHandle> &Handles,
    const std::vector<uint64_t> &Pushed, IterationStats &It) {
  for (size_t S = 0; S < P.Streams; ++S) {
    Check.attempt();
    const core::ControlStats &Live = Server.streamStats(Handles[S].Id);
    It.Requests += Live.DeployRequests + Live.RevokeRequests;
    It.CorrectSpecs += Live.CorrectSpecs;
    It.Speculated += Live.CorrectSpecs + Live.IncorrectSpecs;
    Check.expect(Server.processed(Handles[S].Id) == Pushed[S] &&
                     Live.EventsConsumed == Pushed[S],
                 "stream " + std::to_string(S) + ": events lost or duplicated");
  }
  // A sample of streams, rotating with the iteration, re-run in batch: the
  // live stats must equal core::runTrace over the same events.
  const size_t Step = std::max<size_t>(1, P.Streams / P.CheckedStreams);
  for (size_t I = 0; I < P.CheckedStreams && I < P.Streams; ++I) {
    const size_t S =
        (I * Step + Iterations.size() * 7 + Opt.Seed) % P.Streams;
    core::ReactiveController Batch(control());
    TimedController Timed(Batch);
    VectorSource Source(slice(S).first(Pushed[S]));
    const core::ControlStats &Expected = core::runTrace(Timed, Source);
    if (!(Expected == Server.streamStats(Handles[S].Id)))
      Check.fail("stream " + std::to_string(S) +
                 ": live stats differ from batch core::runTrace");
  }
}

void Serve::endToEnd(MetricMap &Out) const {
  std::vector<double> Wall, Rate, P50, P90, P99;
  size_t Samples = 0;
  for (const IterationStats &It : Iterations) {
    if (It.Traced)
      continue;
    Wall.push_back(It.ClosedSeconds);
    Rate.push_back(static_cast<double>(It.ClosedEvents) / It.ClosedSeconds);
    P50.push_back(quantile(It.BatchUs, 0.50));
    P90.push_back(quantile(It.BatchUs, 0.90));
    P99.push_back(quantile(It.BatchUs, 0.99));
    Samples += It.BatchUs.size();
  }
  // Percentiles per iteration, then the median over iterations.
  Out["wall_s"] = {median(Wall), "s"};
  Out["ingest_events_per_s"] = {median(Rate), "1/s"};
  Out["batch_p50_us"] = {median(P50), "us"};
  Out["batch_p90_us"] = {median(P90), "us"};
  Out["batch_p99_us"] = {median(P99), "us"};
  Out["batch_samples"] = {static_cast<double>(Samples), "count"};
}

void Serve::perLayer(const std::map<std::string, SpanTotals> &Spans,
                     MetricMap &Out) const {
  std::vector<double> OpenUs, Drain, Occupancy, Late;
  double Retries = 0;
  uint64_t Requests = 0, Correct = 0, Speculated = 0;
  for (const IterationStats &It : Iterations) {
    if (!It.Traced)
      continue;
    OpenUs.push_back(It.OpenStreamUs);
    Drain.push_back(It.DrainSeconds);
    Occupancy.insert(Occupancy.end(), It.Occupancy.begin(), It.Occupancy.end());
    Late.insert(Late.end(), It.LateUs.begin(), It.LateUs.end());
    Retries = static_cast<double>(It.RingFullRetries);
    Requests = It.Requests;
    Correct += It.CorrectSpecs;
    Speculated += It.Speculated;
  }
  Out["workload.generate_ns_per_event"] = {
      selfNsPerItem(Spans, "workload.generate"), "ns/event"};
  Out["workload.materializations"] = {static_cast<double>(Arena.Materializations),
                                      "count"};
  Out["workload.encoded_bytes_per_event"] = {
      Arena.ResidentEvents ? static_cast<double>(Arena.ResidentBytes) /
                                 static_cast<double>(Arena.ResidentEvents)
                           : 0.0,
      "B/event"};
  Out["workload.decode_ns_per_event"] = {
      selfNsPerItem(Spans, "workload.nextBatch"), "ns/event"};
  Out["core.onbatch_ns_per_event"] = {selfNsPerItem(Spans, "core.onBatch"),
                                      "ns/event"};
  Out["core.requests"] = {static_cast<double>(Requests), "count"};
  Out["core.speculated_correct_frac"] = {
      Speculated ? static_cast<double>(Correct) / static_cast<double>(Speculated)
                 : 0.0,
      "frac"};
  Out["serve.open_stream_us"] = {median(OpenUs), "us"};
  Out["serve.push_ns_per_event"] = {selfNsPerItem(Spans, "serve.push"),
                                    "ns/event"};
  Out["serve.ring_full_retries"] = {Retries, "count"};
  Out["serve.ring_occupancy_p99"] = {quantile(Occupancy, 0.99), "events"};
  Out["serve.drain_s"] = {median(Drain), "s"};
  Out["serve.generator_late_p99_us"] = {quantile(Late, 0.99), "us"};
}

} // namespace

std::unique_ptr<Workload> perfbench::makeServe(const Options &Opt) {
  return std::make_unique<Serve>(Opt);
}
