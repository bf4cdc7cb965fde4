//===- core/Snapshot.cpp - Controller state snapshots ---------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Snapshot.h"

#include "core/ReactiveController.h"
#include "support/Hash.h"

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::core::snapshot;

namespace specctrl {
namespace core {
namespace snapshot {

std::vector<uint8_t> frame(uint32_t Magic,
                           std::span<const uint8_t> Payload) {
  ByteWriter W;
  W.u32(Magic);
  W.u32(FormatVersion);
  W.u64(Payload.size());
  W.bytes(Payload);
  const size_t HashedLen = W.size();
  std::vector<uint8_t> Out = W.take();
  const uint64_t Sum = hash64(Out.data(), HashedLen);
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(Sum >> (8 * I)));
  return Out;
}

bool unframe(std::span<const uint8_t> Bytes, uint32_t Magic,
             std::span<const uint8_t> &Payload, std::string &Error) {
  // Header (16) + checksum trailer (8) is the minimum framed size.
  if (Bytes.size() < 24) {
    Error = "snapshot truncated: shorter than frame overhead";
    return false;
  }
  ByteReader R(Bytes);
  uint32_t GotMagic = 0, GotVersion = 0;
  uint64_t PayloadLen = 0;
  (void)R.u32(GotMagic);
  (void)R.u32(GotVersion);
  (void)R.u64(PayloadLen);
  if (GotMagic != Magic) {
    Error = "snapshot magic mismatch (wrong or corrupt blob type)";
    return false;
  }
  if (GotVersion != FormatVersion) {
    Error = "unsupported snapshot format version " +
            std::to_string(GotVersion);
    return false;
  }
  if (PayloadLen != Bytes.size() - 24) {
    Error = "snapshot length field disagrees with blob size";
    return false;
  }
  const uint64_t Expect = hash64(Bytes.data(), Bytes.size() - 8);
  uint64_t Got = 0;
  for (int I = 0; I < 8; ++I)
    Got |= static_cast<uint64_t>(Bytes[Bytes.size() - 8 + I]) << (8 * I);
  if (Got != Expect) {
    Error = "snapshot checksum mismatch (corrupt bytes)";
    return false;
  }
  Payload = Bytes.subspan(16, static_cast<size_t>(PayloadLen));
  return true;
}

} // namespace snapshot
} // namespace core
} // namespace specctrl

namespace {

void encodeConfig(ByteWriter &W, const ReactiveConfig &C) {
  W.u64(C.MonitorPeriod);
  W.f64(C.SelectThreshold);
  W.u64(C.EvictSaturation);
  W.u32(C.EvictUp);
  W.u32(C.EvictDown);
  W.u64(C.WaitPeriod);
  W.u32(C.OscillationLimit);
  W.u64(C.OptLatency);
  W.boolean(C.EnableEviction);
  W.boolean(C.EnableRevisit);
  W.u32(C.MonitorSampleRate);
  W.boolean(C.EvictBySampling);
  W.u64(C.EvictSampleWindow);
  W.u64(C.EvictSampleCount);
  W.f64(C.EvictSampleBias);
}

bool decodeConfig(ByteReader &R, ReactiveConfig &C, std::string &Error) {
  uint32_t SampleRate = 0;
  if (!R.u64(C.MonitorPeriod) || !R.f64(C.SelectThreshold) ||
      !R.u64(C.EvictSaturation) || !R.u32(C.EvictUp) ||
      !R.u32(C.EvictDown) || !R.u64(C.WaitPeriod) ||
      !R.u32(C.OscillationLimit) || !R.u64(C.OptLatency) ||
      !R.boolean(C.EnableEviction) || !R.boolean(C.EnableRevisit) ||
      !R.u32(SampleRate) || !R.boolean(C.EvictBySampling) ||
      !R.u64(C.EvictSampleWindow) || !R.u64(C.EvictSampleCount) ||
      !R.f64(C.EvictSampleBias)) {
    Error = "snapshot truncated inside the config block";
    return false;
  }
  C.MonitorSampleRate = SampleRate;
  const std::string Violation = C.validate();
  if (!Violation.empty()) {
    Error = "snapshot config invalid: " + Violation;
    return false;
  }
  return true;
}

void encodeStats(ByteWriter &W, const ControlStats &S) {
  W.u64(S.Branches);
  W.u64(S.LastInstRet);
  W.u64(S.CorrectSpecs);
  W.u64(S.IncorrectSpecs);
  W.u64(S.DeployRequests);
  W.u64(S.RevokeRequests);
  W.u64(S.SuppressedRequests);
  W.u64(S.Evictions);
  W.u64(S.Revisits);
  W.u64(S.EventsConsumed);
  W.u64(S.Touched.size());
  W.bytes({S.Touched.data(), S.Touched.size()});
  W.u64(S.EverBiased.size());
  W.bytes({S.EverBiased.data(), S.EverBiased.size()});
  W.u64(S.SiteEvictions.size());
  for (uint32_t E : S.SiteEvictions)
    W.u32(E);
  W.u64(S.Transitions.size());
  for (const TransitionRecord &T : S.Transitions) {
    W.u32(T.Site);
    W.u32(T.Observed);
    W.u32(T.AgainstOriginal);
  }
}

bool decodeStats(ByteReader &R, ControlStats &S, std::string &Error) {
  if (!R.u64(S.Branches) || !R.u64(S.LastInstRet) ||
      !R.u64(S.CorrectSpecs) || !R.u64(S.IncorrectSpecs) ||
      !R.u64(S.DeployRequests) || !R.u64(S.RevokeRequests) ||
      !R.u64(S.SuppressedRequests) || !R.u64(S.Evictions) ||
      !R.u64(S.Revisits) || !R.u64(S.EventsConsumed)) {
    Error = "snapshot truncated inside the stats scalars";
    return false;
  }
  uint64_t N = 0;
  std::span<const uint8_t> Raw;
  if (!R.u64(N) || !R.bytes(static_cast<size_t>(N), Raw)) {
    Error = "snapshot truncated inside the touched-site vector";
    return false;
  }
  S.Touched.assign(Raw.begin(), Raw.end());
  if (!R.u64(N) || !R.bytes(static_cast<size_t>(N), Raw)) {
    Error = "snapshot truncated inside the ever-biased vector";
    return false;
  }
  S.EverBiased.assign(Raw.begin(), Raw.end());
  if (!R.u64(N) || N > R.remaining() / 4) {
    Error = "snapshot truncated inside the per-site eviction vector";
    return false;
  }
  S.SiteEvictions.resize(static_cast<size_t>(N));
  for (uint32_t &E : S.SiteEvictions)
    (void)R.u32(E);
  if (!R.u64(N) || N > R.remaining() / 12) {
    Error = "snapshot truncated inside the transition records";
    return false;
  }
  S.Transitions.resize(static_cast<size_t>(N));
  for (TransitionRecord &T : S.Transitions) {
    (void)R.u32(T.Site);
    (void)R.u32(T.Observed);
    (void)R.u32(T.AgainstOriginal);
  }
  for (uint8_t V : S.Touched)
    if (V > 1) {
      Error = "snapshot invalid: touched flag out of {0, 1}";
      return false;
    }
  for (uint8_t V : S.EverBiased)
    if (V > 1) {
      Error = "snapshot invalid: ever-biased flag out of {0, 1}";
      return false;
    }
  return true;
}

} // namespace

namespace specctrl {
namespace core {

/// Friend of ReactiveController: the only code with raw access to the
/// per-site FSM records, kept out of the controller itself so the hot
/// path stays free of serialization concerns.
struct ControllerSnapshotAccess {
  using SiteState = ReactiveController::SiteState;
  using FsmState = ReactiveController::FsmState;
  using PendingKind = ReactiveController::PendingKind;

  static void encode(ByteWriter &W, const ReactiveController &C) {
    encodeConfig(W, C.Config);
    W.u64(C.States.size());
    for (const SiteState &S : C.States) {
      W.u8(static_cast<uint8_t>(S.State));
      W.boolean(S.Deployed);
      W.boolean(S.DeployedDir);
      W.boolean(S.Blacklisted);
      W.u8(static_cast<uint8_t>(S.Pending));
      W.boolean(S.PendingDir);
      W.u8(S.TransRemaining);
      W.u8(S.TransWrong);
      W.boolean(S.TransOriginalDir);
      W.u32(S.Optimizations);
      W.u32(S.MonitorExecs);
      W.u32(S.MonitorSampled);
      W.u32(S.MonitorTaken);
      W.u32(S.WindowPos);
      W.u32(S.SampleSeen);
      W.u32(S.SampleWrong);
      W.u64(S.ReadyAt);
      W.u64(S.EvictCounter);
      W.u64(S.WaitExecs);
    }
    encodeStats(W, C.Stats);
  }

  static std::unique_ptr<ReactiveController>
  decode(ByteReader &R, std::string &Error) {
    ReactiveConfig Config;
    if (!decodeConfig(R, Config, Error))
      return nullptr;
    auto Out = std::make_unique<ReactiveController>(Config);
    uint64_t SiteCount = 0;
    // Each serialized site is at least 28 bytes; the bound rejects a
    // corrupt count before the resize can allocate absurd amounts.
    if (!R.u64(SiteCount) || SiteCount > R.remaining() / 28) {
      Error = "snapshot truncated inside the site-state table";
      return nullptr;
    }
    Out->States.resize(static_cast<size_t>(SiteCount));
    for (SiteState &S : Out->States) {
      uint8_t Fsm = 0, Pending = 0;
      if (!R.u8(Fsm) || !R.boolean(S.Deployed) ||
          !R.boolean(S.DeployedDir) || !R.boolean(S.Blacklisted) ||
          !R.u8(Pending) || !R.boolean(S.PendingDir) ||
          !R.u8(S.TransRemaining) || !R.u8(S.TransWrong) ||
          !R.boolean(S.TransOriginalDir) || !R.u32(S.Optimizations) ||
          !R.u32(S.MonitorExecs) || !R.u32(S.MonitorSampled) ||
          !R.u32(S.MonitorTaken) || !R.u32(S.WindowPos) ||
          !R.u32(S.SampleSeen) || !R.u32(S.SampleWrong) ||
          !R.u64(S.ReadyAt) || !R.u64(S.EvictCounter) ||
          !R.u64(S.WaitExecs)) {
        Error = "snapshot truncated inside a site-state record";
        return nullptr;
      }
      if (Fsm > static_cast<uint8_t>(FsmState::Unbiased)) {
        Error = "snapshot invalid: FSM state out of range";
        return nullptr;
      }
      if (Pending > static_cast<uint8_t>(PendingKind::Revoke)) {
        Error = "snapshot invalid: pending-request kind out of range";
        return nullptr;
      }
      if (S.MonitorSampled > S.MonitorExecs ||
          S.MonitorTaken > S.MonitorSampled) {
        Error = "snapshot invalid: inconsistent monitor counters";
        return nullptr;
      }
      S.State = static_cast<FsmState>(Fsm);
      S.Pending = static_cast<PendingKind>(Pending);
    }
    if (!decodeStats(R, Out->Stats, Error))
      return nullptr;
    // state() grows States and the per-site stats vectors in lockstep; a
    // well-formed snapshot preserves that invariant.
    const size_t Sites = Out->States.size();
    if (Out->Stats.Touched.size() != Sites ||
        Out->Stats.EverBiased.size() != Sites ||
        Out->Stats.SiteEvictions.size() != Sites) {
      Error = "snapshot invalid: per-site vectors disagree on site count";
      return nullptr;
    }
    if (!R.done()) {
      Error = "snapshot invalid: trailing bytes after the payload";
      return nullptr;
    }
    return Out;
  }
};

std::vector<uint8_t> snapshotController(const ReactiveController &Controller) {
  ByteWriter W;
  ControllerSnapshotAccess::encode(W, Controller);
  const std::vector<uint8_t> Payload = W.take();
  return frame(ControllerMagic, Payload);
}

std::unique_ptr<ReactiveController>
restoreController(std::span<const uint8_t> Bytes, std::string &Error) {
  std::span<const uint8_t> Payload;
  if (!unframe(Bytes, ControllerMagic, Payload, Error))
    return nullptr;
  ByteReader R(Payload);
  return ControllerSnapshotAccess::decode(R, Error);
}

} // namespace core
} // namespace specctrl
