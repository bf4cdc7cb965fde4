//===- perfbench/src/Timed.h - Span-recording layer decorators --*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decorators the traced run wraps around the library's two streaming
/// interfaces: every nextBatch of a workload::EventSource becomes a
/// "workload.nextBatch" span and every onBatch of a
/// core::SpeculationController a "core.onBatch" span, each carrying the
/// batch's event count.  Everything else forwards unchanged, so the stats
/// a decorated run produces are the undecorated run's.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TIMED_H
#define PERFBENCH_TIMED_H

#include "Spans.h"

#include "core/Controller.h"
#include "workload/EventStream.h"

namespace perfbench {

class TimedSource final : public specctrl::workload::EventSource {
public:
  explicit TimedSource(specctrl::workload::EventSource &Inner) : Inner(Inner) {}

  bool next(specctrl::workload::BranchEvent &Event) override {
    return Inner.next(Event);
  }
  size_t nextBatch(std::span<specctrl::workload::BranchEvent> Buffer) override {
    ScopedSpan S("workload.nextBatch");
    const size_t N = Inner.nextBatch(Buffer);
    S.setItems(N);
    return N;
  }

private:
  specctrl::workload::EventSource &Inner;
};

class TimedController final : public specctrl::core::SpeculationController {
public:
  explicit TimedController(specctrl::core::SpeculationController &Inner)
      : Inner(Inner) {}

  specctrl::core::BranchVerdict onBranch(specctrl::core::SiteId Site,
                                         bool Taken,
                                         uint64_t InstRet) override {
    return Inner.onBranch(Site, Taken, InstRet);
  }
  void onBatch(std::span<const specctrl::workload::BranchEvent> Events,
               specctrl::core::BranchVerdict *Verdicts) override {
    ScopedSpan S("core.onBatch");
    S.setItems(Events.size());
    Inner.onBatch(Events, Verdicts);
  }
  bool isDeployed(specctrl::core::SiteId Site) const override {
    return Inner.isDeployed(Site);
  }
  bool deployedDirection(specctrl::core::SiteId Site) const override {
    return Inner.deployedDirection(Site);
  }
  const specctrl::core::ControlStats &stats() const override {
    return Inner.stats();
  }
  specctrl::core::ControlStats &stats() override { return Inner.stats(); }
  const char *name() const override { return Inner.name(); }

private:
  specctrl::core::SpeculationController &Inner;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_H
