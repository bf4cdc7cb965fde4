//===- workload/EventStream.cpp - Batched branch-event sources ------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/EventStream.h"

using namespace specctrl;
using namespace specctrl::workload;

EventSource::~EventSource() = default;

