// The three workloads. Each runs in one of two modes:
//
//  * untraced (tracer == nullptr): set up kSetups times, then a
//    closed-loop measured phase of `cfg.seconds`; fills the end-to-end
//    metrics;
//  * traced: one traced set-up, then the calls into each module's public
//    functions that its per-layer metrics come from. With `measure` set
//    it also runs the measured phase twice, untraced and traced, for
//    trace.overhead.
//
// Every statement is checked against a reference computed with plain
// loops over the raw generated values, outside timing and set-up.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void TpchSerial(const Config& cfg, Tracer* tracer, bool measure,
                Outcome& out);
void GroupByCard(const Config& cfg, Tracer* tracer, bool measure,
                 Outcome& out);
/// Traced runs only: the serving configuration's layer metrics (parse,
/// admission, scheduler, lanes=4 packing and kernels).
void SqlGoverned(const Config& cfg, Tracer& tracer, Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
