#ifndef PERFBENCH_ISOLATED_H_
#define PERFBENCH_ISOLATED_H_

// Per-call timings of the layers that have no registry seam, each driven
// through its public functions alone with inputs sized from the workload.
// Every function returns the median ns per call over several batches.

#include <cstdint>

#include "db/config.h"

namespace perfbench {

/// sim::EventQueue in the hold model: `pending` events stay queued while
/// each call pops the earliest and pushes its successor.
double EventQueueHoldNs(int pending, uint64_t seed);

/// OCC: one commit attempt (attempt start, certification over the read
/// set, commit stamping of the write set) with the workload's access count
/// and write probability over its database size.
double OccCertifyNs(const alc::db::LogicalConfig& logical, uint64_t seed);

/// 2PL: one uncontended lock acquire plus its share of the release at
/// commit, over the workload's access plans.
double LockAcquireReleaseNs(const alc::db::LogicalConfig& logical,
                            uint64_t seed);

/// AdmissionGate: one submission into a frozen gate holding `queue_length`
/// waiters, then its retraction and release. The gate admits only from
/// inside a running simulation, so this is the queue path that a gate
/// submission and a front-end retraction take.
double GateQueueCycleNs(const alc::db::SystemConfig& node, int queue_length);

/// telemetry::LogHistogram::Add over exponential values with the workload's
/// mean response time.
double HistogramAddNs(double mean_value, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_ISOLATED_H_
