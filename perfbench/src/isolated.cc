#include "isolated.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "control/gate.h"
#include "db/database.h"
#include "db/metrics.h"
#include "db/occ.h"
#include "db/system.h"
#include "db/transaction.h"
#include "db/two_phase_locking.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/histogram.h"

namespace perfbench {

using namespace alc;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBatches = 7;
constexpr double kBatchSeconds = 0.02;
constexpr int kPlans = 1024;

/// Median ns per call of `body(calls)` over kBatches batches, each sized to
/// take about kBatchSeconds after one warm-up batch.
template <typename Body>
double MedianNsPerCall(Body body) {
  auto time_ns = [&body](long calls) {
    const Clock::time_point start = Clock::now();
    body(calls);
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  const long probe = 1000;
  const double probe_ns = std::max(time_ns(probe), 1.0);
  const long calls = std::max(
      probe, static_cast<long>(kBatchSeconds * 1e9 / probe_ns * probe));
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    samples.push_back(time_ns(calls) / static_cast<double>(calls));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Access plans shaped like the workload's: k distinct items out of the
/// database, each written with the updater write probability.
std::vector<db::Transaction> DrawPlans(const db::LogicalConfig& logical,
                                       uint64_t seed) {
  sim::RandomStream rng(seed);
  std::vector<db::Transaction> plans(kPlans);
  std::vector<uint32_t> items;
  for (db::Transaction& txn : plans) {
    rng.SampleWithoutReplacement(logical.db_size, logical.accesses_per_txn,
                                 &items);
    const bool query = rng.NextBernoulli(logical.query_fraction);
    for (const uint32_t item : items) {
      const bool write = !query && rng.NextBernoulli(logical.write_fraction);
      txn.access_items.push_back(item);
      txn.access_modes.push_back(write ? db::AccessMode::kWrite
                                       : db::AccessMode::kRead);
      txn.read_set.push_back(item);
      if (write) txn.write_set.push_back(item);
    }
  }
  return plans;
}

}  // namespace

double EventQueueHoldNs(int pending, uint64_t seed) {
  sim::EventQueue queue;
  sim::RandomStream rng(seed);
  std::vector<double> gaps(4096);
  for (double& gap : gaps) gap = rng.NextExponential(1.0);
  long sink = 0;
  for (int i = 0; i < std::max(pending, 1); ++i) {
    queue.Push(gaps[static_cast<size_t>(i) % gaps.size()], [&sink] { ++sink; });
  }
  size_t next = 0;
  const double ns = MedianNsPerCall([&](long calls) {
    for (long c = 0; c < calls; ++c) {
      sim::EventQueue::Fired fired = queue.Pop();
      fired.cell();
      queue.Push(fired.time + gaps[next], [&sink] { ++sink; });
      next = (next + 1) % gaps.size();
    }
  });
  if (sink < 0) std::abort();  // keeps the callbacks observable
  return ns;
}

double OccCertifyNs(const db::LogicalConfig& logical, uint64_t seed) {
  db::Database database(logical.db_size);
  db::Metrics metrics;
  db::TimestampCertifier occ(&database, &metrics);
  std::vector<db::Transaction> plans = DrawPlans(logical, seed);
  size_t next = 0;
  long committed = 0;
  const double ns = MedianNsPerCall([&](long calls) {
    for (long c = 0; c < calls; ++c) {
      db::Transaction& txn = plans[next];
      next = (next + 1) % plans.size();
      occ.OnAttemptStart(&txn);
      if (occ.CertifyCommit(&txn)) {
        occ.OnCommit(&txn);
        ++committed;
      } else {
        occ.OnAbort(&txn);
      }
    }
  });
  if (committed < 0) std::abort();
  return ns;
}

double LockAcquireReleaseNs(const db::LogicalConfig& logical, uint64_t seed) {
  sim::Simulator simulator;
  db::Database database(logical.db_size);
  db::Metrics metrics;
  metrics.blocked_track.Start(0.0, 0.0);
  db::LockManager locks(&database, &metrics, &simulator);
  locks.SetAbortHook([](db::Transaction*, db::AbortReason) {});
  std::vector<db::Transaction> plans = DrawPlans(logical, seed);
  const int k = logical.accesses_per_txn;
  size_t next = 0;
  long granted = 0;
  // One call = one transaction's k acquires and its release at commit.
  const double per_txn = MedianNsPerCall([&](long calls) {
    for (long c = 0; c < calls; ++c) {
      db::Transaction& txn = plans[next];
      next = (next + 1) % plans.size();
      locks.OnAttemptStart(&txn);
      for (int i = 0; i < k; ++i) {
        locks.RequestAccess(&txn, i, [&granted] { ++granted; });
      }
      locks.OnCommit(&txn);
    }
  });
  if (granted < 0) std::abort();
  return per_txn / k;
}

double GateQueueCycleNs(const db::SystemConfig& node, int queue_length) {
  sim::Simulator simulator;
  db::SystemConfig config = node;
  config.arrivals = db::ArrivalMode::kExternal;
  db::TransactionSystem system(&simulator, config);
  control::AdmissionGate gate(&system, 1.0);
  gate.SetFrozen(true);
  system.Start();
  for (int i = 0; i < queue_length; ++i) system.SubmitExternal();
  std::vector<db::Transaction*> retracted;
  retracted.reserve(1);
  return MedianNsPerCall([&](long calls) {
    for (long c = 0; c < calls; ++c) {
      system.SubmitExternal();
      gate.RetractQueued(1, &retracted);
      system.ReleaseQueued(retracted.back());
      retracted.clear();
    }
  });
}

double HistogramAddNs(double mean_value, uint64_t seed) {
  telemetry::LogHistogram hist;
  sim::RandomStream rng(seed);
  std::vector<double> values(4096);
  for (double& value : values) value = rng.NextExponential(mean_value);
  size_t next = 0;
  const double ns = MedianNsPerCall([&](long calls) {
    for (long c = 0; c < calls; ++c) {
      hist.Add(values[next]);
      next = (next + 1) % values.size();
    }
  });
  if (hist.count() == 0) std::abort();
  return ns;
}

}  // namespace perfbench
