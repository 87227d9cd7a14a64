// perfbench — the repository benchmark. Runs one checked-in workload
// through core::RunSpec on one simulation thread and prints what a spec run
// reports (simulated throughput and response times) and what it costs
// (set-up and run wall time, memory). With --trace 1 the same runs go
// through timing decorators at the registry seams and the layers without a
// seam are timed in isolation, which yields the per-layer table.
//
//   perfbench --workload diurnal_1m --seed 1 --seconds 20 --trace 0
//             [--root DIR]   (checkout root holding specs/ and perfbench/)
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. A run that fails a correctness check counts as
// failed; see README.md for the checks and the metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/spec.h"
#include "isolated.h"
#include "seams.h"
#include "telemetry/histogram.h"

// Counting allocator: every path to the heap in this binary bumps the
// counter, library code included, so run.allocs_per_commit is exact.
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace alc;
using perfbench::Layer;
using perfbench::TraceTotals;
using Clock = std::chrono::steady_clock;

/// One benchmark workload: a checked-in spec, the overrides that size it to
/// a measured pass, and how many seeds one run pools. Pooling replications
/// keeps the simulated tail percentiles steady from one --seed to the next.
struct WorkloadDef {
  const char* name;
  const char* spec_path;  // relative to the checkout root
  std::vector<std::pair<std::string, std::string>> overrides;
  int replications;
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> workloads = {
      // The first 30 s of the diurnal curve (mean rising to peak): the
      // whole 360 s takes ~50 s of wall, too long to repeat within a run.
      {"diurnal_1m", "specs/diurnal_1m.spec",
       {{"warmup", "5"}, {"duration", "30"}}, 1},
      {"elasticity_flash", "specs/elasticity_flash.spec", {}, 6},
      {"paper_2pl", "perfbench/workloads/paper_2pl.spec", {}, 6},
  };
  return workloads;
}

struct Args {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
};

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ----------------------------------------------------------------- checks --

/// Failed correctness checks, reported on stderr as they happen.
struct Checks {
  int failures = 0;
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failures;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void Double(double v) { Bytes(&v, sizeof v); }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) { Bytes(s.data(), s.size() + 1); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

const telemetry::LogHistogram& ResponseHist(const core::SpecRunResult& r) {
  return r.cluster ? r.cluster_result.response_hist : r.single.response_hist;
}

const telemetry::LogHistogram& PhaseHist(const core::SpecRunResult& r,
                                         telemetry::Phase phase) {
  const auto i = static_cast<size_t>(phase);
  return r.cluster ? r.cluster_result.phase_hists[i] : r.single.phase_hists[i];
}

/// Digest of everything a run reports: the metric snapshot plus the sim_*
/// values. Identical across repetitions and across traced/untraced runs.
uint64_t Digest(const core::SpecRunResult& r) {
  Fnv h;
  for (const telemetry::MetricSample& s : r.metrics()) {
    h.Str(s.name);
    h.U64(static_cast<uint64_t>(s.kind));
    for (double v : {s.value, s.mean, s.p50, s.p95, s.p99, s.p999}) {
      h.Double(v);
    }
    h.U64(s.count);
  }
  const telemetry::LogHistogram& hist = ResponseHist(r);
  h.U64(r.commits());
  h.Double(r.total_throughput());
  h.Double(hist.Quantile(0.5));
  h.Double(hist.Quantile(0.999));
  h.U64(hist.count());
  return h.value();
}

/// Throughput of the final monitor interval: zero means the simulated
/// system stopped committing before the run ended.
double LastIntervalThroughput(const core::SpecRunResult& r) {
  const std::vector<core::TrajectoryPoint>& points =
      r.cluster ? r.cluster_result.aggregate : r.single.trajectory;
  return points.empty() ? 0.0 : points.back().throughput;
}

/// Sum of a per-node metric ("node<i>.<suffix>") over the fleet.
double SumNodeMetric(const core::SpecRunResult& r, const char* suffix) {
  double sum = 0.0;
  for (const telemetry::MetricSample& s : r.metrics()) {
    if (s.name.compare(0, 4, "node") != 0) continue;
    const size_t dot = s.name.find('.');
    if (dot != std::string::npos && s.name.compare(dot + 1, std::string::npos,
                                                   suffix) == 0) {
      sum += s.value;
    }
  }
  return sum;
}

double NamedMetric(const core::SpecRunResult& r, const char* name) {
  for (const telemetry::MetricSample& s : r.metrics()) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

/// Samples strictly above `value`, counting whole buckets only.
uint64_t CountAbove(const telemetry::LogHistogram& hist, double value) {
  uint64_t above = hist.overflow();
  const auto& buckets = hist.buckets();
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (telemetry::LogHistogram::BucketLow(static_cast<int>(i)) > value) {
      above += buckets[i];
    }
  }
  return above;
}

// ------------------------------------------------------------------ specs --

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream text;
  text << file.rdbuf();
  *out = text.str();
  return true;
}

/// Spec text -> the spec one replication runs. `setup_only` shrinks the run
/// to a sliver of simulated time: what remains is parse, fleet build,
/// placement catalog and session tables, i.e. set-up.
bool BuildSpec(const std::string& text, const WorkloadDef& workload,
               uint64_t seed, bool setup_only, core::ExperimentSpec* spec,
               std::string* error) {
  if (!core::ParseSpec(text, spec, error)) return false;
  for (const auto& [key, value] : workload.overrides) {
    if (!core::ApplySpecOverride(spec, key, value, error)) return false;
  }
  if (!core::ApplySpecOverride(spec, "seed", std::to_string(seed), error)) {
    return false;
  }
  if (setup_only) {
    return core::ApplySpecOverride(spec, "warmup", "0", error) &&
           core::ApplySpecOverride(spec, "duration", "1e-06", error);
  }
  return true;
}

uint64_t ReplicationSeed(uint64_t seed, int replication) {
  return seed * 1000 + static_cast<uint64_t>(replication);
}

/// Median wall time of spec text -> first simulated event. Small specs take
/// about a millisecond, so each sample averages a batch of builds.
double MeasureSetup(const std::string& text, const WorkloadDef& workload,
                    uint64_t seed, Checks* checks) {
  auto build_once = [&] {
    core::ExperimentSpec spec;
    std::string error;
    const bool ok = BuildSpec(text, workload, seed, true, &spec, &error);
    checks->Expect(ok, "set-up spec: " + error);
    if (ok) core::RunSpec(spec);
  };
  const Clock::time_point first = Clock::now();
  build_once();
  const double once = Seconds(first, Clock::now());
  const int batch = std::max(1, static_cast<int>(std::ceil(0.05 / once)));
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 7 ||
         (samples.size() < 64 && Seconds(start, Clock::now()) < 1.5)) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch; ++i) build_once();
    samples.push_back(Seconds(t0, Clock::now()) / batch);
  }
  return Median(samples);
}

// -------------------------------------------------------------- measuring --

/// One replication: its untraced and traced specs, the first result (all
/// reported values are deterministic, so later repetitions only have to
/// match it), and the first-seen deterministic counts.
struct Replication {
  core::ExperimentSpec spec;
  core::ExperimentSpec traced_spec;
  core::SpecRunResult first;
  uint64_t digest = 0;
  uint64_t allocs = 0;
  std::optional<TraceTotals> traced;
};

/// Sums over the replications of one measured pass.
struct Pass {
  double wall = 0.0;
  double traced_wall = 0.0;
  TraceTotals traced;
};

void AddTotals(const TraceTotals& from, TraceTotals* into) {
  for (int i = 0; i < perfbench::kNumLayers; ++i) {
    into->layers[i].calls += from.layers[i].calls;
    into->layers[i].incl_ns += from.layers[i].incl_ns;
    into->layers[i].self_ns += from.layers[i].self_ns;
  }
  into->arrival_routes += from.arrival_routes;
  into->retraction_routes += from.retraction_routes;
  into->events += from.events;
}

bool SameCounts(const TraceTotals& a, const TraceTotals& b) {
  for (int i = 0; i < perfbench::kNumLayers; ++i) {
    if (a.layers[i].calls != b.layers[i].calls) return false;
  }
  return a.arrival_routes == b.arrival_routes &&
         a.retraction_routes == b.retraction_routes && a.events == b.events;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-38s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Deterministic whole-run totals over the replications' first results.
struct Totals {
  double commits = 0.0;  // whole run, every node
  double aborts = 0.0;
  double certification_aborts = 0.0;
  double lock_waits = 0.0;
  double lock_requests = 0.0;
  double submitted = 0.0;
  double useful_cpu = 0.0;
  double wasted_cpu = 0.0;
  double retracted = 0.0;
  // Means over replications (one spec run each):
  double remote_frac = 0.0;
  double migrations = 0.0;
  double false_declarations = 0.0;
  double misroutes = 0.0;
  double provisions = 0.0;
  double throughput = 0.0;
  double mean_response = 0.0;
  double pending_events = 0.0;  // estimated, see Summarize
  double gate_queue = 0.0;      // per node
  telemetry::LogHistogram response;
  std::array<telemetry::LogHistogram, telemetry::kNumPhases> phases;
};

double PostWarmupMean(const std::vector<core::TrajectoryPoint>& points,
                      double warmup, double core::TrajectoryPoint::*field) {
  double sum = 0.0;
  int n = 0;
  for (const core::TrajectoryPoint& p : points) {
    if (p.time < warmup) continue;
    sum += p.*field;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

Totals Summarize(const std::vector<Replication>& reps) {
  Totals t;
  const double n = static_cast<double>(reps.size());
  for (const Replication& rep : reps) {
    const core::SpecRunResult& r = rep.first;
    t.commits += SumNodeMetric(r, "commits");
    const double cert = SumNodeMetric(r, "aborts_certification");
    t.certification_aborts += cert;
    t.aborts += cert + SumNodeMetric(r, "aborts_deadlock") +
                SumNodeMetric(r, "aborts_displacement");
    t.lock_waits += SumNodeMetric(r, "lock_waits");
    t.lock_requests += SumNodeMetric(r, "lock_requests");
    t.submitted += SumNodeMetric(r, "submitted");
    t.useful_cpu += SumNodeMetric(r, "useful_cpu");
    t.wasted_cpu += SumNodeMetric(r, "wasted_cpu");
    t.throughput += r.total_throughput() / n;
    t.mean_response += r.mean_response() / n;
    t.response.Merge(ResponseHist(r));
    for (int i = 0; i < telemetry::kNumPhases; ++i) {
      t.phases[i].Merge(PhaseHist(r, static_cast<telemetry::Phase>(i)));
    }
    // Pending events ~ in-system transactions (one service or think event
    // each) + live sessions + thinking terminals + a monitor and a probe
    // timer per node.
    const double nodes = static_cast<double>(rep.spec.nodes.size());
    if (r.cluster) {
      const core::ClusterResult& c = r.cluster_result;
      t.retracted += static_cast<double>(c.retracted);
      t.remote_frac += c.remote_frac / n;
      t.migrations += static_cast<double>(c.migrations) / n;
      t.false_declarations += static_cast<double>(c.false_declarations) / n;
      t.misroutes += static_cast<double>(c.misroutes) / n;
      t.provisions += static_cast<double>(c.provisions) / n;
      t.pending_events +=
          (PostWarmupMean(c.aggregate, c.warmup, &core::TrajectoryPoint::load) +
           NamedMetric(r, "workload.active_sessions") + 2.0 * nodes) /
          n;
      t.gate_queue += PostWarmupMean(c.aggregate, c.warmup,
                                     &core::TrajectoryPoint::gate_queue) /
                      nodes / n;
    } else {
      const core::ExperimentResult& s = r.single;
      const double terminals =
          static_cast<double>(rep.spec.nodes[0].system.physical.num_terminals);
      t.pending_events += (terminals + 2.0) / n;
      t.gate_queue += PostWarmupMean(s.trajectory, s.warmup,
                                     &core::TrajectoryPoint::gate_queue) /
                      n;
    }
  }
  return t;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--root DIR]\n  workloads:");
  for (const WorkloadDef& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const WorkloadDef& w : Workloads()) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--root") {
      args->root = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const WorkloadDef& workload = *args.workload;

  std::string text;
  const std::string path = args.root + "/" + workload.spec_path;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
    return 1;
  }

  Checks checks;
  std::vector<Replication> reps(static_cast<size_t>(workload.replications));
  for (int r = 0; r < workload.replications; ++r) {
    Replication& rep = reps[static_cast<size_t>(r)];
    std::string error;
    if (!BuildSpec(text, workload, ReplicationSeed(args.seed, r), false,
                   &rep.spec, &error)) {
      std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    core::ExperimentSpec reparsed;
    const bool parsed = core::ParseSpec(core::PrintSpec(rep.spec), &reparsed,
                                        &error);
    checks.Expect(parsed && reparsed == rep.spec,
                  "ParseSpec(PrintSpec(s)) != s for replication " +
                      std::to_string(r) + " " + error);
    rep.traced_spec = rep.spec;
    if (args.trace &&
        !perfbench::InstallTimedSeams(&rep.traced_spec, &error)) {
      std::fprintf(stderr, "perfbench: timed seams: %s\n", error.c_str());
      return 1;
    }
  }

  const double setup_s =
      args.trace ? 0.0
                 : MeasureSetup(text, workload, ReplicationSeed(args.seed, 0),
                                &checks);

  // Measured passes: every replication untraced (and, with --trace, traced)
  // once per pass; at least two passes so every repetition is compared.
  long attempted = 0;
  long failed = 0;
  std::vector<Pass> passes;
  perfbench::Tracer& tracer = perfbench::Tracer::Get();
  const Clock::time_point start = Clock::now();
  double last_pass_s = 0.0;
  while (passes.size() < 2 ||
         (Seconds(start, Clock::now()) + last_pass_s <= args.seconds &&
          passes.size() < 1000)) {
    const Clock::time_point pass_start = Clock::now();
    Pass pass;
    for (Replication& rep : reps) {
      const std::string tag = "replication seed " +
                              std::to_string(rep.spec.seed) + ", pass " +
                              std::to_string(passes.size());
      const int failures_before = checks.failures;
      const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
      const Clock::time_point t0 = Clock::now();
      core::SpecRunResult result = core::RunSpec(rep.spec);
      pass.wall += Seconds(t0, Clock::now());
      const uint64_t allocs =
          g_allocs.load(std::memory_order_relaxed) - allocs_before;
      const uint64_t digest = Digest(result);
      ++attempted;
      checks.Expect(result.commits() > 0, tag + ": no commits in window");
      checks.Expect(LastIntervalThroughput(result) > 0.0,
                    tag + ": no commits in the last monitor interval");
      if (passes.empty()) {
        rep.digest = digest;
        rep.allocs = allocs;
        rep.first = std::move(result);
      } else {
        checks.Expect(digest == rep.digest, tag + ": digest differs");
        checks.Expect(allocs == rep.allocs,
                      tag + ": allocations differ (" + std::to_string(allocs) +
                          " vs " + std::to_string(rep.allocs) + ")");
      }
      if (args.trace) {
        tracer.Reset();
        const Clock::time_point t1 = Clock::now();
        const core::SpecRunResult traced = core::RunSpec(rep.traced_spec);
        pass.traced_wall += Seconds(t1, Clock::now());
        ++attempted;
        checks.Expect(Digest(traced) == rep.digest,
                      tag + ": traced digest differs from untraced");
        const TraceTotals& totals = tracer.totals();
        if (!rep.traced) {
          rep.traced = totals;
        } else {
          checks.Expect(SameCounts(totals, *rep.traced),
                        tag + ": traced counts differ");
        }
        AddTotals(totals, &pass.traced);
      }
      if (checks.failures != failures_before) ++failed;
    }
    std::fprintf(stderr, "perfbench: pass %zu: untraced %.4f s, traced %.4f s\n",
                 passes.size(), pass.wall, pass.traced_wall);
    passes.push_back(pass);
    last_pass_s = Seconds(pass_start, Clock::now());
  }

  const Totals t = Summarize(reps);
  const double p999 = t.response.Quantile(0.999);
  checks.Expect(CountAbove(t.response, p999) >= 10,
                "fewer than 10 samples beyond p99.9");

  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall);
  const double run_s = Median(walls);

  std::vector<Metric> metrics;
  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"setup_s", "s", setup_s},
        {"run_s", "s", run_s},
        {"wall_commits_per_s", "commits/s", Ratio(t.commits, run_s)},
        {"peak_rss_mb", "MiB", static_cast<double>(usage.ru_maxrss) / 1024.0},
        {"sim_throughput", "commits/sim_s", t.throughput},
        {"sim_response_p50_s", "sim_s", t.response.Quantile(0.5)},
        {"sim_response_p999_s", "sim_s", p999},
        {"sim_commits", "count", static_cast<double>(t.response.count())},
    };
  } else {
    // Traced numbers: the median pass by traced wall time.
    std::vector<size_t> order(passes.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return passes[a].traced_wall < passes[b].traced_wall;
    });
    const Pass& mid = passes[order[order.size() / 2]];
    const TraceTotals& tr = mid.traced;
    const double traced_ns = mid.traced_wall * 1e9;
    const double run_ns = run_s * 1e9;
    std::vector<double> overheads;
    for (const Pass& p : passes) overheads.push_back(p.traced_wall / p.wall - 1);
    auto per_call = [](const perfbench::LayerTotals& l) {
      return Ratio(l.incl_ns, static_cast<double>(l.calls));
    };
    auto share = [&](Layer layer) {
      return Ratio(tr.at(layer).incl_ns, traced_ns);
    };
    double self_ns = 0.0;
    for (const perfbench::LayerTotals& l : tr.layers) self_ns += l.self_ns;

    const core::ExperimentSpec& spec = reps[0].spec;
    const db::SystemConfig& node = spec.nodes[0].system;
    const bool occ = node.cc == db::CcScheme::kOptimisticCertification;
    const uint64_t iso_seed = ReplicationSeed(args.seed, 0);
    const double queue_ns = perfbench::EventQueueHoldNs(
        static_cast<int>(std::lround(t.pending_events)), iso_seed);
    const double certify_ns = perfbench::OccCertifyNs(node.logical, iso_seed);
    const double lock_ns =
        perfbench::LockAcquireReleaseNs(node.logical, iso_seed);
    const double gate_ns = perfbench::GateQueueCycleNs(
        node, static_cast<int>(std::lround(t.gate_queue)));
    const double hist_ns =
        perfbench::HistogramAddNs(std::max(t.mean_response, 1e-3), iso_seed);
    // One response histogram add per commit, plus one per phase when the
    // nodes record phases.
    const double hist_adds =
        t.commits * (1.0 + (node.telemetry.per_phase ? telemetry::kNumPhases
                                                     : 0));
    const double events = static_cast<double>(tr.events);
    double allocs = 0.0;
    for (const Replication& rep : reps) allocs += static_cast<double>(rep.allocs);
    auto phase_mean = [&](telemetry::Phase p) {
      return t.phases[static_cast<size_t>(p)].mean();
    };

    metrics = {
        {"sim.events_per_commit", "count", Ratio(events, t.commits)},
        {"sim.ns_per_event", "ns", Ratio(run_ns, events)},
        {"sim.queue_push_pop_ns", "ns", queue_ns},
        {"sim.queue_est_share", "fraction", Ratio(queue_ns * events, run_ns)},
        {"cluster.submit_ns", "ns", per_call(tr.at(Layer::kSubmit))},
        {"cluster.submit_share", "fraction", share(Layer::kSubmit)},
        {"cluster.route_ns", "ns", per_call(tr.at(Layer::kRoute))},
        {"cluster.route_share", "fraction", share(Layer::kRoute)},
        {"cluster.arrival_routes_per_commit", "count",
         Ratio(static_cast<double>(tr.arrival_routes), t.commits)},
        {"cluster.retraction_routes_per_commit", "count",
         Ratio(static_cast<double>(tr.retraction_routes), t.commits)},
        {"cluster.retracted_per_commit", "count", Ratio(t.retracted, t.commits)},
        {"db.restarts_per_commit", "count", Ratio(t.aborts, t.commits)},
        {"db.useful_cpu_frac", "fraction",
         Ratio(t.useful_cpu, t.useful_cpu + t.wasted_cpu)},
        {"db.lock_waits_per_commit", "count", Ratio(t.lock_waits, t.commits)},
        {"db.phase.cpu_mean_s", "sim_s", phase_mean(telemetry::Phase::kCpu)},
        {"db.phase.disk_mean_s", "sim_s", phase_mean(telemetry::Phase::kDisk)},
        {"db.phase.lock_wait_mean_s", "sim_s",
         phase_mean(telemetry::Phase::kLockWait)},
        {"db.certify_ns", "ns", certify_ns},
        {"db.certify_est_share", "fraction",
         occ ? Ratio(certify_ns * (t.commits + t.certification_aborts), run_ns)
             : 0.0},
        {"db.lock_ns", "ns", lock_ns},
        {"db.lock_est_share", "fraction",
         occ ? 0.0 : Ratio(lock_ns * t.lock_requests, run_ns)},
        {"control.update_ns", "ns", per_call(tr.at(Layer::kControl))},
        {"control.updates_per_commit", "count",
         Ratio(static_cast<double>(tr.at(Layer::kControl).calls), t.commits)},
        {"control.gate_ns", "ns", gate_ns},
        {"control.gate_est_share", "fraction",
         Ratio(gate_ns * t.submitted, run_ns)},
        {"control.phase.gate_wait_mean_s", "sim_s",
         phase_mean(telemetry::Phase::kGateWait)},
        {"placement.remote_access_frac", "fraction", t.remote_frac},
        {"placement.migrations", "count", t.migrations},
        {"workload.complete_ns", "ns", per_call(tr.at(Layer::kComplete))},
        {"workload.complete_share", "fraction", share(Layer::kComplete)},
        {"elasticity.scaler_update_ns", "ns", per_call(tr.at(Layer::kScaler))},
        {"elasticity.false_declarations", "count", t.false_declarations},
        {"elasticity.misroutes", "count", t.misroutes},
        {"elasticity.provisions", "count", t.provisions},
        {"telemetry.hist_add_ns", "ns", hist_ns},
        {"telemetry.hist_add_est_share", "fraction",
         Ratio(hist_ns * hist_adds, run_ns)},
        {"telemetry.trace_overhead_frac", "fraction", Median(overheads)},
        {"run.allocs_per_commit", "count", Ratio(allocs, t.commits)},
        {"run.other_share", "fraction", 1.0 - Ratio(self_ns, traced_ns)},
    };
  }

  PrintResult(checks.failures == 0, attempted, failed, metrics);
  return 0;
}
