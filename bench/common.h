#ifndef ALC_BENCH_COMMON_H_
#define ALC_BENCH_COMMON_H_

// Shared scenario definitions for the figure-reproduction benches. All
// benches run the same calibrated paper-scale system (see db/config.h and
// DESIGN.md "Reconstructions / substitutions") so their numbers are
// comparable with each other.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "core/experiment.h"
#include "core/optimum.h"
#include "core/report.h"
#include "core/spec.h"
#include "core/sweep.h"

namespace alc::bench {

/// Directory for bench artifacts (decision CSVs, traces): `--out DIR` if
/// given, else ./bench_out — never the bare working directory, so repeated
/// bench runs stop littering the repository root. Created on first use.
inline std::string OutputDir(int argc, char** argv) {
  std::string dir = "bench_out";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") dir = argv[i + 1];
  }
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  return dir;
}

/// The canonical stationary scenario: defaults of db/config.h, admission
/// bound range 5..750 (the paper's figure axes), measurement interval 1 s
/// (a few hundred departures per interval, paper section 5). The IS, PA
/// and Iyer parameters are all set, so switching `control.controller`
/// (directly or as a sweep axis) picks up its family's values.
inline core::ExperimentSpec PaperSpec(uint64_t seed = 42) {
  return core::ParseSpecOrDie(
      "[experiment]\n"
      "seed = " + std::to_string(seed) + "\n"
      "duration = 300\n"
      "warmup = 60\n"
      "[node]\n"
      "control.measurement_interval = 1\n"
      "control.initial_limit = 50\n"
      "control.is.initial_bound = 50\n"
      "control.is.min_bound = 5\n"
      "control.is.max_bound = 750\n"
      "control.is.beta = 1\n"
      "control.is.gamma = 10\n"
      "control.is.delta = 25\n"
      "control.pa.initial_bound = 50\n"
      "control.pa.min_bound = 5\n"
      "control.pa.max_bound = 750\n"
      "control.pa.forgetting = 0.95\n"
      "control.pa.dither = 15\n"
      "control.iyer.initial_bound = 50\n"
      "control.iyer.min_bound = 5\n"
      "control.iyer.max_bound = 750\n"
      "control.iyer.gain = 60\n");
}

/// The figures-13/14 dynamic scenario: the optimum's position jumps
/// abruptly at t=333 and back at t=666 (query-fraction jump 0.3 -> 0.85,
/// which moves n_opt from ~195 to ~330 and roughly doubles the peak).
inline core::ExperimentSpec JumpSpec(uint64_t seed = 42) {
  core::ExperimentSpec spec = PaperSpec(seed);
  spec.duration = 1000.0;
  spec.warmup = 50.0;
  spec.nodes[0].dynamics.query_fraction =
      db::Schedule::Steps(0.30, {{333.0, 0.85}, {666.0, 0.30}});
  return spec;
}

/// `[node]` keys of the downscaled node the cluster benches share (4 CPUs,
/// 600-granule DB, a Parabola gate at a 0.5 s interval; IS and fixed-limit
/// values for admission sweeps): the paper-scale thrashing shape at a size
/// a 48-run sweep can afford. Per-node capacity is ~150 commits/s at the
/// optimum (~19 ms CPU demand per transaction, knee near n=25).
inline std::string DownscaledNodeKeys() {
  return "physical.num_cpus = 4\n"
         "physical.cpu_init_mean = 0.001\n"
         "physical.cpu_access_mean = 0.001\n"
         "physical.cpu_commit_mean = 0.001\n"
         "physical.cpu_write_commit_mean = 0.004\n"
         "physical.io_time = 0.008\n"
         "physical.restart_delay_mean = 0.02\n"
         "logical.db_size = 600\n"
         "logical.accesses_per_txn = 8\n"
         "logical.query_fraction = 0.3\n"
         "logical.write_fraction = 0.4\n"
         "dynamics.k = constant(8)\n"
         "dynamics.query_fraction = constant(0.3)\n"
         "dynamics.write_fraction = constant(0.4)\n"
         "control.measurement_interval = 0.5\n"
         "control.initial_limit = 20\n"
         "control.is.initial_bound = 20\n"
         "control.is.min_bound = 2\n"
         "control.is.max_bound = 200\n"
         "control.pa.initial_bound = 20\n"
         "control.pa.min_bound = 2\n"
         "control.pa.max_bound = 200\n"
         "control.pa.dither = 5\n"
         "control.fixed.limit = 25\n";
}

/// Search settings that keep the offline true-optimum sweeps affordable.
inline core::OptimumSearchConfig FastSearch() {
  core::OptimumSearchConfig search;
  search.n_lo = 10.0;
  search.n_hi = 750.0;
  search.coarse_points = 9;
  search.refine_rounds = 1;
  search.refine_points = 5;
  search.sim_duration = 60.0;
  search.sim_warmup = 15.0;
  return search;
}

/// Thread count for sweeping `points` grid points: all cores, capped at
/// the grid size. Per-point runs are bit-deterministic regardless.
inline int SweepThreads(int points) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(points, cores));
}

inline void PrintHeader(const char* figure, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure);
  std::printf("Paper: Heiss & Wagner, VLDB 1991, pp. 47-54\n");
  std::printf("Claim: %s\n", claim);
  std::printf("================================================================\n");
}

}  // namespace alc::bench

#endif  // ALC_BENCH_COMMON_H_
