// Quickstart: build the simulated transaction processing system, attach the
// Parabola Approximation load controller, run five simulated minutes, and
// print what the controller did.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "core/experiment.h"
#include "core/report.h"
#include "core/spec.h"

int main() {
  using namespace alc;

  // 1. Describe the experiment in spec text, the format alc_run reads
  //    (`alc_run --help` lists every key). Omitted keys keep the calibrated
  //    paper-scale system: 850 terminals, 16 CPUs, 16k-granule database,
  //    optimistic concurrency control.
  const core::ExperimentSpec spec = core::ParseSpecOrDie(
      "[experiment]\n"
      "duration = 300  # simulated seconds\n"
      "warmup = 60     # excluded from the summary statistics\n"
      "[node]\n"
      // 2. Pick the load-control policy: the adaptive Parabola
      //    Approximation, cold-started far from the optimum.
      "control.controller = parabola-approximation\n"
      "control.measurement_interval = 1\n"
      "control.initial_limit = 50\n");

  // 3. Run. Everything is deterministic given the seed (default 1).
  core::Experiment experiment(spec);
  const core::ExperimentResult result = experiment.Run();

  // 4. Inspect.
  std::printf("%s\n\n", core::SummaryLine("parabola-approximation", result).c_str());
  std::printf("last 10 control intervals:\n");
  std::printf("%8s %10s %10s %12s\n", "time", "bound n*", "load n",
              "throughput");
  const size_t start =
      result.trajectory.size() > 10 ? result.trajectory.size() - 10 : 0;
  for (size_t i = start; i < result.trajectory.size(); ++i) {
    const core::TrajectoryPoint& point = result.trajectory[i];
    std::printf("%8.0f %10.1f %10.1f %12.1f\n", point.time, point.bound,
                point.load, point.throughput);
  }
  std::printf(
      "\nThe controller found the knee of the throughput curve on its own —\n"
      "no model of the system, just measured (load, throughput) pairs.\n");
  return 0;
}
