// Pins the CSV artifacts of specs/node_failover.spec to the bytes produced
// before the event-engine rewrite (typed POD event cells + generation-
// stamped cancellation + 4-ary heap). An engine swap must change no
// simulation results: same RNG draws, same event order by (time,
// scheduling sequence) with equal-time FIFO, same CSV bytes. That held for
// the rewrite and holds for the radix heap that later replaced the 4-ary heap
// (buckets keyed on the time's bits; pushes never precede the last popped
// time, and one that precedes a peeked event re-bases the queue). The
// pinned hashes were captured from the pre-refactor engine (sha256 of the
// alc_run exports was verified identical); if this test fails, the event
// engine reordered or perturbed the simulation. The single-node paper
// model's trajectories are pinned the same way.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/export.h"
#include "core/spec.h"

namespace alc {
namespace {

/// FNV-1a 64-bit: stable, dependency-free content fingerprint.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string ClusterCsv(const core::ClusterResult& cluster) {
  // Mirrors tools/alc_run.cc ExportResult so the pinned bytes are exactly
  // what `alc_run specs/node_failover.spec --out ...` writes.
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> placement_info;
  for (const core::ClusterNodeResult& node : cluster.nodes) {
    trajectories.push_back(node.trajectory);
    placement_info.push_back({node.remote_frac, node.partitions_owned});
  }
  std::ostringstream csv;
  core::WriteClusterTrajectoryCsv(csv, trajectories, placement_info,
                                  cluster.membership);
  return csv.str();
}

TEST(EngineDeterminismTest, NodeFailoverCsvMatchesPreRefactorBaseline) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/node_failover.spec", &spec,
      &error))
      << error;
  const core::SpecRunResult result = core::RunSpec(spec);
  ASSERT_TRUE(result.cluster);

  const std::string cluster_csv = ClusterCsv(result.cluster_result);
  std::ostringstream aggregate;
  core::WriteTrajectoryCsv(aggregate, result.cluster_result.aggregate, {});
  const std::string aggregate_csv = aggregate.str();

  // Sizes first: a length diff gives a much better failure message than a
  // hash mismatch.
  //
  // Re-pinned when the telemetry layer appended the response_p50..p999
  // columns: stripping the four new columns from these CSVs reproduces the
  // pre-telemetry bytes exactly (sizes 112237/26555, hashes
  // 17203859782119457895/5637044466475686148), so the simulation itself is
  // unchanged — only the appended columns differ.
  EXPECT_EQ(cluster_csv.size(), 172723u);
  EXPECT_EQ(aggregate_csv.size(), 42585u);
  EXPECT_EQ(Fnv1a(cluster_csv), 4532971164558580086ULL);
  EXPECT_EQ(Fnv1a(aggregate_csv), 11098696363277174748ULL);
}

// The 256-node locality-threshold path in CI's smoke form of
// specs/diurnal_1m.spec: hybrid sessions, replicated placement, rebalancing
// and per-node Parabola gates. Pinned before the front end stopped copying
// every node's view per arrival; routing must stay bit-identical.
TEST(EngineDeterminismTest, DiurnalSmokeCsvIsPinned) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/diurnal_1m.spec", &spec, &error))
      << error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "duration", "8", &error))
      << error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "warmup", "2", &error)) << error;
  ASSERT_TRUE(core::ValidateSpec(spec, &error)) << error;
  const core::SpecRunResult result = core::RunSpec(spec);
  ASSERT_TRUE(result.cluster);

  const std::string cluster_csv = ClusterCsv(result.cluster_result);
  std::ostringstream aggregate;
  core::WriteTrajectoryCsv(aggregate, result.cluster_result.aggregate, {});
  const std::string aggregate_csv = aggregate.str();

  EXPECT_EQ(cluster_csv.size(), 468915u);
  EXPECT_EQ(aggregate_csv.size(), 1828u);
  EXPECT_EQ(Fnv1a(cluster_csv), 13567028770705261309ULL);
  EXPECT_EQ(Fnv1a(aggregate_csv), 4857415289530177456ULL);
}

/// bench/common.h's PaperSpec(42) cut to 60 s: the single-node paper model
/// under the three controllers whose parameters it sets.
std::string PaperModelText(const std::string& controller) {
  return "[experiment]\n"
         "seed = 42\n"
         "duration = 60\n"
         "warmup = 10\n"
         "[node]\n"
         "control.controller = " + controller + "\n"
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
         "control.iyer.gain = 60\n";
}

// Captured when the controllers were still configured through typed
// IS/PA/Iyer structs: the pins hold the params-only path to those bytes.
TEST(EngineDeterminismTest, PaperModelTrajectoriesArePinned) {
  struct Pin {
    const char* controller;
    size_t size;
    uint64_t fnv;
  };
  const Pin pins[] = {
      {"incremental-steps", 5955u, 3625279991734262999ULL},
      {"parabola-approximation", 6127u, 5203420508943735798ULL},
      {"iyer-rule", 5877u, 15322039885377429202ULL},
  };
  for (const Pin& pin : pins) {
    const core::ExperimentSpec spec =
        core::ParseSpecOrDie(PaperModelText(pin.controller));
    const core::ExperimentResult result = core::Experiment(spec).Run();
    std::ostringstream csv;
    core::WriteTrajectoryCsv(csv, result.trajectory, {});
    EXPECT_EQ(csv.str().size(), pin.size) << pin.controller;
    EXPECT_EQ(Fnv1a(csv.str()), pin.fnv) << pin.controller;
  }
}

}  // namespace
}  // namespace alc
