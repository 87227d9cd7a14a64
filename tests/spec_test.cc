// ExperimentSpec layer: schedule literals, Parse(Print(spec)) == spec
// round trips on representative specs and every checked-in spec file, the
// key table (print coverage, bounds on both the parse and the override
// path), parser conveniences (node cloning, named schedules) and error
// reporting, overrides and whole-spec validation of override chains, and
// run-equivalence of RunSpec against a directly built Experiment.

#include "core/spec.h"

#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/export.h"
#include "core/sweep.h"
#include "db/schedule.h"
#include "util/params.h"

namespace alc {
namespace {

// ------------------------------------------------------ schedule literals --

TEST(ScheduleTextTest, RoundTripsEveryKind) {
  const db::Schedule cases[] = {
      db::Schedule::Constant(850),
      db::Schedule::Constant(0.1),
      db::Schedule::Steps(0.3, {{333.0, 0.85}, {666.0, 0.3}}),
      db::Schedule::Steps(320.0, {}),
      db::Schedule::Sinusoid(100.0, 50.0, 86400.0, 0.25),
      db::Schedule::PiecewiseLinear({{0.0, 1.0}, {40.0, 0.3}, {100.0, 1.0}}),
  };
  for (const db::Schedule& schedule : cases) {
    db::Schedule parsed;
    ASSERT_TRUE(db::Schedule::Parse(schedule.ToString(), &parsed))
        << schedule.ToString();
    EXPECT_TRUE(parsed == schedule) << schedule.ToString();
  }
}

TEST(ScheduleTextTest, ParsesHandWrittenForms) {
  db::Schedule schedule;
  ASSERT_TRUE(db::Schedule::Parse("  steps( 320 ; 40:900 , 80:320 )  ",
                                  &schedule));
  EXPECT_EQ(schedule.Value(0.0), 320.0);
  EXPECT_EQ(schedule.Value(50.0), 900.0);
  EXPECT_EQ(schedule.Value(90.0), 320.0);

  ASSERT_TRUE(db::Schedule::Parse("sinusoid(10, 2, 60)", &schedule));
  EXPECT_DOUBLE_EQ(schedule.Value(0.0), 10.0);
}

TEST(ScheduleTextTest, RejectsMalformedLiterals) {
  db::Schedule schedule;
  EXPECT_FALSE(db::Schedule::Parse("constant()", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("constant(1", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("steps(1)", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("steps(1; 10:2, 5:3)", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("sinusoid(1, 2, 0)", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("pwl()", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("ramp(1, 2)", &schedule));
}

TEST(ScheduleTextTest, EqualityIsStructural) {
  EXPECT_TRUE(db::Schedule::Constant(5) == db::Schedule::Constant(5));
  EXPECT_FALSE(db::Schedule::Constant(5) == db::Schedule::Constant(6));
  // Pointwise-equal but structurally different.
  EXPECT_FALSE(db::Schedule::Constant(5) ==
               db::Schedule::Sinusoid(5, 0, 1, 0));
}

// ------------------------------------------------------------ round trips --

core::ExperimentSpec RoundTrip(const core::ExperimentSpec& spec) {
  core::ExperimentSpec parsed;
  std::string error;
  EXPECT_TRUE(core::ParseSpec(core::PrintSpec(spec), &parsed, &error))
      << error;
  return parsed;
}

TEST(SpecRoundTripTest, SingleNodeWithDynamicWorkload) {
  core::ExperimentSpec spec;
  spec.seed = 123;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system.seed = 123;
  node.system.cc = db::CcScheme::kTwoPhaseLocking;
  node.system.physical.cpu_distribution = db::ServiceDistribution::kErlang2;
  node.dynamics.query_fraction =
      db::Schedule::Steps(0.30, {{333.0, 0.85}, {666.0, 0.30}});
  spec.active_terminals = db::Schedule::Sinusoid(600, 200, 500);
  node.control.controller = "incremental-steps";
  node.control.params.SetDouble("is.beta", 1.25);
  node.control.measurement_interval = 0.5;
  spec.duration = 700.0;
  spec.warmup = 50.0;

  EXPECT_TRUE(RoundTrip(spec) == spec);
}

TEST(SpecRoundTripTest, HeterogeneousCluster) {
  core::ExperimentSpec spec;
  spec.name = "hetero";
  spec.cluster = true;
  spec.seed = 9;
  spec.duration = 90.0;
  spec.warmup = 10.0;
  spec.routing = "threshold";
  spec.routing_params.SetDouble("threshold.initial_threshold", 6.0);
  spec.arrival_rate = db::Schedule::Steps(300.0, {{40.0, 900.0}});

  core::NodeSpec big;
  big.system.physical.num_cpus = 16;
  big.system.seed = 100;
  big.control.controller = "parabola-approximation";
  big.control.params.SetDouble("pa.dither", 7.0);
  core::NodeSpec small;
  small.system.physical.num_cpus = 2;
  small.system.seed = 200;
  small.system.cc = db::CcScheme::kTwoPhaseLocking;
  small.control.controller = "incremental-steps";
  small.control.params.SetDouble("is.gamma", 12.0);
  small.cpu_speed = db::Schedule::Steps(1.0, {{40.0, 0.3}, {100.0, 1.0}});
  spec.nodes = {big, small};

  EXPECT_TRUE(RoundTrip(spec) == spec);
}

TEST(SpecRoundTripTest, TelemetryKeysRoundTrip) {
  core::ExperimentSpec spec;
  spec.cluster = false;
  spec.trace_path = "/tmp/run_trace.json";
  spec.decisions_path = "/tmp/run_decisions.csv";
  core::NodeSpec node;
  node.system.telemetry.per_phase = false;
  spec.nodes = {node};
  const core::ExperimentSpec round = RoundTrip(spec);
  EXPECT_EQ(round.trace_path, "/tmp/run_trace.json");
  EXPECT_EQ(round.decisions_path, "/tmp/run_decisions.csv");
  EXPECT_FALSE(round.nodes[0].system.telemetry.per_phase);
  EXPECT_TRUE(round == spec);

  // Overrides address the same keys.
  core::ExperimentSpec overridden = spec;
  std::string error;
  ASSERT_TRUE(core::ApplySpecOverride(&overridden, "trace", "", &error))
      << error;
  EXPECT_TRUE(overridden.trace_path.empty());
  ASSERT_TRUE(core::ApplySpecOverride(&overridden, "decisions", "", &error))
      << error;
  EXPECT_TRUE(overridden.decisions_path.empty());
  ASSERT_TRUE(core::ApplySpecOverride(&overridden, "node.telemetry.per_phase",
                                      "true", &error))
      << error;
  EXPECT_TRUE(overridden.nodes[0].system.telemetry.per_phase);
}

TEST(SpecRoundTripTest, PlacementClusterWithDynamics) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.routing = "locality-threshold";
  spec.placement_enabled = true;
  spec.placement.kind = placement::PlacementKind::kReplicated;
  spec.placement.num_partitions = 16;
  spec.placement.replication_factor = 3;
  spec.placement.rebalance_interval = 10.0;
  spec.placement_workload.db_size = 9600;
  spec.placement_workload.hotspot_access_prob = 0.8;
  spec.placement_workload.hotspot_size_fraction = 0.0625;
  db::WorkloadDynamics dynamics;
  dynamics.k = db::Schedule::Constant(8);
  dynamics.query_fraction = db::Schedule::Steps(0.5, {{60.0, 0.9}});
  dynamics.write_fraction = db::Schedule::Constant(0.1);
  spec.placement_dynamics = dynamics;
  spec.remote_access.cpu_penalty = 0.003;
  spec.remote_access.latency = 0.016;
  spec.remote_access.serve_cpu = 0.004;
  spec.nodes.resize(4);
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    spec.nodes[i].system.seed = 1000 + i;
    spec.nodes[i].system.logical.db_size = 9600;
  }

  EXPECT_TRUE(RoundTrip(spec) == spec);
}

TEST(SpecRoundTripTest, EveryCheckedInSpecIsCanonical) {
  std::vector<std::string> paths = {std::string(ALC_SOURCE_DIR) +
                                    "/perfbench/workloads/paper_2pl.spec"};
  for (const auto& file : std::filesystem::directory_iterator(
           std::string(ALC_SOURCE_DIR) + "/specs")) {
    if (file.path().extension() == ".spec") paths.push_back(file.path());
  }
  ASSERT_GE(paths.size(), 7u);
  for (const std::string& path : paths) {
    core::ExperimentSpec spec;
    std::string error;
    ASSERT_TRUE(core::LoadSpecFile(path, &spec, &error)) << error;
    const std::string printed = core::PrintSpec(spec);
    core::ExperimentSpec reparsed;
    ASSERT_TRUE(core::ParseSpec(printed, &reparsed, &error)) << path << error;
    EXPECT_TRUE(reparsed == spec) << path;
    EXPECT_EQ(core::PrintSpec(reparsed), printed) << path;
  }
}

// ------------------------------------------------------------ key table --

/// PrintSpec output split into "section/key" -> occurrences.
std::map<std::string, int> PrintedKeys(const std::string& text) {
  std::map<std::string, int> keys;
  std::istringstream stream(text);
  std::string line;
  std::string section;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '[') {
      section = line.substr(1, line.size() - 2);
      continue;
    }
    ++keys[section + "/" + line.substr(0, line.find(" = "))];
  }
  return keys;
}

TEST(SpecKeyTableTest, EveryKeyPrintsExactlyOnce) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.placement_dynamics = db::WorkloadDynamics{};  // printed when engaged
  spec.nodes.resize(1);
  std::map<std::string, int> printed = PrintedKeys(core::PrintSpec(spec));
  for (const core::SpecKeyInfo& info : core::SpecKeys()) {
    // Parameter passthroughs and fault windows are lists, empty here.
    if (info.type == "params" || info.type == "faults") continue;
    const std::string id = info.section + "/" + info.key;
    EXPECT_EQ(printed[id], 1) << id;
    printed.erase(id);
  }
  for (const auto& [id, count] : printed) {
    ADD_FAILURE() << "printed key not in the table: " << id;
  }
}

/// Values just outside a numeric key's bound ("> 0", ">= 1", "[0, 1]",
/// "(0, 1]"): the excluded endpoint itself, or the nearest value beyond it
/// (the nearest normal one beyond 0: spec numbers are never subnormal).
std::vector<std::string> OutOfBoundValues(const core::SpecKeyInfo& info) {
  const bool integral = info.type != "double";
  const auto beyond = [&](double edge, double direction) {
    if (integral) {
      return std::to_string(static_cast<long long>(edge + direction));
    }
    return util::FormatDouble(
        edge == 0.0 ? direction * std::numeric_limits<double>::min()
                    : std::nextafter(edge, direction * HUGE_VAL));
  };
  const std::string& bound = info.bound;
  if (bound[0] == '>') {
    const bool open = bound[1] == ' ';
    const double lo = std::stod(bound.substr(open ? 2 : 3));
    return {open ? util::FormatDouble(lo) : beyond(lo, -1.0)};
  }
  const size_t comma = bound.find(',');
  const double lo = std::stod(bound.substr(1, comma - 1));
  const double hi = std::stod(bound.substr(comma + 2));
  const std::string below =
      bound[0] == '(' ? util::FormatDouble(lo) : beyond(lo, -1.0);
  return {below, beyond(hi, 1.0)};
}

TEST(SpecKeyTableTest, BoundsRejectOnParseAndOverrideAlike) {
  const std::string base_text = "[experiment]\ncluster = true\n[node]\n";
  core::ExperimentSpec base;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(base_text, &base, &error)) << error;
  int checked = 0;
  for (const core::SpecKeyInfo& info : core::SpecKeys()) {
    const bool numeric = info.type == "double" || info.type == "int" ||
                         info.type == "uint64" || info.type == "uint32";
    if (!numeric || info.bound.empty()) continue;
    for (const std::string& value : OutOfBoundValues(info)) {
      const std::string line = info.key + " = " + value + "\n";
      const std::string text =
          info.section == "node"
              ? base_text + line
              : "[experiment]\ncluster = true\n[" + info.section + "]\n" +
                    line + "[node]\n";
      core::ExperimentSpec parsed;
      std::string parse_error;
      EXPECT_FALSE(core::ParseSpec(text, &parsed, &parse_error)) << line;

      const std::string key =
          (info.section == "experiment" ? "" : info.section + ".") + info.key;
      core::ExperimentSpec overridden = base;
      std::string override_error;
      EXPECT_FALSE(
          core::ApplySpecOverride(&overridden, key, value, &override_error))
          << key << "=" << value;
      EXPECT_TRUE(overridden == base) << key << ": failed override wrote";

      EXPECT_NE(override_error.find("key '" + info.key + "': must be "),
                std::string::npos)
          << override_error;
      const size_t colon = parse_error.find(": ");
      ASSERT_NE(colon, std::string::npos) << parse_error;
      EXPECT_EQ(parse_error.substr(colon + 2), override_error);
      ++checked;
    }
  }
  EXPECT_GE(checked, 48);
}

TEST(SpecKeyTableTest, ValuesComponentsWouldAbortOnAreRejected) {
  // Each value passed the spec layer once and then failed a component
  // check mid-run (a CPU pool of 0, a 0 s monitor interval, ...).
  const std::pair<std::string, std::string> cases[] = {
      {"node.physical.num_cpus", "0"},
      {"node.physical.num_terminals", "0"},
      {"node.logical.db_size", "0"},
      {"placement.workload.db_size", "0"},
      {"node.physical.io_time", "-1"},
      {"node.control.measurement_interval", "0"},
      {"node.control.initial_limit", "0"},
      {"placement.num_partitions", "0"},
      {"placement.replication_factor", "0"},
      {"placement.rebalance_interval", "-1"},
  };
  const std::string cluster = "[experiment]\ncluster = true\n";
  core::ExperimentSpec base;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(cluster + "[node]\n", &base, &error)) << error;
  for (const auto& [key, value] : cases) {
    const size_t dot = key.find('.');
    const std::string section = key.substr(0, dot);
    const std::string line = key.substr(dot + 1) + " = " + value + "\n";
    const std::string text =
        section == "node" ? cluster + "[node]\n" + line
                          : cluster + "[" + section + "]\n" + line + "[node]\n";
    core::ExperimentSpec parsed;
    EXPECT_FALSE(core::ParseSpec(text, &parsed, &error)) << key;
    EXPECT_NE(error.find("must be"), std::string::npos) << error;

    core::ExperimentSpec overridden = base;
    EXPECT_FALSE(core::ApplySpecOverride(&overridden, key, value, &error))
        << key;
    EXPECT_NE(error.find("must be"), std::string::npos) << error;
  }
}

// ------------------------------------------------- parser conveniences --

TEST(SpecParseTest, NodeCountClonesWithDecorrelatedSeeds) {
  const std::string text =
      "[experiment]\n"
      "cluster = true\n"
      "seed = 42\n"
      "[node]\n"
      "count = 4\n"
      "physical.num_cpus = 4\n";
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(text, &spec, &error)) << error;
  ASSERT_EQ(spec.nodes.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spec.nodes[i].system.seed, core::DecorrelatedNodeSeed(42, i));
    EXPECT_EQ(spec.nodes[i].system.physical.num_cpus, 4);
  }
}

TEST(SpecParseTest, SeedInheritanceDecorrelatesAcrossBareNodes) {
  // A single undeclared node runs the experiment seed directly...
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec("[experiment]\nseed = 77\n[node]\n", &spec,
                              &error))
      << error;
  ASSERT_EQ(spec.nodes.size(), 1u);
  EXPECT_EQ(spec.nodes[0].system.seed, 77u);

  // ...but two bare [node] sections must not share a random stream: the
  // undeclared one decorrelates over its fleet index, the declared one
  // keeps its seed.
  ASSERT_TRUE(core::ParseSpec(
      "[experiment]\ncluster = true\nseed = 77\n[node]\n[node]\nseed = 5\n",
      &spec, &error))
      << error;
  ASSERT_EQ(spec.nodes.size(), 2u);
  EXPECT_EQ(spec.nodes[0].system.seed, core::DecorrelatedNodeSeed(77, 0));
  EXPECT_EQ(spec.nodes[1].system.seed, 5u);
}

TEST(SpecParseTest, RejectsImpossibleFleetShapes) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(core::ParseSpec("[experiment]\nduration = 10\n", &spec,
                               &error));
  EXPECT_NE(error.find("no [node]"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec("[node]\ncount = 2\n", &spec, &error));
  EXPECT_NE(error.find("exactly one node"), std::string::npos) << error;
}

TEST(SpecParseTest, HashInValueSurvivesWhenNotACommentStart) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(
      "[experiment]\nname = run#7  # trailing comment\n[node]\n", &spec,
      &error))
      << error;
  EXPECT_EQ(spec.name, "run#7");
  // Round trip: the printed form re-parses to the same name.
  core::ExperimentSpec reparsed;
  ASSERT_TRUE(core::ParseSpec(core::PrintSpec(spec), &reparsed, &error))
      << error;
  EXPECT_EQ(reparsed.name, "run#7");
}

TEST(SpecParseTest, RejectsOutOfRangeIntegers) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(core::ParseSpec(
      "[node]\nphysical.num_cpus = 4294967300\n", &spec, &error));
  EXPECT_NE(error.find("out-of-range"), std::string::npos) << error;

  // uint32 keys must not wrap a parsed uint64 (4294967300 -> 4).
  EXPECT_FALSE(core::ParseSpec(
      "[node]\nlogical.db_size = 4294967300\n", &spec, &error));
  EXPECT_NE(error.find("out-of-range"), std::string::npos) << error;
  EXPECT_FALSE(core::ParseSpec(
      "[placement]\nworkload.db_size = 4294967297\n[node]\n", &spec,
      &error));
  EXPECT_NE(error.find("out-of-range"), std::string::npos) << error;
  ASSERT_TRUE(core::ParseSpec("[node]\n", &spec, &error)) << error;
  EXPECT_FALSE(core::ApplySpecOverride(&spec, "node.logical.db_size",
                                       "4294967300", &error));
  EXPECT_NE(error.find("out-of-range"), std::string::npos) << error;
  EXPECT_FALSE(core::ApplySpecOverride(&spec, "placement.workload.db_size",
                                       "4294967297", &error));
  EXPECT_NE(error.find("out-of-range"), std::string::npos) << error;
}

TEST(SpecParseTest, NamedSchedulesResolve) {
  const std::string text =
      "[schedules]\n"
      "flash = steps(320; 40:900, 80:320)\n"
      "[experiment]\n"
      "cluster = true\n"
      "arrival_rate = $flash\n"
      "[node]\n";
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(text, &spec, &error)) << error;
  EXPECT_TRUE(spec.arrival_rate ==
              db::Schedule::Steps(320.0, {{40.0, 900.0}, {80.0, 320.0}}));
}

TEST(SpecParseTest, ReportsErrorsWithLineNumbers) {
  core::ExperimentSpec spec;
  std::string error;

  EXPECT_FALSE(core::ParseSpec("[experiment]\nbogus_key = 1\n", &spec,
                               &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus_key"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec("[warp]\n", &spec, &error));
  EXPECT_NE(error.find("unknown section"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\narrival_rate = steps(1)\n", &spec, &error));
  EXPECT_NE(error.find("schedule"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\narrival_rate = $undefined\n", &spec, &error));
  EXPECT_NE(error.find("$undefined"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec("[node]\nduration = 5\n", &spec, &error));
  EXPECT_NE(error.find("unknown node key"), std::string::npos) << error;
}

TEST(SpecOverrideTest, AddressesExperimentPlacementAndNodes) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.nodes.resize(3);
  std::string error;

  ASSERT_TRUE(core::ApplySpecOverride(&spec, "duration", "120", &error));
  EXPECT_EQ(spec.duration, 120.0);
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "routing", "power-of-d", &error));
  ASSERT_TRUE(
      core::ApplySpecOverride(&spec, "routing.power-of-d.d", "3", &error));
  EXPECT_EQ(spec.routing_params.GetInt("power-of-d.d", 0), 3);
  ASSERT_TRUE(
      core::ApplySpecOverride(&spec, "placement.enabled", "true", &error));
  EXPECT_TRUE(spec.placement_enabled);

  ASSERT_TRUE(core::ApplySpecOverride(&spec, "node.control.controller",
                                      "golden-section", &error));
  for (const core::NodeSpec& node : spec.nodes) {
    EXPECT_EQ(node.control.controller, "golden-section");
  }
  ASSERT_TRUE(
      core::ApplySpecOverride(&spec, "node1.physical.num_cpus", "2", &error));
  EXPECT_EQ(spec.nodes[0].system.physical.num_cpus, 16);
  EXPECT_EQ(spec.nodes[1].system.physical.num_cpus, 2);

  EXPECT_FALSE(core::ApplySpecOverride(&spec, "node.count", "4", &error));
  EXPECT_FALSE(core::ApplySpecOverride(&spec, "node9.seed", "1", &error));
  EXPECT_FALSE(core::ApplySpecOverride(&spec, "no_such_key", "1", &error));
}

TEST(SpecOverrideTest, SeedOverrideRederivesNodeSeeds) {
  // Multi-node: every node seed follows the new experiment seed (a seed
  // sweep is a replication sweep, not a router-only reseed).
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.nodes.resize(3);
  std::string error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "seed", "1234", &error));
  EXPECT_EQ(spec.seed, 1234u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(spec.nodes[i].system.seed, core::DecorrelatedNodeSeed(1234, i));
  }

  // The broadcast "node.seed" form also decorrelates per index (a literal
  // broadcast would run every node on the same stream); node<i>.seed pins.
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "node.seed", "88", &error));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(spec.nodes[i].system.seed, core::DecorrelatedNodeSeed(88, i));
  }
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "node2.seed", "9", &error));
  EXPECT_EQ(spec.nodes[2].system.seed, 9u);

  // Single-node: the node runs the new seed directly, so two overrides
  // produce genuinely different runs.
  core::ExperimentSpec single = core::ParseSpecOrDie("[node]\n");
  single.duration = 10.0;
  single.warmup = 2.0;
  ASSERT_TRUE(core::ApplySpecOverride(&single, "seed", "5", &error));
  EXPECT_EQ(single.nodes[0].system.seed, 5u);
  const uint64_t commits_a = core::RunSpec(single).single.commits;
  ASSERT_TRUE(core::ApplySpecOverride(&single, "seed", "6", &error));
  const uint64_t commits_b = core::RunSpec(single).single.commits;
  EXPECT_NE(commits_a, commits_b);
}

TEST(SpecOverrideTest, ChainIsValidatedAsAWhole) {
  // Each chain applies override by override on a 2-node cluster, but its
  // result breaks a whole-spec rule that only ValidateSpec sees. RunSpec
  // would index past the fleet or abort in a component CHECK.
  core::ExperimentSpec base;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(
      "[experiment]\ncluster = true\nduration = 2\nwarmup = 0\n"
      "[node]\ncount = 2\n",
      &base, &error))
      << error;
  const std::vector<std::pair<std::vector<std::pair<std::string, std::string>>,
                              std::string>>
      cases = {
          {{{"fault.enabled", "true"},
            {"fault.inject", "cpu-degrade(1:2; nodes=9; magnitude=0.5)"}},
           "node 9 out of range"},
          {{{"elasticity.enabled", "true"}, {"elasticity.hb.quorum", "3"}},
           "hb.quorum must be <= hb.observers"},
          {{{"elasticity.enabled", "true"},
            {"elasticity.hb.suspect_after", "4"}},
           "hb.down_after must be >= hb.suspect_after"},
          {{{"elasticity.enabled", "true"}, {"elasticity.standby", "2"}},
           "standby pool"},
          {{{"retry.enabled", "true"}, {"retry.backoff_max", "0.001"}},
           "retry.backoff_max must be >= retry.backoff_base"},
          {{{"degrade.enabled", "true"}, {"degrade.shed_query", "9"}},
           "degrade.shed_update must be >= degrade.shed_query"},
          // Both engines CHECK the measured window when a run starts.
          {{{"duration", "0"}}, "duration must be > 0"},
          {{{"warmup", "1000"}}, "warmup must satisfy 0 <= warmup < duration"},
          {{{"warmup", "-1"}}, "warmup must satisfy 0 <= warmup < duration"},
          // The PlacementCatalog constructor CHECKs these two.
          {{{"placement.enabled", "true"}, {"placement.num_partitions", "16"},
            {"placement.workload.db_size", "15"}},
           "placement.num_partitions must be <= placement.workload.db_size"},
          {{{"placement.enabled", "true"},
            {"placement.rebalance_interval", "5"},
            {"placement.rebalance_moves", "0"}},
           "placement.rebalance_moves must be >= 1 when "
           "placement.rebalance_interval > 0"},
          // The controller param readers CHECK these when the controller
          // is built.
          {{{"node.control.pa.recovery", "bogus"}},
           "node 0 control.pa.recovery: expected "
           "hold/gradient/contract/reset, got 'bogus'"},
          {{{"node1.control.is.index", "bogus"}},
           "node 1 control.is.index: expected throughput/"
           "inverse-response-time/effective-cpu-utilization, got 'bogus'"},
          {{{"node.control.pa.index", "bogus"}}, "node 0 control.pa.index"},
          {{{"node.control.gs.index", "bogus"}}, "node 0 control.gs.index"},
      };
  for (const auto& [chain, message] : cases) {
    core::ExperimentSpec spec = base;
    std::vector<core::SweepAxis> axes;
    for (const auto& [key, value] : chain) {
      ASSERT_TRUE(core::ApplySpecOverride(&spec, key, value, &error))
          << key << ": " << error;
      axes.push_back({key, {value}});
    }
    EXPECT_FALSE(core::ValidateSpec(spec, &error)) << message;
    EXPECT_NE(error.find(message), std::string::npos) << error;
    // A sweep point made of the same chain fails the same check.
    EXPECT_FALSE(core::SweepRunner(base, axes).Validate(&error)) << message;
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }

  // Validation runs once, at the end of the chain: an intermediate state
  // that breaks a rule is fine when a later override repairs it.
  core::ExperimentSpec spec = base;
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"elasticity.enabled", "true"},
           {"elasticity.hb.quorum", "3"},
           {"elasticity.hb.observers", "3"}}) {
    ASSERT_TRUE(core::ApplySpecOverride(&spec, key, value, &error)) << error;
  }
  EXPECT_TRUE(core::ValidateSpec(spec, &error)) << error;

  // A static placement needs no rebalance moves.
  spec = base;
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"placement.enabled", "true"},
           {"placement.rebalance_interval", "0"},
           {"placement.rebalance_moves", "0"}}) {
    ASSERT_TRUE(core::ApplySpecOverride(&spec, key, value, &error)) << error;
  }
  EXPECT_TRUE(core::ValidateSpec(spec, &error)) << error;

  // RunSpec refuses an invalid spec by name instead of running it.
  spec = base;
  ASSERT_TRUE(core::ApplySpecOverride(
      &spec, "fault.inject", "cpu-degrade(1:2; nodes=9; magnitude=0.5)",
      &error));
  EXPECT_DEATH(core::RunSpec(spec), "node 9 out of range");
}

TEST(SpecOverrideTest, UnknownPolicyNamesFailAtAssignTime) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.nodes.resize(1);
  std::string error;

  EXPECT_FALSE(
      core::ApplySpecOverride(&spec, "routing", "teleport", &error));
  EXPECT_NE(error.find("teleport"), std::string::npos) << error;
  EXPECT_NE(error.find("join-shortest-queue"), std::string::npos) << error;

  EXPECT_FALSE(core::ApplySpecOverride(&spec, "node.control.controller",
                                       "warp-drive", &error));
  EXPECT_NE(error.find("warp-drive"), std::string::npos) << error;
  EXPECT_NE(error.find("parabola-approximation"), std::string::npos) << error;

  // Same validation on the file-parse path, with a line number.
  core::ExperimentSpec parsed;
  EXPECT_FALSE(core::ParseSpec(
      "[node]\ncontrol.controller = warp-drive\n", &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// --------------------------------------------------- run equivalence --

TEST(SpecRunTest, RunSpecMatchesDirectExperimentBitExactly) {
  const core::ExperimentSpec spec = core::ParseSpecOrDie(
      "[experiment]\n"
      "seed = 99\n"
      "duration = 20\n"
      "warmup = 4\n"
      "[node]\n"
      "control.controller = parabola-approximation\n"
      "control.pa.dither = 10\n");

  const core::ExperimentResult direct = core::Experiment(spec).Run();
  const core::SpecRunResult via_spec = core::RunSpec(spec);

  ASSERT_FALSE(via_spec.cluster);
  std::ostringstream direct_csv, spec_csv;
  core::WriteTrajectoryCsv(direct_csv, direct.trajectory, {});
  core::WriteTrajectoryCsv(spec_csv, via_spec.single.trajectory, {});
  EXPECT_EQ(direct_csv.str(), spec_csv.str());
  EXPECT_EQ(direct.commits, via_spec.single.commits);
  EXPECT_EQ(direct.mean_throughput, via_spec.single.mean_throughput);
}

TEST(SpecRunTest, PrintedSpecRunsIdenticallyToOriginal) {
  core::ExperimentSpec spec;
  spec.seed = 7;
  spec.duration = 15.0;
  spec.warmup = 3.0;
  spec.nodes.emplace_back().system.seed = 7;

  core::ExperimentSpec reparsed;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(core::PrintSpec(spec), &reparsed, &error))
      << error;
  const core::SpecRunResult a = core::RunSpec(spec);
  const core::SpecRunResult b = core::RunSpec(reparsed);
  EXPECT_EQ(a.single.commits, b.single.commits);
  EXPECT_EQ(a.single.mean_throughput, b.single.mean_throughput);
}

}  // namespace
}  // namespace alc
