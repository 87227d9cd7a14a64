#ifndef ALC_CORE_EXPERIMENT_SPEC_H_
#define ALC_CORE_EXPERIMENT_SPEC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/lifecycle.h"
#include "cluster/router.h"
#include "control/controller.h"
#include "db/config.h"
#include "db/schedule.h"
#include "db/workload.h"
#include "elasticity/config.h"
#include "fault/config.h"
#include "placement/catalog.h"
#include "util/params.h"
#include "workload/source.h"

namespace alc::core {

/// Load-control wiring of one node, string-native: the controller is a
/// ControllerRegistry name and its configuration a ParamMap, so a spec file
/// can select and parameterize any registered policy — including ones
/// registered outside src/ — without recompilation.
struct ControlSpec {
  std::string controller = "parabola-approximation";
  util::ParamMap params;  // canonical keys: "pa.dither", "is.beta", ...
  double measurement_interval = 1.0;
  double initial_limit = 50.0;
  bool displacement = false;
  bool outer_tuner = false;

  bool operator==(const ControlSpec& other) const {
    return controller == other.controller && params == other.params &&
           measurement_interval == other.measurement_interval &&
           initial_limit == other.initial_limit &&
           displacement == other.displacement &&
           outer_tuner == other.outer_tuner;
  }
  bool operator!=(const ControlSpec& other) const { return !(*this == other); }
};

/// One node of an experiment: simulated system, workload dynamics, control
/// wiring, a CPU speed profile, and (cluster mode) an availability
/// schedule. Nodes may be heterogeneous in every field. A single-node
/// experiment uses exactly one of these.
struct NodeSpec {
  db::SystemConfig system;
  db::WorkloadDynamics dynamics =
      db::WorkloadDynamics::FromConfig(db::LogicalConfig{});
  ControlSpec control;
  db::Schedule cpu_speed = db::Schedule::Constant(1.0);
  /// Lifecycle (cluster mode only): `availability = avail(up; 60:down,
  /// 90:up)` segments drive crash/drain/rejoin transitions; `rejoin`
  /// selects what the control plane remembers across a crash.
  cluster::AvailabilitySchedule availability;
  cluster::RejoinPolicy rejoin = cluster::RejoinPolicy::kFresh;

  bool operator==(const NodeSpec& other) const {
    return system == other.system && dynamics == other.dynamics &&
           control == other.control && cpu_speed == other.cpu_speed &&
           availability == other.availability && rejoin == other.rejoin;
  }
  bool operator!=(const NodeSpec& other) const { return !(*this == other); }
};

/// A complete experiment description unifying the single-node and cluster
/// cases: one node list, one control surface, one text serialization. In
/// single mode (`cluster` false, exactly one node) the node runs the
/// paper's closed/open model driven by `active_terminals`; in cluster mode
/// the fleet sits behind a routed front-end driven by `arrival_rate`, with
/// optional data placement. Everything is reproducible from this struct,
/// and `ParseSpec(PrintSpec(spec))` returns an equal spec.
struct ExperimentSpec {
  std::string name = "experiment";
  /// Run mode: single-node Experiment when false, ClusterExperiment when
  /// true (a 1-node cluster is valid: it exercises the routed front-end).
  bool cluster = false;
  /// Seeds the router policy and the cluster arrival stream, and is the
  /// default seed for nodes that do not declare their own.
  uint64_t seed = 1;
  double duration = 300.0;  // s of virtual time
  double warmup = 30.0;     // s excluded from summary statistics

  std::vector<NodeSpec> nodes;

  /// Single mode: the closed model's terminal population N(t).
  db::Schedule active_terminals =
      db::Schedule::Constant(db::PhysicalConfig{}.num_terminals);

  /// Cluster mode: routing policy (a RoutingPolicyRegistry name) and its
  /// parameters ("threshold.initial_threshold", "power-of-d.d", ...).
  std::string routing = "join-shortest-queue";
  util::ParamMap routing_params;
  /// Cluster-wide Poisson arrival rate (transactions per second). Drives
  /// the default "open" workload source; session sources use the
  /// `[workload]` section instead.
  db::Schedule arrival_rate = db::Schedule::Constant(100.0);

  /// Cluster mode: the arrival process ([workload] section) — which
  /// WorkloadRegistry source drives the front-end and, for session
  /// sources, the population/burst/think/affinity model. Defaults
  /// reproduce the classic open Poisson stream exactly.
  workload::WorkloadSpec workload;

  /// Cluster-level displacement: when true the front-end retracts queued
  /// admissions from nodes that crash or drain and re-routes them (crash
  /// kills are retried elsewhere as fresh requests); when false that work
  /// is lost (crash) or strands until the drain completes. A positive
  /// `retraction_queue_factor` additionally sheds queue beyond
  /// factor * n* from live nodes every `retraction_interval` seconds.
  bool retraction = false;
  double retraction_queue_factor = 0.0;
  double retraction_interval = 1.0;

  /// Cluster mode: bounded retry/backoff for retracted and crash-killed
  /// work ("retry.*" keys), and the class-tiered graceful-degradation
  /// ladder ("degrade.*" keys). Both off by default.
  cluster::RetryConfig retry;
  cluster::DegradeConfig degrade;

  /// Cluster mode: spec-driven fault injection ([fault] section) — probe
  /// loss/delay storms, partitions, disk stalls, CPU degradation, and
  /// crash bursts perturbing the measured path only.
  fault::FaultConfig fault;

  /// When non-empty, RunSpec records a Chrome trace-event JSON of the run
  /// (transaction lifecycle, gate decisions, controller limit changes,
  /// membership transitions) and writes it here; empty disables tracing.
  /// Observability only: the trace never perturbs the simulation.
  std::string trace_path;

  /// When non-empty, RunSpec audits every controller step (monitor inputs,
  /// limit move, reason code, controller state) and writes the stable
  /// decisions.csv here; empty disables auditing. Observability only: the
  /// audit never perturbs the simulation.
  std::string decisions_path;

  /// Cluster mode: data placement layer (see cluster::PlacementSpec).
  bool placement_enabled = false;
  placement::PlacementConfig placement;
  db::LogicalConfig placement_workload;
  std::optional<db::WorkloadDynamics> placement_dynamics;
  db::RemoteAccessConfig remote_access;

  /// Cluster mode: closed-loop elasticity ([elasticity] section) — measured
  /// heartbeat failure detection replacing the membership oracle, and an
  /// autoscaler provisioning/draining a standby pool off fleet signals.
  elasticity::ElasticityConfig elasticity;

  bool operator==(const ExperimentSpec& other) const {
    return name == other.name && cluster == other.cluster &&
           seed == other.seed && duration == other.duration &&
           warmup == other.warmup && nodes == other.nodes &&
           active_terminals == other.active_terminals &&
           routing == other.routing &&
           routing_params == other.routing_params &&
           arrival_rate == other.arrival_rate &&
           workload == other.workload &&
           retraction == other.retraction &&
           retraction_queue_factor == other.retraction_queue_factor &&
           retraction_interval == other.retraction_interval &&
           retry == other.retry && degrade == other.degrade &&
           fault == other.fault &&
           trace_path == other.trace_path &&
           decisions_path == other.decisions_path &&
           placement_enabled == other.placement_enabled &&
           placement == other.placement &&
           placement_workload == other.placement_workload &&
           placement_dynamics == other.placement_dynamics &&
           remote_access == other.remote_access &&
           elasticity == other.elasticity;
  }
  bool operator!=(const ExperimentSpec& other) const {
    return !(*this == other);
  }
};

/// Builds one node's admission controller: a lookup into
/// control::ControllerRegistry on `node.control.controller`, configured by
/// `node.control.params` alone. The node is needed because the Tay rule
/// reads the declared k(t) schedule and database size. Aborts (with the
/// registered names listed) on an unknown controller name.
std::unique_ptr<control::LoadController> MakeController(const NodeSpec& node);

/// Builds the spec's routing policy: a lookup into
/// cluster::RoutingPolicyRegistry on `spec.routing`, configured by
/// `spec.routing_params` and seeded by `spec.seed`. Aborts (with the
/// registered names listed) on an unknown policy name.
std::unique_ptr<cluster::RoutingPolicy> MakeRoutingPolicy(
    const ExperimentSpec& spec);

/// Derives the seed for one cluster node from a base seed. The mix is
/// multiplicative (splitmix64 finalizer), not an additive stride: the
/// TransactionSystem derives its internal streams by adding fixed offsets
/// to its seed, so additively-strided node seeds would make neighboring
/// nodes share bit-identical streams.
uint64_t DecorrelatedNodeSeed(uint64_t base, int node_index);

/// A cluster spec of N nodes cloned from a single-node spec's node:
/// system, dynamics, and control are copied; node seeds are decorrelated
/// from the base node's seed (which also seeds the cluster) so replicas do
/// not move in lockstep. Duration and warmup carry over; every other
/// experiment field keeps its default.
ExperimentSpec UniformCluster(int num_nodes, const ExperimentSpec& base);

/// Arrival-rate schedule for a flash crowd: `base_rate` except
/// [start, end), where the rate is `crowd_rate`.
db::Schedule FlashCrowdSchedule(double base_rate, double crowd_rate,
                                double start, double end);

/// CPU speed schedule for a degraded node: full speed except [start, end),
/// where the node runs at `degraded_speed` (< 1).
db::Schedule NodeSlowdownSchedule(double degraded_speed, double start,
                                  double end);

}  // namespace alc::core

#endif  // ALC_CORE_EXPERIMENT_SPEC_H_
