#include "core/experiment_spec.h"

#include <utility>

#include "cluster/registry.h"
#include "control/registry.h"
#include "util/check.h"

namespace alc::core {

std::unique_ptr<control::LoadController> MakeController(const NodeSpec& node) {
  control::ControllerContext context;
  context.params = &node.control.params;
  context.db_size = static_cast<double>(node.system.logical.db_size);
  // The Tay rule reads the *declared* workload descriptor k(t).
  db::Schedule k_schedule = node.dynamics.k;
  context.k_of_time = [k_schedule](double t) { return k_schedule.Value(t); };
  return control::ControllerRegistry::Global().Get(node.control.controller)(
      context);
}

std::unique_ptr<cluster::RoutingPolicy> MakeRoutingPolicy(
    const ExperimentSpec& spec) {
  cluster::RoutingPolicyContext context;
  context.params = &spec.routing_params;
  context.seed = spec.seed;
  return cluster::RoutingPolicyRegistry::Global().Get(spec.routing)(context);
}

uint64_t DecorrelatedNodeSeed(uint64_t base, int node_index) {
  // splitmix64 finalizer over a strided input: scrambles the additive
  // structure so no arithmetic relation survives between node seeds.
  uint64_t z = base + (static_cast<uint64_t>(node_index) + 1) *
                          0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ExperimentSpec UniformCluster(int num_nodes, const ExperimentSpec& base) {
  ALC_CHECK_GT(num_nodes, 0);
  ALC_CHECK(!base.nodes.empty());
  const NodeSpec& node = base.nodes[0];
  ExperimentSpec cluster;
  cluster.cluster = true;
  cluster.seed = node.system.seed;
  cluster.duration = base.duration;
  cluster.warmup = base.warmup;
  cluster.nodes.reserve(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    NodeSpec clone;
    clone.system = node.system;
    clone.system.seed = DecorrelatedNodeSeed(node.system.seed, i);
    clone.dynamics = node.dynamics;
    clone.control = node.control;
    cluster.nodes.push_back(std::move(clone));
  }
  return cluster;
}

db::Schedule FlashCrowdSchedule(double base_rate, double crowd_rate,
                                double start, double end) {
  ALC_CHECK_LT(start, end);
  return db::Schedule::Steps(base_rate,
                             {{start, crowd_rate}, {end, base_rate}});
}

db::Schedule NodeSlowdownSchedule(double degraded_speed, double start,
                                  double end) {
  ALC_CHECK_LT(start, end);
  ALC_CHECK_GT(degraded_speed, 0.0);
  return db::Schedule::Steps(1.0, {{start, degraded_speed}, {end, 1.0}});
}

}  // namespace alc::core
