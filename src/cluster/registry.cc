#include "cluster/registry.h"

#include <utility>

namespace alc::cluster {

ThresholdPolicy::Config ThresholdFromParams(const util::ParamMap& params) {
  ThresholdPolicy::Config config;
  config.initial_threshold =
      params.GetDouble("threshold.initial_threshold", config.initial_threshold);
  config.min_threshold =
      params.GetDouble("threshold.min_threshold", config.min_threshold);
  config.max_threshold =
      params.GetDouble("threshold.max_threshold", config.max_threshold);
  return config;
}

PowerOfDPolicy::Config PowerOfDFromParams(const util::ParamMap& params) {
  PowerOfDPolicy::Config config;
  config.d = params.GetInt("power-of-d.d", config.d);
  return config;
}

namespace {

RoutingPolicyRegistry* NewRoutingPolicyRegistry() {
  auto* registry = new RoutingPolicyRegistry("routing policy");
  registry->Register("round-robin", [](const RoutingPolicyContext&) {
    return std::make_unique<RoundRobinPolicy>();
  });
  registry->Register("random", [](const RoutingPolicyContext& context) {
    return std::make_unique<RandomPolicy>(context.seed);
  });
  registry->Register("join-shortest-queue", [](const RoutingPolicyContext&) {
    return std::make_unique<JoinShortestQueuePolicy>();
  });
  registry->Register("threshold", [](const RoutingPolicyContext& context) {
    return std::make_unique<ThresholdPolicy>(
        ThresholdFromParams(*context.params));
  });
  registry->Register("power-of-d", [](const RoutingPolicyContext& context) {
    return std::make_unique<PowerOfDPolicy>(PowerOfDFromParams(*context.params),
                                            context.seed);
  });
  registry->Register("locality", [](const RoutingPolicyContext&) {
    return std::make_unique<LocalityPolicy>();
  });
  registry->Register("locality-threshold", [](const RoutingPolicyContext&) {
    return std::make_unique<LocalityThresholdPolicy>();
  });
  return registry;
}

}  // namespace
}  // namespace alc::cluster

template <>
alc::cluster::RoutingPolicyRegistry&
alc::cluster::RoutingPolicyRegistry::Global() {
  static Registry* registry = cluster::NewRoutingPolicyRegistry();
  return *registry;
}
