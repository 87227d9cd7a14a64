#ifndef ALC_CLUSTER_REGISTRY_H_
#define ALC_CLUSTER_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cluster/router.h"
#include "util/params.h"
#include "util/registry.h"

namespace alc::cluster {

/// What a routing-policy factory may consume: the string-keyed parameters
/// (canonical keys namespaced per policy: "threshold.initial_threshold",
/// "power-of-d.d", ...) and the seed for the policy's private random
/// stream.
struct RoutingPolicyContext {
  const util::ParamMap* params = nullptr;  // never null inside a factory
  uint64_t seed = 0;
};

using RoutingPolicyFactory =
    std::function<std::unique_ptr<RoutingPolicy>(const RoutingPolicyContext&)>;

/// The routing-policy family: round-robin, random, join-shortest-queue,
/// threshold, power-of-d, locality and locality-threshold, plus whatever
/// user code registers, selected by `routing`.
using RoutingPolicyRegistry = util::Registry<RoutingPolicyFactory>;

/// ParamMap readers for the built-in policy configs: each key the
/// factories read ("threshold.min_threshold", "power-of-d.d") overrides the
/// struct default.
ThresholdPolicy::Config ThresholdFromParams(const util::ParamMap& params);
PowerOfDPolicy::Config PowerOfDFromParams(const util::ParamMap& params);

}  // namespace alc::cluster

template <>
alc::cluster::RoutingPolicyRegistry&
alc::cluster::RoutingPolicyRegistry::Global();

#endif  // ALC_CLUSTER_REGISTRY_H_
