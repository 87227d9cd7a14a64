// Controller and routing-policy registries: the built-in names, the
// typed-config param readers, and external registration running through
// the standard ExperimentSpec path with no core edits. The registry
// template itself is tested in util_test.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/registry.h"
#include "control/registry.h"
#include "core/cluster_experiment.h"
#include "core/spec.h"

namespace alc {
namespace {

// ------------------------------------------------------------ controllers --

TEST(ControllerRegistryTest, BuiltinsAreRegistered) {
  EXPECT_EQ(control::ControllerRegistry::Global().Names(),
            (std::vector<std::string>{"fixed", "golden-section",
                                      "incremental-steps", "iyer-rule", "none",
                                      "parabola-approximation", "tay-rule"}));
}

TEST(ControllerRegistryTest, BuiltInNamesReachTheExpectedFactories) {
  // Selecting each built-in by name must reach a controller that reports
  // the same name back.
  for (const char* name :
       {"none", "fixed", "tay-rule", "iyer-rule", "incremental-steps",
        "parabola-approximation", "golden-section"}) {
    EXPECT_TRUE(control::ControllerRegistry::Global().Contains(name)) << name;
    core::NodeSpec node;
    node.control.controller = name;
    std::unique_ptr<control::LoadController> controller =
        core::MakeController(node);
    ASSERT_NE(controller, nullptr);
    EXPECT_EQ(controller->name(), std::string_view(name));
  }
}

TEST(ControllerRegistryTest, ParamReadersParseTypedConfigs) {
  util::ParamMap params;
  params.Set("pa.forgetting", "0.91");
  params.Set("pa.dither", "4.5");
  params.Set("pa.recovery", "contract");
  params.Set("pa.index", "inverse-response-time");
  const control::PaConfig pa = control::PaFromParams(params);
  EXPECT_EQ(pa.forgetting, 0.91);
  EXPECT_EQ(pa.dither, 4.5);
  EXPECT_EQ(pa.recovery, control::PaRecoveryPolicy::kContract);
  EXPECT_EQ(pa.index, control::PerformanceIndex::kInverseResponseTime);
  // The spec-time check accepts every value the readers parse (it refuses
  // the rest: SpecOverrideTest.ChainIsValidatedAsAWhole).
  std::string error;
  EXPECT_TRUE(control::CheckControllerParams(params, &error)) << error;
  // Keys left unset keep the struct defaults.
  EXPECT_EQ(pa.max_bound, control::PaConfig().max_bound);

  util::ParamMap is_params;
  is_params.Set("is.beta", "1.5");
  is_params.Set("is.max_bound", "444");
  const control::IsConfig is = control::IsFromParams(is_params);
  EXPECT_EQ(is.beta, 1.5);
  EXPECT_EQ(is.max_bound, 444.0);
  EXPECT_EQ(is.gamma, control::IsConfig().gamma);

  util::ParamMap gs_params;
  gs_params.Set("gs.samples_per_probe", "7");
  gs_params.Set("gs.index", "effective-cpu-utilization");
  const control::GsConfig gs = control::GsFromParams(gs_params);
  EXPECT_EQ(gs.samples_per_probe, 7);
  EXPECT_EQ(gs.index, control::PerformanceIndex::kEffectiveCpuUtilization);
  EXPECT_TRUE(control::CheckControllerParams(gs_params, &error)) << error;

  util::ParamMap iyer_params;
  iyer_params.Set("iyer.gain", "60");
  EXPECT_EQ(control::IyerFromParams(iyer_params).gain, 60.0);
}

/// The example-controller scenario: a policy registered outside src/ (here,
/// in a test binary) driven through the standard spec path.
class HalvingController : public control::LoadController {
 public:
  explicit HalvingController(double initial) : bound_(initial) {}
  double Update(const control::Sample&) override {
    bound_ = std::max(5.0, bound_ * 0.5);
    return bound_;
  }
  void Reset(double initial_bound) override { bound_ = initial_bound; }
  double bound() const override { return bound_; }
  std::string_view name() const override { return "test-halving"; }

 private:
  double bound_;
};

TEST(ControllerRegistryTest, ExternalControllerRunsThroughSpecPath) {
  control::ControllerRegistry::Global().Register(
      "test-halving", [](const control::ControllerContext& context) {
        return std::make_unique<HalvingController>(
            context.params->GetDouble("halving.initial", 100.0));
      });

  const core::ExperimentSpec spec = core::ParseSpecOrDie(
      "[experiment]\n"
      "seed = 3\n"
      "duration = 10\n"
      "warmup = 2\n"
      "[node]\n"
      "control.controller = test-halving\n"
      "control.halving.initial = 64\n");

  // Through the text form too: registration is all it takes for the name
  // to work in a spec file.
  core::ExperimentSpec reparsed;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(core::PrintSpec(spec), &reparsed, &error))
      << error;
  const core::SpecRunResult result = core::RunSpec(reparsed);
  ASSERT_FALSE(result.cluster);
  ASSERT_FALSE(result.single.trajectory.empty());
  // The halving policy collapses the bound toward its floor.
  EXPECT_EQ(result.single.trajectory.back().bound, 5.0);
}

// --------------------------------------------------------- routing policies --

TEST(RoutingRegistryTest, BuiltinsAreRegisteredUnderTheirNames) {
  auto& registry = cluster::RoutingPolicyRegistry::Global();
  const std::vector<std::string> builtins = {
      "join-shortest-queue", "locality", "locality-threshold", "power-of-d",
      "random",              "round-robin", "threshold"};
  EXPECT_EQ(registry.Names(), builtins);
  for (const std::string& name : builtins) {
    util::ParamMap params;
    cluster::RoutingPolicyContext context;
    context.params = &params;
    context.seed = 1;
    std::unique_ptr<cluster::RoutingPolicy> policy =
        registry.Get(name)(context);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(RoutingRegistryTest, ThresholdParamsReachThePolicy) {
  util::ParamMap params;
  params.SetDouble("threshold.initial_threshold", 11.0);
  cluster::RoutingPolicyContext context;
  context.params = &params;
  std::unique_ptr<cluster::RoutingPolicy> policy =
      cluster::RoutingPolicyRegistry::Global().Get("threshold")(context);
  ASSERT_NE(policy, nullptr);
  auto* threshold = static_cast<cluster::ThresholdPolicy*>(policy.get());
  EXPECT_EQ(threshold->threshold(), 11.0);
}

/// A placement-blind external policy: everything goes to the first live
/// node.
class PinToZeroPolicy : public cluster::RoutingPolicy {
 public:
  int Route(const cluster::MembershipView& cluster,
            const cluster::RouteContext&) override {
    return cluster.live->front();
  }
  std::string_view name() const override { return "pin-to-zero"; }
};

TEST(RoutingRegistryTest, ExternalPolicyRunsThroughSpecPath) {
  cluster::RoutingPolicyRegistry::Global().Register(
      "pin-to-zero", [](const cluster::RoutingPolicyContext&) {
        return std::make_unique<PinToZeroPolicy>();
      });

  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.seed = 11;
  spec.duration = 8.0;
  spec.warmup = 2.0;
  spec.routing = "pin-to-zero";
  spec.arrival_rate = db::Schedule::Constant(60.0);
  spec.nodes.resize(2);
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    spec.nodes[i].system.seed = 50 + i;
    spec.nodes[i].system.physical.num_cpus = 4;
    spec.nodes[i].control.controller = "none";
    spec.nodes[i].control.measurement_interval = 0.5;
  }

  const core::SpecRunResult result = core::RunSpec(spec);
  ASSERT_TRUE(result.cluster);
  EXPECT_GT(result.cluster_result.nodes[0].routed, 0u);
  EXPECT_EQ(result.cluster_result.nodes[1].routed, 0u);
}

}  // namespace
}  // namespace alc
