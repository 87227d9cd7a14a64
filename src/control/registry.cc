#include "control/registry.h"

#include <utility>

#include "control/fixed.h"
#include "util/check.h"

namespace alc::control {

namespace {

PerformanceIndex IndexParam(const util::ParamMap& params,
                            const std::string& key, PerformanceIndex fallback) {
  const std::string* value = params.Find(key);
  if (value == nullptr) return fallback;
  PerformanceIndex index = fallback;
  ALC_CHECK(ParsePerformanceIndex(*value, &index));
  return index;
}

}  // namespace

bool ParsePerformanceIndex(std::string_view name, PerformanceIndex* out) {
  if (name == "throughput") {
    *out = PerformanceIndex::kThroughput;
  } else if (name == "inverse-response-time") {
    *out = PerformanceIndex::kInverseResponseTime;
  } else if (name == "effective-cpu-utilization") {
    *out = PerformanceIndex::kEffectiveCpuUtilization;
  } else {
    return false;
  }
  return true;
}

bool ParsePaRecoveryPolicy(std::string_view name, PaRecoveryPolicy* out) {
  if (name == "hold") {
    *out = PaRecoveryPolicy::kHold;
  } else if (name == "gradient") {
    *out = PaRecoveryPolicy::kGradient;
  } else if (name == "contract") {
    *out = PaRecoveryPolicy::kContract;
  } else if (name == "reset") {
    *out = PaRecoveryPolicy::kReset;
  } else {
    return false;
  }
  return true;
}

bool CheckControllerParams(const util::ParamMap& params, std::string* error) {
  const auto bad = [&](const char* key, const char* expected) {
    *error = std::string(key) + ": expected " + expected + ", got '" +
             *params.Find(key) + "'";
    return false;
  };
  for (const char* key : {"is.index", "pa.index", "gs.index"}) {
    const std::string* value = params.Find(key);
    PerformanceIndex index;
    if (value != nullptr && !ParsePerformanceIndex(*value, &index)) {
      return bad(key,
                 "throughput/inverse-response-time/effective-cpu-utilization");
    }
  }
  const std::string* recovery = params.Find("pa.recovery");
  PaRecoveryPolicy policy;
  if (recovery != nullptr && !ParsePaRecoveryPolicy(*recovery, &policy)) {
    return bad("pa.recovery", "hold/gradient/contract/reset");
  }
  return true;
}

IsConfig IsFromParams(const util::ParamMap& params) {
  IsConfig config;
  config.beta = params.GetDouble("is.beta", config.beta);
  config.gamma = params.GetDouble("is.gamma", config.gamma);
  config.delta = params.GetDouble("is.delta", config.delta);
  config.initial_bound =
      params.GetDouble("is.initial_bound", config.initial_bound);
  config.min_bound = params.GetDouble("is.min_bound", config.min_bound);
  config.max_bound = params.GetDouble("is.max_bound", config.max_bound);
  config.index = IndexParam(params, "is.index", config.index);
  return config;
}

PaConfig PaFromParams(const util::ParamMap& params) {
  PaConfig config;
  config.forgetting = params.GetDouble("pa.forgetting", config.forgetting);
  config.initial_covariance =
      params.GetDouble("pa.initial_covariance", config.initial_covariance);
  config.initial_bound =
      params.GetDouble("pa.initial_bound", config.initial_bound);
  config.min_bound = params.GetDouble("pa.min_bound", config.min_bound);
  config.max_bound = params.GetDouble("pa.max_bound", config.max_bound);
  config.dither = params.GetDouble("pa.dither", config.dither);
  config.warmup_updates =
      params.GetInt("pa.warmup_updates", config.warmup_updates);
  config.recovery_step =
      params.GetDouble("pa.recovery_step", config.recovery_step);
  config.reset_after_failures =
      params.GetInt("pa.reset_after_failures", config.reset_after_failures);
  config.max_excitation_boost =
      params.GetDouble("pa.max_excitation_boost", config.max_excitation_boost);
  if (const std::string* value = params.Find("pa.recovery")) {
    ALC_CHECK(ParsePaRecoveryPolicy(*value, &config.recovery));
  }
  config.index = IndexParam(params, "pa.index", config.index);
  return config;
}

GsConfig GsFromParams(const util::ParamMap& params) {
  GsConfig config;
  config.min_bound = params.GetDouble("gs.min_bound", config.min_bound);
  config.max_bound = params.GetDouble("gs.max_bound", config.max_bound);
  config.samples_per_probe =
      params.GetInt("gs.samples_per_probe", config.samples_per_probe);
  config.min_bracket = params.GetDouble("gs.min_bracket", config.min_bracket);
  config.restart_width_factor =
      params.GetDouble("gs.restart_width_factor", config.restart_width_factor);
  config.index = IndexParam(params, "gs.index", config.index);
  return config;
}

IyerRuleController::Config IyerFromParams(const util::ParamMap& params) {
  IyerRuleController::Config config;
  config.target_conflicts =
      params.GetDouble("iyer.target_conflicts", config.target_conflicts);
  config.gain = params.GetDouble("iyer.gain", config.gain);
  config.initial_bound =
      params.GetDouble("iyer.initial_bound", config.initial_bound);
  config.min_bound = params.GetDouble("iyer.min_bound", config.min_bound);
  config.max_bound = params.GetDouble("iyer.max_bound", config.max_bound);
  return config;
}

namespace {

ControllerRegistry* NewControllerRegistry() {
  auto* registry = new ControllerRegistry("controller");
  registry->Register("none", [](const ControllerContext&) {
    return std::make_unique<NoControlController>();
  });
  registry->Register("fixed", [](const ControllerContext& context) {
    return std::make_unique<FixedLimitController>(
        context.params->GetDouble("fixed.limit", 50.0));
  });
  registry->Register("tay-rule", [](const ControllerContext& context) {
    // The rule reads the *declared* workload descriptor k(t); without a
    // provider it degenerates to the constant default k.
    std::function<double(double)> k = context.k_of_time;
    if (!k) k = [](double) { return 16.0; };
    return std::make_unique<TayRuleController>(
        context.db_size, std::move(k),
        context.params->GetDouble("tay.threshold", 1.5));
  });
  registry->Register("iyer-rule", [](const ControllerContext& context) {
    return std::make_unique<IyerRuleController>(
        IyerFromParams(*context.params));
  });
  registry->Register("incremental-steps",
                     [](const ControllerContext& context) {
                       return std::make_unique<IncrementalStepsController>(
                           IsFromParams(*context.params));
                     });
  registry->Register("parabola-approximation",
                     [](const ControllerContext& context) {
                       return std::make_unique<ParabolaApproximationController>(
                           PaFromParams(*context.params));
                     });
  registry->Register("golden-section",
                     [](const ControllerContext& context) {
                       return std::make_unique<GoldenSectionController>(
                           GsFromParams(*context.params));
                     });
  return registry;
}

}  // namespace
}  // namespace alc::control

template <>
alc::control::ControllerRegistry& alc::control::ControllerRegistry::Global() {
  static Registry* registry = control::NewControllerRegistry();
  return *registry;
}
