#ifndef ALC_CONTROL_REGISTRY_H_
#define ALC_CONTROL_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "control/controller.h"
#include "control/golden_section.h"
#include "control/incremental_steps.h"
#include "control/parabola.h"
#include "control/rules.h"
#include "util/params.h"
#include "util/registry.h"

namespace alc::control {

/// Everything a controller factory may consume. `params` carries the
/// string-keyed configuration (canonical keys are namespaced per family:
/// "pa.dither", "is.beta", "fixed.limit", ...); the remaining fields are
/// node-derived context that cannot be expressed as scalars — the Tay
/// rule needs the declared database size and k(t) schedule.
struct ControllerContext {
  const util::ParamMap* params = nullptr;  // never null inside a factory
  double db_size = 0.0;
  std::function<double(double)> k_of_time;  // may be empty
};

using ControllerFactory =
    std::function<std::unique_ptr<LoadController>(const ControllerContext&)>;

/// The controller family: the built-in zoo (none, fixed, tay-rule,
/// iyer-rule, incremental-steps, parabola-approximation, golden-section)
/// plus whatever user code registers, selected by `control.controller`.
using ControllerRegistry = util::Registry<ControllerFactory>;

/// ParamMap readers for the built-in controller configs: each key the
/// factories read ("is.beta", "pa.dither", "gs.min_bound", "iyer.gain",
/// ...) overrides the struct default. Spec files (`control.pa.dither = 5`)
/// and sweep overrides set the same keys.
IsConfig IsFromParams(const util::ParamMap& params);
PaConfig PaFromParams(const util::ParamMap& params);
GsConfig GsFromParams(const util::ParamMap& params);
IyerRuleController::Config IyerFromParams(const util::ParamMap& params);

/// Name -> enum parsers used by the param readers.
bool ParsePerformanceIndex(std::string_view name, PerformanceIndex* out);
bool ParsePaRecoveryPolicy(std::string_view name, PaRecoveryPolicy* out);

/// Checks the enum-valued keys the readers parse ("is.index", "pa.index",
/// "gs.index", "pa.recovery"), so a bad value is refused with the spec
/// instead of failing a CHECK when the controller is built. False with
/// `error` naming the key on the first bad value.
bool CheckControllerParams(const util::ParamMap& params, std::string* error);

}  // namespace alc::control

template <>
alc::control::ControllerRegistry& alc::control::ControllerRegistry::Global();

#endif  // ALC_CONTROL_REGISTRY_H_
