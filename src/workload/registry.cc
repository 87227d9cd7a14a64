#include "workload/registry.h"

#include <utility>

#include "workload/session.h"

namespace alc::workload {

namespace {

WorkloadRegistry* NewWorkloadRegistry() {
  auto* registry = new WorkloadRegistry("workload source");
  registry->Register("open", [](const WorkloadSourceContext& context) {
    return std::make_unique<OpenArrivalSource>(
        context.arrival_rate, context.seed ^ kOpenArrivalSeedSalt);
  });
  registry->Register("closed", [](const WorkloadSourceContext& context) {
    return std::make_unique<SessionWorkload>(SessionWorkload::Mode::kClosed,
                                             *context.spec, context.seed);
  });
  registry->Register("hybrid", [](const WorkloadSourceContext& context) {
    return std::make_unique<SessionWorkload>(SessionWorkload::Mode::kHybrid,
                                             *context.spec, context.seed);
  });
  return registry;
}

}  // namespace
}  // namespace alc::workload

template <>
alc::workload::WorkloadRegistry& alc::workload::WorkloadRegistry::Global() {
  static Registry* registry = workload::NewWorkloadRegistry();
  return *registry;
}
