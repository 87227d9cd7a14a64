#ifndef ALC_WORKLOAD_REGISTRY_H_
#define ALC_WORKLOAD_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "util/registry.h"
#include "workload/source.h"

namespace alc::workload {

/// What a workload-source factory may consume: the parsed [workload] spec
/// section, the experiment's arrival-rate schedule (the open source's
/// drive), and the experiment seed (factories apply their own salts).
struct WorkloadSourceContext {
  const WorkloadSpec* spec = nullptr;  // never null inside a factory
  db::Schedule arrival_rate;
  uint64_t seed = 0;
};

using WorkloadSourceFactory =
    std::function<std::unique_ptr<WorkloadSource>(const WorkloadSourceContext&)>;

/// The workload-source family: open, closed and hybrid, plus whatever
/// user code registers, selected by `[workload] source`.
using WorkloadRegistry = util::Registry<WorkloadSourceFactory>;

}  // namespace alc::workload

template <>
alc::workload::WorkloadRegistry& alc::workload::WorkloadRegistry::Global();

#endif  // ALC_WORKLOAD_REGISTRY_H_
