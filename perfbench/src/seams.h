#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

// Timing decorators at the library's public registry seams. Each decorator
// wraps the real routing policy, workload source (and the WorkloadHost it is
// handed, i.e. the cluster's SubmitArrival), load controller or autoscaler,
// delegates every call including name(), and charges the wall time of the
// wrapped call to its layer. They never draw random numbers or schedule
// events, so a traced run simulates exactly what the untraced run does.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "core/spec.h"

namespace perfbench {

enum class Layer { kSubmit, kRoute, kComplete, kControl, kScaler };
inline constexpr int kNumLayers = 5;

struct LayerTotals {
  uint64_t calls = 0;
  double incl_ns = 0.0;  // wall time inside the span
  double self_ns = 0.0;  // ... minus the time of spans nested inside it
};

/// What one traced run recorded.
struct TraceTotals {
  std::array<LayerTotals, kNumLayers> layers;
  uint64_t arrival_routes = 0;
  uint64_t retraction_routes = 0;
  /// Simulator::events_executed() when the wrapped workload source is torn
  /// down; 0 for single-node runs, which construct no source.
  uint64_t events = 0;

  const LayerTotals& at(Layer layer) const {
    return layers[static_cast<size_t>(layer)];
  }
};

/// Span accounting shared by every decorator. The simulation runs on one
/// thread, so spans nest strictly and need no locking.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  static Tracer& Get();

  void Reset() { totals_ = TraceTotals{}; depth_ = 0; }
  const TraceTotals& totals() const { return totals_; }

  void Begin(Layer layer);
  void End();
  void CountRoute(bool is_retraction) {
    ++(is_retraction ? totals_.retraction_routes : totals_.arrival_routes);
  }
  void SetEvents(uint64_t events) { totals_.events = events; }

 private:
  struct Open {
    Layer layer = Layer::kSubmit;
    Clock::time_point start;
    double child_ns = 0.0;
  };
  static constexpr int kMaxDepth = 16;

  std::array<Open, kMaxDepth> stack_;
  int depth_ = 0;
  TraceTotals totals_;
};

/// Rewrites `spec` so the run goes through the timed twins of its routing
/// policy, workload source, controllers and autoscaler (registered on first
/// use as "timed-<name>"). Single-node specs only get the controller twin:
/// they construct no router, source or autoscaler. An autoscaler named
/// "none" is left alone, because the elasticity loop skips sampling by
/// that name. False with `error` set when an override is rejected.
bool InstallTimedSeams(alc::core::ExperimentSpec* spec, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
