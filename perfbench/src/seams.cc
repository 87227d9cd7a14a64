#include "seams.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <utility>

#include "cluster/registry.h"
#include "control/registry.h"
#include "elasticity/autoscaler.h"
#include "sim/simulator.h"
#include "workload/registry.h"

namespace perfbench {

using namespace alc;

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Begin(Layer layer) {
  if (depth_ == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span nesting deeper than %d\n",
                 kMaxDepth);
    std::abort();
  }
  stack_[static_cast<size_t>(depth_++)] = Open{layer, Clock::now(), 0.0};
}

void Tracer::End() {
  const Clock::time_point now = Clock::now();
  const Open& open = stack_[static_cast<size_t>(--depth_)];
  const double ns =
      std::chrono::duration<double, std::nano>(now - open.start).count();
  LayerTotals& totals = totals_.layers[static_cast<size_t>(open.layer)];
  ++totals.calls;
  totals.incl_ns += ns;
  totals.self_ns += ns - open.child_ns;
  if (depth_ > 0) stack_[static_cast<size_t>(depth_ - 1)].child_ns += ns;
}

namespace {

constexpr std::string_view kPrefix = "timed-";

class Span {
 public:
  explicit Span(Layer layer) { Tracer::Get().Begin(layer); }
  ~Span() { Tracer::Get().End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

class TimedRouting : public cluster::RoutingPolicy {
 public:
  explicit TimedRouting(std::unique_ptr<cluster::RoutingPolicy> inner)
      : inner_(std::move(inner)) {}

  int Route(const cluster::MembershipView& cluster,
            const cluster::RouteContext& context) override {
    Tracer::Get().CountRoute(context.is_retraction);
    Span span(Layer::kRoute);
    return inner_->Route(cluster, context);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cluster::RoutingPolicy> inner_;
};

class TimedHost : public workload::WorkloadHost {
 public:
  void set_inner(workload::WorkloadHost* inner) { inner_ = inner; }

  void SubmitArrival(const workload::Arrival& arrival) override {
    Span span(Layer::kSubmit);
    inner_->SubmitArrival(arrival);
  }
  uint32_t keyspace() const override { return inner_->keyspace(); }

 private:
  workload::WorkloadHost* inner_ = nullptr;
};

class TimedSource : public workload::WorkloadSource {
 public:
  explicit TimedSource(std::unique_ptr<workload::WorkloadSource> inner)
      : inner_(std::move(inner)) {}

  // The cluster owns its source and is torn down before the simulator
  // (ClusterExperiment::Run declares the simulator first), so the event
  // count read here is the run's final one.
  ~TimedSource() override {
    if (sim_ != nullptr) Tracer::Get().SetEvents(sim_->events_executed());
  }

  void Start(sim::Simulator* sim, workload::WorkloadHost* host) override {
    sim_ = sim;
    host_.set_inner(host);
    inner_->Start(sim, &host_);
  }
  void OnComplete(int32_t session, double response, bool ok) override {
    Span span(Layer::kComplete);
    inner_->OnComplete(session, response, ok);
  }
  void RegisterMetrics(telemetry::MetricRegistry* registry,
                       const std::string& prefix) override {
    inner_->RegisterMetrics(registry, prefix);
  }
  void SetTraceRecorder(telemetry::TraceRecorder* trace) override {
    inner_->SetTraceRecorder(trace);
  }

 private:
  std::unique_ptr<workload::WorkloadSource> inner_;
  TimedHost host_;
  const sim::Simulator* sim_ = nullptr;
};

class TimedController : public control::LoadController {
 public:
  explicit TimedController(std::unique_ptr<control::LoadController> inner)
      : inner_(std::move(inner)) {}

  double Update(const control::Sample& sample) override {
    Span span(Layer::kControl);
    return inner_->Update(sample);
  }
  void Reset(double initial_bound) override { inner_->Reset(initial_bound); }
  double bound() const override { return inner_->bound(); }
  std::string_view name() const override { return inner_->name(); }
  void DescribeDecision(control::DecisionState* state) const override {
    inner_->DescribeDecision(state);
  }

 private:
  std::unique_ptr<control::LoadController> inner_;
};

class TimedAutoscaler : public elasticity::AutoscalerPolicy {
 public:
  explicit TimedAutoscaler(std::unique_ptr<elasticity::AutoscalerPolicy> inner)
      : inner_(std::move(inner)) {}

  elasticity::ScaleDecision Update(
      const elasticity::FleetSample& sample) override {
    Span span(Layer::kScaler);
    return inner_->Update(sample);
  }
  std::string_view name() const override { return inner_->name(); }
  void DescribeDecision(control::DecisionState* state) const override {
    inner_->DescribeDecision(state);
  }

 private:
  std::unique_ptr<elasticity::AutoscalerPolicy> inner_;
};

/// Registers "timed-<inner>" in `registry` (once) as a factory that builds
/// the real policy through the same registry and wraps it in `Timed`.
template <typename Timed, typename Registry, typename Context>
std::string RegisterTimed(Registry& registry, const std::string& inner) {
  const std::string timed = std::string(kPrefix) + inner;
  if (!registry.Contains(timed)) {
    registry.Register(timed, [&registry, inner](const Context& context) {
      std::string error;
      auto policy = registry.Make(inner, context, &error);
      if (policy == nullptr) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        std::abort();
      }
      return std::make_unique<Timed>(std::move(policy));
    });
  }
  return timed;
}

}  // namespace

bool InstallTimedSeams(core::ExperimentSpec* spec, std::string* error) {
  for (size_t i = 0; i < spec->nodes.size(); ++i) {
    const std::string name =
        RegisterTimed<TimedController, control::ControllerRegistry,
                      control::ControllerContext>(
            control::ControllerRegistry::Global(),
            spec->nodes[i].control.controller);
    if (!core::ApplySpecOverride(
            spec, "node" + std::to_string(i) + ".control.controller", name,
            error)) {
      return false;
    }
  }
  if (!spec->cluster) return true;

  const std::string routing =
      RegisterTimed<TimedRouting, cluster::RoutingPolicyRegistry,
                    cluster::RoutingPolicyContext>(
          cluster::RoutingPolicyRegistry::Global(), spec->routing);
  const std::string source =
      RegisterTimed<TimedSource, workload::WorkloadRegistry,
                    workload::WorkloadSourceContext>(
          workload::WorkloadRegistry::Global(), spec->workload.source);
  if (!core::ApplySpecOverride(spec, "routing", routing, error) ||
      !core::ApplySpecOverride(spec, "workload.source", source, error)) {
    return false;
  }
  if (spec->elasticity.scaler != "none") {
    const std::string scaler =
        RegisterTimed<TimedAutoscaler, elasticity::AutoscalerRegistry,
                      elasticity::AutoscalerContext>(
            elasticity::AutoscalerRegistry::Global(), spec->elasticity.scaler);
    if (!core::ApplySpecOverride(spec, "elasticity.scaler", scaler, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
