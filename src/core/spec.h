#ifndef ALC_CORE_SPEC_H_
#define ALC_CORE_SPEC_H_

#include <string>
#include <vector>

#include "core/cluster_experiment.h"
#include "core/experiment.h"
#include "core/experiment_spec.h"

namespace alc::core {

/// Canonical text form: every field as a `key = value` line under
/// `[experiment]` / `[placement]` / one `[node]` section per node, with
/// schedules as literals (db::Schedule::ToString). Doubles round trip
/// exactly; ParseSpec(PrintSpec(spec)) == spec.
std::string PrintSpec(const ExperimentSpec& spec);

/// Parses spec text. Accepts everything PrintSpec emits plus conveniences
/// for hand-written files: `#` comments, omitted keys (defaults apply), a
/// `[schedules]` section of named schedule literals referenced as `$name`,
/// and `count = N` inside a `[node]` section to clone the node N times with
/// decorrelated seeds (DecorrelatedNodeSeed over the node's seed if
/// declared, else the experiment seed). The result must pass ValidateSpec.
/// On failure returns false and sets `error` to a message (line-numbered
/// for a bad line), leaving `out` untouched.
bool ParseSpec(const std::string& text, ExperimentSpec* out,
               std::string* error);

/// ParseSpec for spec text built into a program (a bench, an example, a
/// test): aborts with the parse error on stderr instead of returning it.
ExperimentSpec ParseSpecOrDie(const std::string& text);

/// The whole-spec checks no single key can make: fleet shape and mode
/// (single-node specs use no cluster feature), fault windows and target
/// nodes, and the cross-field heartbeat, standby, retry and degrade rules.
/// ParseSpec runs it; so must every caller that ends an ApplySpecOverride
/// chain, once, after the last override. False with `error` set on the
/// first rule broken.
bool ValidateSpec(const ExperimentSpec& spec, std::string* error);

/// Scalar fields, schedule literals, enum names, and controller/routing
/// *names* are all validated here; controller/routing *param values*
/// ("control.pa.dither = ...") flow through as strings by design — unknown
/// keys belong to externally registered policies — and are validated by
/// the consuming factory when the run constructs its controllers (a
/// malformed value aborts there with the offending key named).
///
/// Reads and parses a spec file. False on I/O or parse failure.
bool LoadSpecFile(const std::string& path, ExperimentSpec* out,
                  std::string* error);

/// Applies one `key = value` override to a parsed spec — the mechanism
/// behind sweep axes and alc_run --set. Keys address the same fields as
/// spec files: experiment-level keys bare ("duration", "routing",
/// "arrival_rate", "routing.threshold.min_threshold"), placement keys with
/// a "placement." prefix, node keys with "node." (all nodes) or "node<i>."
/// (node i alone), e.g. "node.control.controller" or
/// "node0.physical.num_cpus"; likewise "workload.", "elasticity." and
/// "fault." for those sections. Overriding "seed" re-derives every node's
/// seed from the new value (directly for one node, DecorrelatedNodeSeed
/// per index otherwise), so a seed sweep is a replication sweep; pin a
/// node afterwards with "node<i>.seed" if needed. The value is checked
/// against the key's type and bound, names against the registries, and
/// cluster-only keys are rejected on single-node specs; a failed override
/// leaves the spec unchanged. Whole-spec rules are not checked here: call
/// ValidateSpec at the end of the chain.
bool ApplySpecOverride(ExperimentSpec* spec, const std::string& key,
                       const std::string& value, std::string* error);

/// One key of the table that drives ParseSpec, PrintSpec and
/// ApplySpecOverride, listed by `alc_run --help`.
struct SpecKeyInfo {
  std::string section;  // "experiment", "workload", ..., "node"
  /// The key within its section; a passthrough to a parameter map ends in
  /// "*" ("control.*"), and "*.*" stands for any dotted key.
  std::string key;
  std::string type;  // "double", "int", "uint32", "enum", "schedule", ...
  /// Numeric range ("> 0", "[0, 1]"), enum names ("occ/2pl") or the
  /// registry a name must be in; empty when the type is the only rule.
  std::string bound;
  bool cluster_only = false;  // rejected as an override on single-node specs
};

/// Every spec key, by section in PrintSpec order.
std::vector<SpecKeyInfo> SpecKeys();

/// Outcome of RunSpec: exactly one of the two results is populated.
struct SpecRunResult {
  bool cluster = false;
  ExperimentResult single;
  ClusterResult cluster_result;

  /// Decision audit of the run, in chronological order (empty unless the
  /// spec set decisions_path). The same records RunSpec already wrote as
  /// decisions.csv, kept for the alc_run summary and tests.
  std::vector<telemetry::DecisionRecord> decisions;
  /// Records the audit ring overwrote (0 unless the run out-ran capacity).
  size_t decisions_dropped = 0;

  double total_throughput() const {
    return cluster ? cluster_result.total_throughput : single.mean_throughput;
  }
  double mean_response() const {
    return cluster ? cluster_result.mean_response : single.mean_response;
  }
  double abort_ratio() const {
    return cluster ? cluster_result.abort_ratio : single.abort_ratio;
  }
  uint64_t commits() const {
    return cluster ? cluster_result.commits : single.commits;
  }
  const std::vector<telemetry::MetricSample>& metrics() const {
    return cluster ? cluster_result.metrics : single.metrics;
  }
};

/// Runs the spec through Experiment or ClusterExperiment as its mode
/// demands. Deterministic given the spec. Aborts if the spec fails
/// ValidateSpec.
SpecRunResult RunSpec(const ExperimentSpec& spec);

}  // namespace alc::core

#endif  // ALC_CORE_SPEC_H_
