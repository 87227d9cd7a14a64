#include "core/spec.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "cluster/registry.h"
#include "control/registry.h"
#include "elasticity/autoscaler.h"
#include "fault/fault.h"
#include "util/check.h"
#include "util/registry.h"
#include "workload/registry.h"

namespace alc::core {

namespace {

using util::TrimWhitespace;

bool HasPrefix(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

using ScheduleMap = std::map<std::string, db::Schedule>;
using AvailabilityMap = std::map<std::string, cluster::AvailabilitySchedule>;

/// The named-schedule context of a parse: numeric schedules and
/// availability schedules share the [schedules] section (disambiguated by
/// the avail(...) literal head) and the `$name` reference syntax.
struct NamedSchedules {
  ScheduleMap schedules;
  AvailabilityMap availabilities;
};

/// Resolves a `$name` value against one kind of [schedules] entry.
template <typename T>
bool Lookup(const std::map<std::string, T>& named, const std::string& value,
            T* out) {
  const auto it = named.find(value.substr(1));
  if (it == named.end()) return false;
  *out = it->second;
  return true;
}

// -------------------------------------------------------------- key table --
//
// Every spec key is declared once, in KeyTable's constructor: its section,
// its key, the field it sets, the value type, the bound, and whether only
// cluster specs may override it. ParseSpec, PrintSpec, ApplySpecOverride
// and SpecKeys all walk that one table.

enum class Section {
  kExperiment,
  kWorkload,
  kPlacement,
  kElasticity,
  kFault,
  kNode,
  kSchedules,  // names schedule literals; holds no table keys
};
constexpr int kKeySections = 6;
const char* const kSectionNames[] = {"experiment", "workload", "placement",
                                     "elasticity", "fault",    "node",
                                     "schedules"};

enum class Type {
  kDouble,
  kInt,
  kUint64,
  kUint32,
  kBool,
  kString,
  kSchedule,
  kAvailability,
  kDistribution,
  kEnum,
  kRegistry,
  kParams,  // the key is a prefix; the rest of the key names the param
  kFaults,  // each line appends one fault window
};
const char* const kTypeNames[] = {
    "double", "int",          "uint64",       "uint32", "bool",
    "string", "schedule",     "availability", "distribution",
    "enum",   "registry",     "params",       "faults"};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The range a numeric key's value must lie in: [lo, hi], or (lo, hi] when
/// `lo_open`. The default admits every value.
struct Bound {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;

  bool Admits(double value) const {
    return (lo_open ? value > lo : value >= lo) && value <= hi;
  }
  /// "> 0", ">= 1", "[0, 1]" or "(0, 1]"; empty when unbounded.
  std::string ToString() const {
    if (hi == kInf) {
      if (lo == -kInf) return "";
      return (lo_open ? "> " : ">= ") + util::FormatDouble(lo);
    }
    return (lo_open ? "(" : "[") + util::FormatDouble(lo) + ", " +
           util::FormatDouble(hi) + "]";
  }
};

constexpr Bound AtLeast(double lo) { return {lo, kInf, false}; }
constexpr Bound Above(double lo) { return {lo, kInf, true}; }
constexpr Bound Within(double lo, double hi) { return {lo, hi, false}; }
constexpr Bound AboveUpTo(double lo, double hi) { return {lo, hi, true}; }

/// The cluster-only phrases of ApplySpecOverride's rejection message.
const char* const kRetraction = "retraction requires";
const char* const kLifecycle = "node availability schedules require";
const char* const kSources = "workload sources require";
const char* const kElastic = "elasticity requires";
const char* const kRobustness = "robustness features require";
const char* const kPlacement = "data placement requires";

template <typename>
struct Member;
template <typename Owner, typename T>
struct Member<T Owner::*> {
  using OwnerType = Owner;
  using FieldType = T;
};

/// At<&A::b, &B::c> maps an A (as void*) to the address of its b.c.
template <auto First, auto... Rest>
void* At(void* owner) {
  using Owner = typename Member<decltype(First)>::OwnerType;
  void* field = &(static_cast<Owner*>(owner)->*First);
  if constexpr (sizeof...(Rest) == 0) {
    return field;
  } else {
    return At<Rest...>(field);
  }
}

/// Maps a section owner (ExperimentSpec or NodeSpec) to the struct a
/// sub-table's fields live in. Reads pass `engage` false and get nullptr
/// for an empty optional; a write engages it.
using Mount = void* (*)(void* owner, bool engage);

void* Self(void* owner, bool /*engage*/) { return owner; }

template <auto... Path>
void* Via(void* owner, bool /*engage*/) {
  return At<Path...>(owner);
}

void* PlacementDynamics(void* owner, bool engage) {
  std::optional<db::WorkloadDynamics>& dynamics =
      static_cast<ExperimentSpec*>(owner)->placement_dynamics;
  if (!dynamics.has_value()) {
    if (!engage) return nullptr;
    dynamics.emplace();
  }
  return &*dynamics;
}

/// The field types of the plain value types, in Type order.
using ValueTypes =
    std::tuple<double, int, uint64_t, uint32_t, bool, std::string,
               db::Schedule, cluster::AvailabilitySchedule,
               workload::Distribution>;

template <typename T, size_t I = 0>
constexpr Type TypeOf() {
  if constexpr (std::is_enum_v<T>) {
    return Type::kEnum;
  } else if constexpr (std::is_same_v<T, util::ParamMap>) {
    return Type::kParams;
  } else if constexpr (std::is_same_v<T, std::vector<fault::FaultSpec>>) {
    return Type::kFaults;
  } else if constexpr (std::is_same_v<T, std::tuple_element_t<I, ValueTypes>>) {
    return static_cast<Type>(I);
  } else {
    return TypeOf<T, I + 1>();
  }
}

using Names = std::vector<std::string>;

/// kEnum fields are C++ enums whose enumerators follow `names` in order.
template <typename E>
size_t EnumIndex(const void* field) {
  return static_cast<size_t>(*static_cast<const E*>(field));
}

template <typename E>
void SetEnum(void* field, size_t index) {
  *static_cast<E*>(field) = static_cast<E>(index);
}

struct KeyEntry {
  std::string key;  // within the section, mount prefix included
  Type type = Type::kString;
  void* (*field)(void* target) = nullptr;  // target: what `mount` returns
  Mount mount = &Self;
  Bound bound;
  /// Non-null when only cluster specs may override the key: the feature
  /// phrase of the rejection ("retraction requires").
  const char* cluster_only = nullptr;
  Names names;  // the accepted values of a kEnum or kString key, if listed
  size_t (*enum_index)(const void* field) = nullptr;
  void (*set_enum)(void* field, size_t index) = nullptr;
  /// kRegistry: the registry's noun and its membership check, which
  /// fails with the registered names listed. Names must therefore be
  /// registered before specs referencing them are parsed.
  std::string noun;
  std::function<bool(const std::string& name, std::string* error)> known;
};

/// An entry for the field reached through `Path` from its sub-table's
/// struct; the value type follows from the field's C++ type.
template <auto... Path>
KeyEntry Key(std::string key, Bound bound = {}) {
  using Last =
      std::tuple_element_t<sizeof...(Path) - 1, std::tuple<decltype(Path)...>>;
  using T = typename Member<Last>::FieldType;
  KeyEntry entry;
  entry.key = std::move(key);
  entry.type = TypeOf<T>();
  entry.field = &At<Path...>;
  entry.bound = bound;
  if constexpr (std::is_enum_v<T>) {
    entry.enum_index = &EnumIndex<T>;
    entry.set_enum = &SetEnum<T>;
  }
  return entry;
}

KeyEntry OneOf(KeyEntry entry, Names names) {
  entry.names = std::move(names);
  return entry;
}

template <typename T>
KeyEntry InRegistry(KeyEntry entry, const util::Registry<T>& registry) {
  entry.type = Type::kRegistry;
  entry.noun = registry.noun();
  entry.known = [&registry](const std::string& name, std::string* error) {
    return registry.Find(name, error) != nullptr;
  };
  return entry;
}

std::vector<KeyEntry> LogicalKeys() {
  using L = db::LogicalConfig;
  return {
      Key<&L::db_size>("db_size", AtLeast(1)),
      Key<&L::accesses_per_txn>("accesses_per_txn"),
      Key<&L::query_fraction>("query_fraction"),
      Key<&L::write_fraction>("write_fraction"),
      Key<&L::resample_on_restart>("resample_on_restart"),
      Key<&L::hotspot_access_prob>("hotspot_access_prob"),
      Key<&L::hotspot_size_fraction>("hotspot_size_fraction"),
  };
}

std::vector<KeyEntry> RemoteKeys() {
  using R = db::RemoteAccessConfig;
  return {
      Key<&R::cpu_penalty>("cpu_penalty"),
      Key<&R::latency>("latency"),
      Key<&R::serve_cpu>("serve_cpu"),
  };
}

std::vector<KeyEntry> DynamicsKeys() {
  using D = db::WorkloadDynamics;
  return {
      Key<&D::k>("k"),
      Key<&D::query_fraction>("query_fraction"),
      Key<&D::write_fraction>("write_fraction"),
  };
}

class KeyTable {
 public:
  static const KeyTable& Get() {
    static const KeyTable table;
    return table;
  }

  /// The section's entries in print order.
  const std::vector<KeyEntry>& entries(Section section) const {
    return entries_[static_cast<int>(section)];
  }

  /// The entry `key` addresses in `section`: an exact key, else a dotted
  /// key under a kParams prefix. Null when no entry matches.
  const KeyEntry* Find(Section section, const std::string& key) const {
    const int s = static_cast<int>(section);
    const auto it = exact_[s].find(key);
    if (it != exact_[s].end()) return it->second;
    if (key.find('.') == std::string::npos) return nullptr;
    for (const KeyEntry* entry : prefixes_[s]) {
      if (key.size() > entry->key.size() &&
          HasPrefix(key, entry->key.c_str())) {
        return entry;
      }
    }
    return nullptr;
  }

 private:
  KeyTable() {
    using S = ExperimentSpec;
    Add(Section::kExperiment, "", &Self,
        {
            Key<&S::name>("name"),
            Key<&S::cluster>("cluster"),
            Key<&S::seed>("seed"),
            Key<&S::duration>("duration"),
            Key<&S::warmup>("warmup"),
            Key<&S::active_terminals>("active_terminals"),
            Key<&S::arrival_rate>("arrival_rate"),
            InRegistry(Key<&S::routing>("routing"),
                       cluster::RoutingPolicyRegistry::Global()),
            Key<&S::routing_params>("routing."),
            Key<&S::trace_path>("trace"),
            Key<&S::decisions_path>("decisions"),
        });
    Add(Section::kExperiment, "", &Self,
        {
            Key<&S::retraction>("retraction"),
            Key<&S::retraction_queue_factor>("retraction_queue_factor",
                                             AtLeast(0)),
            Key<&S::retraction_interval>("retraction_interval", Above(0)),
        },
        kRetraction);
    using Retry = cluster::RetryConfig;
    Add(Section::kExperiment, "retry.", &Via<&S::retry>,
        {
            Key<&Retry::enabled>("enabled"),
            Key<&Retry::budget>("budget", AtLeast(0)),
            Key<&Retry::backoff_base>("backoff_base", Above(0)),
            Key<&Retry::backoff_factor>("backoff_factor", AtLeast(1)),
            Key<&Retry::backoff_max>("backoff_max", Above(0)),
            Key<&Retry::jitter>("jitter", Within(0, 1)),
        },
        kRobustness);
    using Degrade = cluster::DegradeConfig;
    Add(Section::kExperiment, "degrade.", &Via<&S::degrade>,
        {
            Key<&Degrade::enabled>("enabled"),
            Key<&Degrade::interval>("interval", Above(0)),
            Key<&Degrade::shed_query>("shed_query", Above(0)),
            Key<&Degrade::shed_update>("shed_update", Above(0)),
            Key<&Degrade::restore_hysteresis>("restore_hysteresis",
                                              AboveUpTo(0, 1)),
        },
        kRobustness);

    // Dotted [workload] keys pass through to the source factory's
    // ParamMap, so externally registered sources can define their own
    // namespace (mirrors routing.* and control.*).
    using W = workload::WorkloadSpec;
    Add(Section::kWorkload, "", &Via<&S::workload>,
        {
            InRegistry(Key<&W::source>("source"),
                       workload::WorkloadRegistry::Global()),
            Key<&W::population>("population", AtLeast(1)),
            Key<&W::session_rate>("session_rate"),
            Key<&W::sessions>("sessions", AtLeast(1)),
            Key<&W::txns_per_session>("txns_per_session"),
            Key<&W::think_time>("think_time"),
            Key<&W::affinity>("affinity", Within(0, 1)),
            Key<&W::affinity_keys>("affinity_keys", AtLeast(1)),
            Key<&W::params>(""),
        },
        kSources);

    using P = placement::PlacementConfig;
    Add(Section::kPlacement, "", &Self,
        {Key<&S::placement_enabled>("enabled")}, kPlacement);
    Add(Section::kPlacement, "", &Via<&S::placement>,
        {
            OneOf(Key<&P::kind>("kind"), {"hash", "range", "replicated"}),
            Key<&P::num_partitions>("num_partitions", AtLeast(1)),
            Key<&P::replication_factor>("replication_factor", AtLeast(1)),
            Key<&P::rebalance_interval>("rebalance_interval", AtLeast(0)),
            Key<&P::rebalance_moves>("rebalance_moves"),
        },
        kPlacement);
    Add(Section::kPlacement, "workload.", &Via<&S::placement_workload>,
        LogicalKeys(), kPlacement);
    Add(Section::kPlacement, "dynamics.", &PlacementDynamics, DynamicsKeys(),
        kPlacement);
    Add(Section::kPlacement, "remote.", &Via<&S::remote_access>, RemoteKeys(),
        kPlacement);

    using E = elasticity::ElasticityConfig;
    using HB = elasticity::HeartbeatConfig;
    Add(Section::kElasticity, "", &Via<&S::elasticity>,
        {Key<&E::enabled>("enabled"), Key<&E::detector>("detector")},
        kElastic);
    Add(Section::kElasticity, "hb.", &Via<&S::elasticity, &E::heartbeat>,
        {
            Key<&HB::interval>("interval", Above(0)),
            Key<&HB::timeout>("timeout", Above(0)),
            Key<&HB::suspect_after>("suspect_after", AtLeast(1)),
            Key<&HB::down_after>("down_after", AtLeast(1)),
            Key<&HB::clear_after>("clear_after", AtLeast(1)),
            Key<&HB::delay_base>("delay_base", AtLeast(0)),
            Key<&HB::delay_load>("delay_load", AtLeast(0)),
            OneOf(Key<&HB::kind>("kind"), {"consecutive", "phi"}),
            Key<&HB::phi_suspect>("phi_suspect", Above(0)),
            Key<&HB::phi_down>("phi_down", Above(0)),
            Key<&HB::phi_window>("phi_window", AtLeast(1)),
            Key<&HB::observers>("observers", AtLeast(1)),
            Key<&HB::quorum>("quorum", AtLeast(1)),
            Key<&HB::observer_jitter>("observer_jitter", AtLeast(0)),
            OneOf(Key<&HB::delay_source>("delay_source"),
                  {"occupancy", "response"}),
            Key<&HB::delay_response>("delay_response", AtLeast(0)),
        },
        kElastic);
    // Autoscaler parameters flow through as strings (scaler.pi.kp ->
    // scaler_params["pi.kp"]); the consuming factory validates them.
    Add(Section::kElasticity, "", &Via<&S::elasticity>,
        {
            InRegistry(Key<&E::scaler>("scaler"),
                       elasticity::AutoscalerRegistry::Global()),
            Key<&E::scaler_interval>("scaler_interval", Above(0)),
            Key<&E::standby>("standby", AtLeast(0)),
            Key<&E::min_live>("min_live", AtLeast(1)),
            Key<&E::slow_start_initial>("slow_start_initial", Above(0)),
            Key<&E::slow_start_duration>("slow_start_duration", Above(0)),
            Key<&E::drain_delay>("drain_delay", AtLeast(0)),
            Key<&E::scaler_params>("scaler."),
        },
        kElastic);

    using F = fault::FaultConfig;
    Add(Section::kFault, "", &Via<&S::fault>,
        {Key<&F::enabled>("enabled"), Key<&F::faults>("inject")},
        kRobustness);

    using N = NodeSpec;
    using Sys = db::SystemConfig;
    Add(Section::kNode, "", &Via<&N::system>,
        {
            Key<&Sys::seed>("seed"),
            OneOf(Key<&Sys::cc>("cc"), {"occ", "2pl"}),
            OneOf(Key<&Sys::arrivals>("arrivals"),
                  {"closed", "open", "external"}),
            Key<&Sys::open_arrival_rate>("open_arrival_rate"),
            Key<&Sys::record_history>("record_history"),
            Key<&Sys::telemetry, &db::TelemetryConfig::per_phase>(
                "telemetry.per_phase"),
        });
    using Phys = db::PhysicalConfig;
    Add(Section::kNode, "physical.", &Via<&N::system, &Sys::physical>,
        {
            Key<&Phys::num_terminals>("num_terminals", AtLeast(1)),
            Key<&Phys::think_time_mean>("think_time_mean"),
            Key<&Phys::num_cpus>("num_cpus", AtLeast(1)),
            Key<&Phys::cpu_init_mean>("cpu_init_mean"),
            Key<&Phys::cpu_access_mean>("cpu_access_mean"),
            Key<&Phys::cpu_commit_mean>("cpu_commit_mean"),
            Key<&Phys::cpu_write_commit_mean>("cpu_write_commit_mean"),
            Key<&Phys::io_time>("io_time", AtLeast(0)),
            Key<&Phys::restart_delay_mean>("restart_delay_mean"),
            OneOf(Key<&Phys::cpu_distribution>("cpu_distribution"),
                  {"exponential", "deterministic", "erlang2"}),
        });
    Add(Section::kNode, "logical.", &Via<&N::system, &Sys::logical>,
        LogicalKeys());
    Add(Section::kNode, "remote.", &Via<&N::system, &Sys::remote>,
        RemoteKeys());
    Add(Section::kNode, "dynamics.", &Via<&N::dynamics>, DynamicsKeys());
    Add(Section::kNode, "", &Self, {Key<&N::cpu_speed>("cpu_speed")});
    Add(Section::kNode, "", &Self,
        {
            Key<&N::availability>("availability"),
            OneOf(Key<&N::rejoin>("rejoin"), {"fresh", "retained"}),
        },
        kLifecycle);
    // Any other control.* key is a controller parameter (control.pa.dither
    // -> params["pa.dither"]), so externally registered controllers can
    // define their own.
    Add(Section::kNode, "control.", &Via<&N::control>,
        {
            InRegistry(Key<&ControlSpec::controller>("controller"),
                       control::ControllerRegistry::Global()),
            Key<&ControlSpec::measurement_interval>("measurement_interval",
                                                    Above(0)),
            Key<&ControlSpec::initial_limit>("initial_limit", Above(0)),
            Key<&ControlSpec::displacement>("displacement"),
            Key<&ControlSpec::outer_tuner>("outer_tuner"),
            Key<&ControlSpec::params>(""),
        });

    for (int s = 0; s < kKeySections; ++s) {
      for (const KeyEntry& entry : entries_[s]) {
        if (entry.type == Type::kParams) {
          prefixes_[s].push_back(&entry);
        } else {
          ALC_CHECK(exact_[s].emplace(entry.key, &entry).second);
        }
      }
    }
  }

  void Add(Section section, const std::string& prefix, Mount mount,
           std::vector<KeyEntry> keys, const char* cluster_only = nullptr) {
    for (KeyEntry& entry : keys) {
      entry.key = prefix + entry.key;
      entry.mount = mount;
      if (cluster_only != nullptr) entry.cluster_only = cluster_only;
      entries_[static_cast<int>(section)].push_back(std::move(entry));
    }
  }

  std::vector<KeyEntry> entries_[kKeySections];
  std::unordered_map<std::string, const KeyEntry*> exact_[kKeySections];
  std::vector<const KeyEntry*> prefixes_[kKeySections];
};

std::string JoinNames(const Names& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += "/";
    joined += name;
  }
  return joined;
}

/// Parses `value` into `entry`'s field under `owner` (the ExperimentSpec,
/// or the NodeSpec for node keys). `key` is the section-relative key the
/// caller used. On failure sets `error` and leaves `owner` untouched.
bool Assign(const KeyEntry& entry, const std::string& key, void* owner,
            const std::string& value, const NamedSchedules& named,
            std::string* error) {
  const auto field = [&] { return entry.field(entry.mount(owner, true)); };
  const auto fail = [&](const std::string& message) {
    *error = "key '" + key + "': " + message;
    return false;
  };
  const bool reference = !value.empty() && value[0] == '$';
  const auto unresolved = [&](const char* kind) {
    return std::string("unknown ") + kind + " reference '" + value +
           "' (define it in [schedules] first)";
  };
  const auto store = [&](auto parsed) {
    using T = decltype(parsed);
    if constexpr (std::is_arithmetic_v<T>) {
      if (!entry.bound.Admits(static_cast<double>(parsed))) {
        return fail((entry.bound.hi == kInf ? "must be " : "must be in ") +
                    entry.bound.ToString());
      }
    }
    *static_cast<T*>(field()) = std::move(parsed);
    return true;
  };
  const size_t index = static_cast<size_t>(
      std::find(entry.names.begin(), entry.names.end(), value) -
      entry.names.begin());
  if (!entry.names.empty() && index == entry.names.size()) {
    return fail("expected " + JoinNames(entry.names) + ", got '" + value +
                "'");
  }
  switch (entry.type) {
    case Type::kDouble: {
      double parsed = 0.0;
      if (!util::ParseDouble(value, &parsed)) {
        return fail("malformed number '" + value + "'");
      }
      return store(parsed);
    }
    case Type::kInt: {
      long long parsed = 0;
      if (!util::ParseInt(value, &parsed) || parsed < INT_MIN ||
          parsed > INT_MAX) {
        return fail("malformed or out-of-range integer '" + value + "'");
      }
      return store(static_cast<int>(parsed));
    }
    case Type::kUint64:
    case Type::kUint32: {
      uint64_t parsed = 0;
      if (!util::ParseUint64(value, &parsed) ||
          (entry.type == Type::kUint32 && parsed > UINT32_MAX)) {
        return fail("malformed or out-of-range unsigned integer '" + value +
                    "'");
      }
      if (entry.type == Type::kUint32) {
        return store(static_cast<uint32_t>(parsed));
      }
      return store(parsed);
    }
    case Type::kBool: {
      bool parsed = false;
      if (!util::ParseBool(value, &parsed)) {
        return fail("expected true/false, got '" + value + "'");
      }
      return store(parsed);
    }
    case Type::kString:
      return store(value);
    case Type::kEnum:
      entry.set_enum(field(), index);
      return true;
    // A schedule or availability value is a literal or a `$name` reference
    // to a [schedules] entry of the same kind.
    case Type::kSchedule: {
      db::Schedule parsed;
      if (reference) {
        if (!Lookup(named.schedules, value, &parsed)) {
          return fail(unresolved("schedule"));
        }
      } else if (!db::Schedule::Parse(value, &parsed)) {
        return fail("malformed schedule literal '" + value + "'");
      }
      return store(std::move(parsed));
    }
    case Type::kAvailability: {
      cluster::AvailabilitySchedule parsed;
      std::string message;
      if (reference) {
        if (!Lookup(named.availabilities, value, &parsed)) {
          return fail(unresolved("availability"));
        }
      } else if (!cluster::AvailabilitySchedule::Parse(value, &parsed,
                                                       &message)) {
        return fail(message);
      }
      return store(std::move(parsed));
    }
    case Type::kDistribution: {
      workload::Distribution parsed;
      if (!workload::Distribution::Parse(value, &parsed)) {
        return fail("malformed distribution literal '" + value +
                    "' (expected constant(v), exp(mean), lognormal(mu, "
                    "sigma), or pareto(alpha, lo, hi))");
      }
      return store(parsed);
    }
    case Type::kRegistry:
      if (!entry.known(value, error)) return false;
      return store(value);
    case Type::kParams:
      static_cast<util::ParamMap*>(field())->Set(key.substr(entry.key.size()),
                                                 value);
      return true;
    case Type::kFaults: {
      fault::FaultSpec parsed;
      std::string message;
      if (!fault::ParseFaultSpec(value, &parsed, &message)) return fail(message);
      if (fault::FaultRegistry::Global().Find(parsed.kind, error) == nullptr) {
        return false;
      }
      static_cast<std::vector<fault::FaultSpec>*>(field())->push_back(
          std::move(parsed));
      return true;
    }
  }
  return false;
}

/// The entry `key` names in `section`; null with `error` set if none.
const KeyEntry* FindKey(Section section, const std::string& key,
                        std::string* error) {
  const KeyEntry* entry = KeyTable::Get().Find(section, key);
  if (entry == nullptr) {
    *error = std::string("unknown ") + kSectionNames[static_cast<int>(section)] +
             " key '" + key + "'";
  }
  return entry;
}

void Emit(std::string* out, const std::string& key, const std::string& value) {
  *out += key;
  *out += " = ";
  *out += value;
  *out += "\n";
}

/// Prints the section's keys of `owner` in table order.
void PrintSection(Section section, const void* owner, std::string* out) {
  // Printing only reads: mounts are asked not to engage, and no field is
  // written through the pointers below.
  void* base = const_cast<void*>(owner);
  for (const KeyEntry& entry : KeyTable::Get().entries(section)) {
    void* target = entry.mount(base, false);
    if (target == nullptr) continue;  // an empty optional prints nothing
    const void* field = entry.field(target);
    std::string value;
    switch (entry.type) {
      case Type::kDouble:
        value = util::FormatDouble(*static_cast<const double*>(field));
        break;
      case Type::kInt:
        value = std::to_string(*static_cast<const int*>(field));
        break;
      case Type::kUint64:
        value = std::to_string(*static_cast<const uint64_t*>(field));
        break;
      case Type::kUint32:
        value = std::to_string(*static_cast<const uint32_t*>(field));
        break;
      case Type::kBool:
        value = *static_cast<const bool*>(field) ? "true" : "false";
        break;
      case Type::kString:
      case Type::kRegistry:
        value = *static_cast<const std::string*>(field);
        break;
      case Type::kSchedule:
        value = static_cast<const db::Schedule*>(field)->ToString();
        break;
      case Type::kAvailability:
        value =
            static_cast<const cluster::AvailabilitySchedule*>(field)->ToString();
        break;
      case Type::kDistribution:
        value = static_cast<const workload::Distribution*>(field)->ToString();
        break;
      case Type::kEnum:
        value = entry.names[entry.enum_index(field)];
        break;
      case Type::kParams:
        for (const auto& [key, param] :
             static_cast<const util::ParamMap*>(field)->entries()) {
          Emit(out, entry.key + key, param);
        }
        continue;
      case Type::kFaults:
        for (const fault::FaultSpec& injected :
             *static_cast<const std::vector<fault::FaultSpec>*>(field)) {
          Emit(out, entry.key, injected.ToString());
        }
        continue;
    }
    Emit(out, entry.key, value);
  }
}

/// Parse-time-only per-node state: `count` cloning and whether the node
/// declared its own seed (both drive the expansion pass).
struct NodeParseState {
  bool seed_set = false;
  int count = 1;
};

/// Node seeds derived from one base seed: a single node runs it directly,
/// a fleet decorrelates it per index.
void ReseedNodes(uint64_t base, std::vector<NodeSpec>* nodes) {
  for (size_t i = 0; i < nodes->size(); ++i) {
    (*nodes)[i].system.seed =
        nodes->size() == 1 ? base
                           : DecorrelatedNodeSeed(base, static_cast<int>(i));
  }
}

}  // namespace

std::string PrintSpec(const ExperimentSpec& spec) {
  std::string out;
  out += "# Canonical ExperimentSpec (core/spec.h); run with: alc_run <file>\n";
  for (int s = 0; s < static_cast<int>(Section::kNode); ++s) {
    if (s > 0) out += "\n";
    out += std::string("[") + kSectionNames[s] + "]\n";
    PrintSection(static_cast<Section>(s), &spec, &out);
  }
  for (const NodeSpec& node : spec.nodes) {
    out += "\n[node]\n";
    PrintSection(Section::kNode, &node, &out);
  }
  return out;
}

bool ParseSpec(const std::string& text, ExperimentSpec* out,
               std::string* error) {
  ExperimentSpec spec;
  NamedSchedules named;
  std::vector<NodeParseState> node_states;
  Section section = Section::kExperiment;

  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_number) + ": " + message;
    }
    return false;
  };

  while (std::getline(stream, line)) {
    ++line_number;
    // A '#' opens a comment only at line start or after whitespace, so
    // values containing '#' (a name, a registered policy) survive the
    // print/parse round trip.
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '#' &&
          (i == 0 ||
           std::isspace(static_cast<unsigned char>(line[i - 1])))) {
        line.resize(i);
        break;
      }
    }
    line = TrimWhitespace(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') return fail("malformed section header");
      const std::string name = TrimWhitespace(line.substr(1, line.size() - 2));
      const auto known = std::find(std::begin(kSectionNames),
                                   std::end(kSectionNames), name);
      if (known == std::end(kSectionNames)) {
        return fail("unknown section [" + name + "]");
      }
      section = static_cast<Section>(known - std::begin(kSectionNames));
      if (section == Section::kNode) {
        spec.nodes.emplace_back();
        node_states.emplace_back();
      }
      continue;
    }

    const size_t equals = line.find('=');
    if (equals == std::string::npos) return fail("expected 'key = value'");
    const std::string key = TrimWhitespace(line.substr(0, equals));
    const std::string value = TrimWhitespace(line.substr(equals + 1));
    if (key.empty()) return fail("empty key");

    std::string message;
    bool ok = true;
    if (section == Section::kSchedules) {
      // avail(...) literals live in the availability namespace; every
      // other literal is a numeric schedule. One name can only mean one
      // thing, so the maps never hold the same key.
      if (HasPrefix(value, "avail(")) {
        cluster::AvailabilitySchedule availability;
        ok = cluster::AvailabilitySchedule::Parse(value, &availability,
                                                  &message);
        if (ok) named.availabilities[key] = availability;
      } else {
        db::Schedule schedule;
        ok = db::Schedule::Parse(value, &schedule);
        if (!ok) {
          message = "malformed schedule literal '" + value + "'";
        } else {
          named.schedules[key] = schedule;
        }
      }
    } else if (section == Section::kNode && key == "count") {
      long long count = 0;
      ok = util::ParseInt(value, &count) && count >= 1 && count <= INT_MAX;
      if (ok) {
        node_states.back().count = static_cast<int>(count);
      } else {
        message = "key 'count': must be an integer >= 1, got '" + value + "'";
      }
    } else {
      const bool node = section == Section::kNode;
      const KeyEntry* entry = FindKey(section, key, &message);
      void* owner = node ? static_cast<void*>(&spec.nodes.back()) : &spec;
      ok = entry != nullptr &&
           Assign(*entry, key, owner, value, named, &message);
      if (ok && node && key == "seed") node_states.back().seed_set = true;
    }
    if (!ok) return fail(message);
  }

  // Expansion pass: clone counted nodes; resolve seed inheritance. A node
  // cloned from a declared seed decorrelates over its clone index; every
  // other undeclared seed decorrelates over the node's final fleet index —
  // two bare [node] sections must not share a random stream. The
  // single-node case inherits the experiment seed directly (and matches
  // what an ApplySpecOverride of "seed" produces).
  std::vector<NodeSpec> expanded;
  std::vector<bool> inherited;
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    const NodeSpec& node = spec.nodes[i];
    const NodeParseState& state = node_states[i];
    if (state.count == 1) {
      expanded.push_back(node);
      inherited.push_back(!state.seed_set);
    } else {
      for (int clone = 0; clone < state.count; ++clone) {
        expanded.push_back(node);
        if (state.seed_set) {
          expanded.back().system.seed =
              DecorrelatedNodeSeed(node.system.seed, clone);
        }
        inherited.push_back(!state.seed_set);
      }
    }
  }
  for (size_t i = 0; i < expanded.size(); ++i) {
    if (!inherited[i]) continue;
    expanded[i].system.seed =
        expanded.size() == 1
            ? spec.seed
            : DecorrelatedNodeSeed(spec.seed, static_cast<int>(i));
  }
  spec.nodes = std::move(expanded);

  if (!ValidateSpec(spec, error)) return false;
  *out = std::move(spec);
  return true;
}

ExperimentSpec ParseSpecOrDie(const std::string& text) {
  ExperimentSpec spec;
  std::string error;
  if (!ParseSpec(text, &spec, &error)) {
    std::fprintf(stderr, "ParseSpecOrDie: %s\n", error.c_str());
    ALC_CHECK(false);
  }
  return spec;
}

bool ValidateSpec(const ExperimentSpec& spec, std::string* error) {
  // The checks a per-key bound cannot make: they relate fields to each
  // other or to the final fleet size.
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const int fleet = static_cast<int>(spec.nodes.size());
  const std::string single = " requires cluster mode (cluster = true)";
  if (fleet == 0) return fail("spec declares no [node] section");
  if (!(spec.duration > 0.0)) return fail("duration must be > 0");
  if (!(spec.warmup >= 0.0 && spec.warmup < spec.duration)) {
    return fail("warmup must satisfy 0 <= warmup < duration");
  }
  if (!spec.cluster) {
    if (fleet != 1) {
      return fail(
          "single-node mode (cluster = false) requires exactly one node, "
          "got " +
          std::to_string(fleet));
    }
    // Lifecycle is a routed-fleet feature: the single-node closed/open
    // model has no front-end to crash away from.
    if (!spec.nodes[0].availability.always_up()) {
      return fail(
          "node availability schedules require cluster mode (cluster = "
          "true)");
    }
    if (spec.retraction || spec.retraction_queue_factor > 0.0) {
      return fail("retraction" + single);
    }
    // The single-node model drives itself (terminals / its own open
    // stream); workload sources feed the routed front-end only.
    if (spec.workload.source != "open") {
      return fail("workload source '" + spec.workload.source + "'" + single);
    }
    // Elasticity is fleet machinery: heartbeats probe routed members and
    // the autoscaler moves nodes in and out of the membership.
    if (spec.elasticity.enabled) return fail("elasticity" + single);
    if (spec.retry.enabled) return fail("retry" + single);
    if (spec.degrade.enabled) return fail("degrade" + single);
    if (spec.fault.enabled) return fail("fault injection" + single);
  }
  if (spec.retry.enabled && spec.retry.backoff_max < spec.retry.backoff_base) {
    return fail("retry.backoff_max must be >= retry.backoff_base");
  }
  if (spec.degrade.enabled &&
      spec.degrade.shed_update < spec.degrade.shed_query) {
    return fail("degrade.shed_update must be >= degrade.shed_query");
  }
  for (int i = 0; i < fleet; ++i) {
    std::string message;
    if (!control::CheckControllerParams(spec.nodes[i].control.params,
                                        &message)) {
      return fail("node " + std::to_string(i) + " control." + message);
    }
  }
  if (spec.placement_enabled) {
    // Matching aborts exist in the PlacementCatalog constructor.
    const placement::PlacementConfig& placement = spec.placement;
    if (static_cast<uint32_t>(placement.num_partitions) >
        spec.placement_workload.db_size) {
      return fail(
          "placement.num_partitions must be <= placement.workload.db_size");
    }
    if (placement.rebalance_interval > 0.0 && placement.rebalance_moves < 1) {
      return fail(
          "placement.rebalance_moves must be >= 1 when "
          "placement.rebalance_interval > 0");
    }
  }
  for (const fault::FaultSpec& injected : spec.fault.faults) {
    if (injected.start < 0.0 || injected.end <= injected.start) {
      return fail("fault '" + injected.ToString() +
                  "': window must satisfy 0 <= start < end");
    }
    for (int node : injected.nodes) {
      if (node < 0 || node >= fleet) {
        return fail("fault '" + injected.ToString() + "': node " +
                    std::to_string(node) + " out of range (fleet has " +
                    std::to_string(fleet) + " nodes)");
      }
    }
  }
  if (spec.elasticity.enabled) {
    // Matching aborts exist at run time (HeartbeatDetector /
    // ElasticityController CHECKs); failing here names the problem.
    const elasticity::HeartbeatConfig& heartbeat = spec.elasticity.heartbeat;
    if (heartbeat.down_after < heartbeat.suspect_after) {
      return fail("elasticity hb.down_after must be >= hb.suspect_after");
    }
    if (heartbeat.phi_down < heartbeat.phi_suspect) {
      return fail("elasticity hb.phi_down must be >= hb.phi_suspect");
    }
    if (heartbeat.quorum > heartbeat.observers) {
      return fail("elasticity hb.quorum must be <= hb.observers");
    }
    if (spec.elasticity.standby >= fleet) {
      return fail("elasticity standby pool (" +
                  std::to_string(spec.elasticity.standby) +
                  ") must leave at least one live node (" +
                  std::to_string(fleet) + " nodes)");
    }
  }
  return true;
}

bool LoadSpecFile(const std::string& path, ExperimentSpec* out,
                  std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot open spec file '" + path + "'";
    return false;
  }
  std::ostringstream text;
  text << file.rdbuf();
  if (!ParseSpec(text.str(), out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool ApplySpecOverride(ExperimentSpec* spec, const std::string& key,
                       const std::string& value, std::string* error) {
  std::string message;
  if (error == nullptr) error = &message;
  static const NamedSchedules kNoSchedules;

  // "<section>.<key>" for the named sections, "node.<key>" (every node) or
  // "node<i>.<key>" (node i) for node keys, bare experiment keys otherwise.
  Section section = Section::kExperiment;
  std::string subkey = key;
  for (int s = 1; s < static_cast<int>(Section::kNode); ++s) {
    const std::string prefix = std::string(kSectionNames[s]) + ".";
    if (HasPrefix(key, prefix.c_str())) {
      section = static_cast<Section>(s);
      subkey = key.substr(prefix.size());
      break;
    }
  }
  long long node_index = -1;  // -1: every node
  const size_t dot = key.find('.');
  if (section == Section::kExperiment && HasPrefix(key, "node") &&
      dot != std::string::npos) {
    const std::string selector = key.substr(4, dot - 4);
    if (selector.empty() || util::ParseInt(selector, &node_index)) {
      const long long fleet = static_cast<long long>(spec->nodes.size());
      if (selector.empty() && fleet == 0) {
        *error = "override '" + key + "': no nodes";
        return false;
      }
      if (!selector.empty() && (node_index < 0 || node_index >= fleet)) {
        *error = "override '" + key + "': node index out of range (" +
                 std::to_string(fleet) + " nodes)";
        return false;
      }
      section = Section::kNode;
      subkey = key.substr(dot + 1);
    }
    // Otherwise not a node selector: an experiment key that starts with
    // "node".
  }

  const KeyEntry* entry = FindKey(section, subkey, error);
  if (entry == nullptr) return false;
  // A cluster-only override on a single-node spec would be silently unused
  // (Experiment never reads those fields), so reject it instead of
  // sweeping bit-identical points. A bad value is still reported as such:
  // it is tried on a scratch owner first.
  if (entry->cluster_only != nullptr && !spec->cluster) {
    ExperimentSpec scratch;
    NodeSpec scratch_node;
    void* owner = section == Section::kNode ? static_cast<void*>(&scratch_node)
                                            : &scratch;
    if (!Assign(*entry, subkey, owner, value, kNoSchedules, error)) {
      return false;
    }
    *error = "override '" + key + "': " + entry->cluster_only +
             " cluster mode (cluster = true)";
    return false;
  }

  if (section != Section::kNode) {
    if (!Assign(*entry, subkey, spec, value, kNoSchedules, error)) {
      return false;
    }
    // Parse-time seed inheritance has already stamped every node, so an
    // experiment-seed override must re-derive the node seeds too —
    // otherwise a replication sweep ("--sweep seed=1,2,3") would rerun
    // identical simulations. Re-pin a node afterwards with node<i>.seed.
    if (section == Section::kExperiment && subkey == "seed") {
      ReseedNodes(spec->seed, &spec->nodes);
    }
    return true;
  }
  if (node_index >= 0) {
    return Assign(*entry, subkey, &spec->nodes[static_cast<size_t>(node_index)],
                  value, kNoSchedules, error);
  }
  for (NodeSpec& node : spec->nodes) {
    if (!Assign(*entry, subkey, &node, value, kNoSchedules, error)) {
      return false;
    }
  }
  // Broadcasting one literal seed to the whole fleet would run every node
  // on the same random stream; decorrelate per index like the experiment
  // "seed" override. Pin one node with node<i>.seed for an exact value.
  if (subkey == "seed") ReseedNodes(spec->nodes[0].system.seed, &spec->nodes);
  return true;
}

std::vector<SpecKeyInfo> SpecKeys() {
  std::vector<SpecKeyInfo> keys;
  for (int s = 0; s < kKeySections; ++s) {
    for (const KeyEntry& entry :
         KeyTable::Get().entries(static_cast<Section>(s))) {
      SpecKeyInfo info;
      info.section = kSectionNames[s];
      info.key = entry.key;
      info.type = kTypeNames[static_cast<int>(entry.type)];
      info.cluster_only = entry.cluster_only != nullptr;
      if (!entry.names.empty()) {
        info.type = "enum";
        info.bound = JoinNames(entry.names);
      }
      switch (entry.type) {
        case Type::kRegistry:
          info.bound = "registered " + entry.noun;
          break;
        case Type::kParams:
          info.key += entry.key.empty() ? "*.*" : "*";
          break;
        default:
          if (info.bound.empty()) info.bound = entry.bound.ToString();
          break;
      }
      keys.push_back(std::move(info));
    }
  }
  return keys;
}

SpecRunResult RunSpec(const ExperimentSpec& spec) {
  std::string error;
  if (!ValidateSpec(spec, &error)) {
    std::fprintf(stderr, "RunSpec: %s\n", error.c_str());
    ALC_CHECK(false);
  }
  SpecRunResult result;
  result.cluster = spec.cluster;
  // The recorder outlives the run only long enough to flush; it observes
  // the simulation (no RNG draws, no scheduled events), so attaching it
  // cannot change any result.
  std::unique_ptr<telemetry::TraceRecorder> trace;
  if (!spec.trace_path.empty()) {
    trace = std::make_unique<telemetry::TraceRecorder>();
  }
  // The decision audit observes exactly like the recorder: controller
  // state is read const-ly after each step and appended as PODs.
  std::unique_ptr<telemetry::DecisionAudit> audit;
  if (!spec.decisions_path.empty()) {
    audit = std::make_unique<telemetry::DecisionAudit>();
  }
  if (spec.cluster) {
    ClusterExperiment experiment(spec);
    if (trace) experiment.SetTraceRecorder(trace.get());
    if (audit) experiment.SetDecisionAudit(audit.get());
    result.cluster_result = experiment.Run();
  } else {
    Experiment experiment(spec);
    if (trace) experiment.SetTraceRecorder(trace.get());
    if (audit) experiment.SetDecisionAudit(audit.get());
    result.single = experiment.Run();
  }
  if (trace) {
    ALC_CHECK(trace->WriteFile(spec.trace_path));
  }
  if (audit) {
    result.decisions = audit->InOrder();
    result.decisions_dropped = audit->dropped();
    ALC_CHECK(telemetry::ExportDecisions(spec.decisions_path,
                                         result.decisions));
  }
  return result;
}

}  // namespace alc::core
