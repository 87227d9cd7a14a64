#ifndef ALC_UTIL_REGISTRY_H_
#define ALC_UTIL_REGISTRY_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/logging.h"

namespace alc::util {

/// A sorted name -> T map for a plug-in family a spec selects by name:
/// controllers, routing policies, workload sources and autoscalers (T is
/// a factory std::function), and fault kinds (T is the kind itself). Each
/// family defines Global() beside its built-ins; user code (an example, a
/// bench, a test) registers more entries and then selects them from spec
/// files, with no core edits. Names must be registered before specs that
/// use them are parsed, and registration must finish before concurrent
/// lookups begin (the sweep runner builds from worker threads; the
/// registry takes no locks).
template <typename T>
class Registry {
 public:
  /// `noun` names one entry in messages ("routing policy").
  explicit Registry(std::string noun) : noun_(std::move(noun)) {}

  /// The family's process-wide registry, built-ins registered. Defined
  /// once per family, as an explicit specialization.
  static Registry& Global();

  const std::string& noun() const { return noun_; }

  /// False (and no change) when `name` is already taken.
  bool Register(const std::string& name, T entry) {
    ALC_CHECK(entry != nullptr);
    return entries_.emplace(name, std::move(entry)).second;
  }

  bool Contains(const std::string& name) const {
    return entries_.count(name) > 0;
  }

  /// Registered names, sorted.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
    return names;
  }

  /// The entry under `name`. Null on an unknown name; `error` (optional)
  /// then receives "unknown <noun> '<name>'; registered: <names>".
  const T* Find(const std::string& name, std::string* error = nullptr) const {
    const auto it = entries_.find(name);
    if (it != entries_.end()) return &it->second;
    if (error != nullptr) {
      *error = "unknown " + noun_ + " '" + name + "'; registered:";
      for (const auto& [known, entry] : entries_) *error += " " + known;
    }
    return nullptr;
  }

  /// The entry under `name`, for builders running a validated spec: an
  /// unknown name logs Find's message and fails a CHECK.
  const T& Get(const std::string& name) const {
    std::string error;
    const T* entry = Find(name, &error);
    if (entry == nullptr) {
      ALC_LOG(kError, error);
      ALC_CHECK(entry != nullptr);
    }
    return *entry;
  }

  /// Factory families: calls the factory under `name` with `context`.
  /// Null on an unknown name, with `error` set as by Find. The perfbench
  /// timing decorators build the policy they wrap through it.
  template <typename Context>
  auto Make(const std::string& name, const Context& context,
            std::string* error = nullptr) const
      -> decltype(std::declval<const T&>()(context)) {
    const T* factory = Find(name, error);
    if (factory == nullptr) return nullptr;
    return (*factory)(context);
  }

 private:
  std::string noun_;
  std::map<std::string, T> entries_;
};

}  // namespace alc::util

#endif  // ALC_UTIL_REGISTRY_H_
