#include "cluster/router.h"

#include <algorithm>
#include <climits>

#include "cluster/registry.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/params.h"

namespace alc::cluster {

namespace {

/// Touch counts per partition for the arrival, using the caller's
/// precomputed partition ids when the context carries them.
void CountContextTouches(const RouteContext& context,
                         std::vector<std::pair<int, int>>* touches) {
  if (context.partitions != nullptr) {
    context.catalog->CountPartitionTouches(*context.partitions, touches);
  } else {
    context.catalog->CountTouches(*context.keys, touches);
  }
}

/// The arrival's plurality partition, from precomputed partition ids when
/// available.
int ContextPluralityPartition(const RouteContext& context) {
  if (context.partitions != nullptr) {
    return context.catalog->PluralityPartition(*context.partitions);
  }
  return context.catalog->MostTouchedPartition(*context.keys);
}

/// Whether `node` is a routable target: a live slot of the fleet. A catalog
/// can name nodes beyond the fleet (built for a larger cluster) or nodes
/// that are currently down/draining.
bool Routable(const MembershipView& cluster, int node) {
  return node >= 0 && node < cluster.fleet_size() && cluster.IsLive(node);
}

/// Gate headroom a retracted transaction would find at a node: n* minus
/// front-end occupancy.
double Headroom(const NodeView& view) {
  return view.limit - Occupancy(view);
}

/// The touched partition locality anchors on, its home node, and the home's
/// state as read for the decision.
struct HomePick {
  int partition = -1;
  int node = -1;  // -1 when no touched partition has a routable home
  NodeView view;
};

/// Picks the touched partition to anchor locality on: within the highest
/// touch-count tier that has any live home node, the partition whose home
/// is least occupied (ties to the lower partition id). Lower tiers are only
/// consulted when every partition of the higher tiers has an unroutable
/// home (outside the fleet, down, or draining). Reads at most one node
/// state per touched partition.
HomePick PickHomePartition(const MembershipView& cluster,
                           const RouteContext& context,
                           std::vector<std::pair<int, int>>* touches) {
  CountContextTouches(context, touches);
  HomePick best;
  int tier = 0;  // touch count of the tier best.node was found in
  for (const auto& [partition, count] : *touches) {
    if (best.node >= 0 && count < tier) break;  // settled in a higher tier
    const int home = context.catalog->HomeNode(partition);
    if (!Routable(cluster, home)) continue;
    const NodeView view = cluster.view(home);
    if (best.node < 0 || Occupancy(view) < Occupancy(best.view)) {
      best = {partition, home, view};
      tier = count;
    }
  }
  return best;
}

/// Collects `partition`'s replica holders that are routable (live slots of
/// the fleet).
void FilterReplicas(const MembershipView& cluster,
                    const placement::PlacementCatalog& catalog, int partition,
                    std::vector<int>* out) {
  out->clear();
  for (const int node : catalog.Replicas(partition)) {
    if (Routable(cluster, node)) out->push_back(node);
  }
}

void WarnDegenerateOnce(bool* warned_once, std::string_view policy) {
  if (*warned_once) return;
  *warned_once = true;
  ALC_LOG(kWarning, std::string(policy) +
                        ": eligible replica set is empty (catalog names no "
                        "live node in the fleet); falling back to the live "
                        "fleet");
}

}  // namespace

int LeastOccupied(const MembershipView& cluster) {
  ALC_CHECK_GT(cluster.num_live(), 0);
  const std::vector<int>& live = *cluster.live;
  int best = live[0];
  int best_occupancy = Occupancy(cluster.view(best));
  for (size_t i = 1; i < live.size(); ++i) {
    const int occupancy = Occupancy(cluster.view(live[i]));
    if (occupancy < best_occupancy) {
      best = live[i];
      best_occupancy = occupancy;
    }
  }
  return best;
}

int EligibleCandidates(const MembershipView& cluster,
                       const RouteContext& context, std::vector<int>* out,
                       bool* warned_once) {
  ALC_CHECK_GT(cluster.num_live(), 0);
  out->clear();
  int partition = -1;
  if (context.has_placement()) {
    partition = ContextPluralityPartition(context);
    if (partition >= 0) {
      FilterReplicas(cluster, *context.catalog, partition, out);
    }
    if (out->empty() && warned_once != nullptr) {
      WarnDegenerateOnce(warned_once, "router");
    }
  }
  if (out->empty()) *out = *cluster.live;
  return partition;
}

int RoundRobinPolicy::Route(const MembershipView& cluster,
                            const RouteContext& context) {
  (void)context;
  const std::vector<int>& live = *cluster.live;
  ALC_CHECK(!live.empty());
  const int target = live[next_ % live.size()];
  next_ = (next_ + 1) % live.size();
  return target;
}

int RandomPolicy::Route(const MembershipView& cluster,
                        const RouteContext& context) {
  (void)context;
  const std::vector<int>& live = *cluster.live;
  ALC_CHECK(!live.empty());
  return live[rng_.NextUint64(live.size())];
}

int JoinShortestQueuePolicy::Route(const MembershipView& cluster,
                                   const RouteContext& context) {
  const std::vector<int>& live = *cluster.live;
  ALC_CHECK(!live.empty());
  const size_t n = live.size();
  size_t best = rotate_ % n;
  if (context.is_retraction) {
    // Displacement-aware variant: retracted work goes where the gate has
    // the most admission headroom (n* - occupancy), so it restarts instead
    // of trading one queue for another. Equivalent to shortest-queue when
    // all limits are equal.
    double best_headroom = Headroom(cluster.view(live[best]));
    for (size_t j = 1; j < n; ++j) {
      const size_t i = (rotate_ + j) % n;
      const double headroom = Headroom(cluster.view(live[i]));
      if (headroom > best_headroom) {
        best = i;
        best_headroom = headroom;
      }
    }
  } else {
    int best_occupancy = Occupancy(cluster.view(live[best]));
    for (size_t j = 1; j < n; ++j) {
      const size_t i = (rotate_ + j) % n;
      const int occupancy = Occupancy(cluster.view(live[i]));
      if (occupancy < best_occupancy) {
        best = i;
        best_occupancy = occupancy;
      }
    }
  }
  rotate_ = (rotate_ + 1) % n;
  return live[best];
}

ThresholdPolicy::ThresholdPolicy(const Config& config)
    : config_(config), threshold_(config.initial_threshold) {
  ALC_CHECK_GE(config.min_threshold, 1.0);
  ALC_CHECK_GE(config.initial_threshold, config.min_threshold);
  ALC_CHECK_GE(config.max_threshold, config.initial_threshold);
}

int ThresholdPolicy::Route(const MembershipView& cluster,
                           const RouteContext& context) {
  (void)context;
  const std::vector<int>& live = *cluster.live;
  ALC_CHECK(!live.empty());
  const size_t n = live.size();

  // Rotating scan for the first live node under the threshold; remember the
  // least-occupied one as the fallback.
  int candidate = -1;
  size_t least = rotate_ % n;
  int least_occupancy = INT_MAX;  // the first node scanned is `least`
  bool all_far_below = true;
  for (size_t j = 0; j < n; ++j) {
    const size_t i = (rotate_ + j) % n;
    const int occ = Occupancy(cluster.view(live[i]));
    if (occ < least_occupancy) {
      least = i;
      least_occupancy = occ;
    }
    if (candidate < 0 && occ < threshold_) candidate = live[i];
    if (occ >= threshold_ - 1.0) all_far_below = false;
  }
  rotate_ = (rotate_ + 1) % n;

  if (candidate < 0) {
    // Every node is at or above ell: the threshold is too tight for the
    // offered load. Learn upward and fall back to the least-occupied node.
    threshold_ = std::min(threshold_ + 1.0, config_.max_threshold);
    return live[least];
  }
  if (all_far_below) {
    // Every node is strictly below ell - 1: the threshold has overshot
    // (e.g. after a crowd left, or a crashed node rejoined) and decays
    // toward the needed level.
    threshold_ = std::max(threshold_ - 1.0, config_.min_threshold);
  }
  return candidate;
}

PowerOfDPolicy::PowerOfDPolicy(const Config& config, uint64_t seed)
    : config_(config), rng_(seed) {
  ALC_CHECK_GE(config.d, 1);
}

int PowerOfDPolicy::RouteAmong(const MembershipView& cluster) {
  // Partial Fisher-Yates over the candidate set: the first `d` slots end up
  // holding a uniform sample without replacement.
  const int n = static_cast<int>(candidates_.size());
  const int d = std::min(config_.d, n);
  int best = -1;
  int best_occupancy = 0;
  for (int i = 0; i < d; ++i) {
    const int j =
        i + static_cast<int>(rng_.NextUint64(static_cast<uint64_t>(n - i)));
    std::swap(candidates_[i], candidates_[j]);
    const int node = candidates_[i];
    const int occupancy = Occupancy(cluster.view(node));
    if (best < 0 || occupancy < best_occupancy) {
      best = node;
      best_occupancy = occupancy;
    }
  }
  return best;
}

int PowerOfDPolicy::Route(const MembershipView& cluster,
                          const RouteContext& context) {
  EligibleCandidates(cluster, context, &candidates_, &warned_empty_);
  return RouteAmong(cluster);
}

int LocalityPolicy::Route(const MembershipView& cluster,
                          const RouteContext& context) {
  // Without keys there is no locality to exploit; degrade to cheapest node.
  if (!context.has_placement()) return LeastOccupied(cluster);
  const HomePick home = PickHomePartition(cluster, context, &touches_);
  if (home.node < 0) {
    WarnDegenerateOnce(&warned_empty_, name());
    return LeastOccupied(cluster);
  }
  return home.node;
}

int LocalityThresholdPolicy::Route(const MembershipView& cluster,
                                   const RouteContext& context) {
  if (!context.has_placement()) return LeastOccupied(cluster);
  const HomePick home = PickHomePartition(cluster, context, &touches_);
  if (home.node < 0) {
    WarnDegenerateOnce(&warned_empty_, name());
    return LeastOccupied(cluster);
  }
  // Locality pays while the home node has admission headroom: its gate
  // would enqueue beyond n*, so spill to the cheapest live replica instead.
  if (Occupancy(home.view) <= home.view.limit) return home.node;
  FilterReplicas(cluster, *context.catalog, home.partition, &candidates_);
  int best = home.node;
  int best_occupancy = Occupancy(home.view);
  for (const int node : candidates_) {
    const int occupancy = Occupancy(cluster.view(node));
    if (occupancy < best_occupancy) {
      best = node;
      best_occupancy = occupancy;
    }
  }
  return best;
}

}  // namespace alc::cluster
