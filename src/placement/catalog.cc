#include "placement/catalog.h"

#include <algorithm>

#include "util/check.h"

namespace alc::placement {

namespace {

/// splitmix64 finalizer: platform-stable scramble for the hash key map.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* PlacementKindName(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kHash:
      return "hash";
    case PlacementKind::kRange:
      return "range";
    case PlacementKind::kReplicated:
      return "replicated";
  }
  return "?";
}

PlacementCatalog::PlacementCatalog(const PlacementConfig& config,
                                   int num_nodes, uint32_t db_size)
    : config_(config),
      num_nodes_(num_nodes),
      num_partitions_(config.num_partitions),
      db_size_(db_size) {
  ALC_CHECK_GT(num_nodes, 0);
  ALC_CHECK_GT(config.num_partitions, 0);
  ALC_CHECK_GT(db_size, 0u);
  ALC_CHECK_LE(static_cast<uint32_t>(config.num_partitions), db_size);
  ALC_CHECK_GE(config.replication_factor, 1);
  ALC_CHECK_GE(config.rebalance_interval, 0.0);
  // moves only matters when rebalancing runs; {interval=0, moves=0} is the
  // natural way to spell a fully static placement.
  if (config.rebalance_interval > 0.0) {
    ALC_CHECK_GE(config.rebalance_moves, 1);
  }

  const int requested_r = config.kind == PlacementKind::kReplicated
                              ? config.replication_factor
                              : 1;
  replication_factor_ = std::min(requested_r, num_nodes);

  replicas_.resize(num_partitions_);
  for (int p = 0; p < num_partitions_; ++p) {
    replicas_[p].reserve(replication_factor_);
    for (int j = 0; j < replication_factor_; ++j) {
      replicas_[p].push_back((p + j) % num_nodes_);
    }
  }
  live_.assign(num_nodes_, 1);
  heat_.assign(num_partitions_, 0);
}

void PlacementCatalog::SetNodeLive(int node, bool live) {
  ALC_CHECK_GE(node, 0);
  ALC_CHECK_LT(node, num_nodes_);
  const uint8_t flag = live ? 1 : 0;
  if (live_[node] == flag) return;
  live_[node] = flag;
  if (live) return;  // rejoiners regain homes only through the rebalancer

  // Re-home every partition the departed node owned. The fallback target
  // tracks homes as they are assigned so one node does not absorb every
  // orphan of a large departure.
  std::vector<int> homes(num_nodes_, 0);
  for (const std::vector<int>& replicas : replicas_) ++homes[replicas[0]];
  for (int p = 0; p < num_partitions_; ++p) {
    std::vector<int>& replicas = replicas_[p];
    if (replicas[0] != node) continue;
    int target = -1;
    for (size_t j = 1; j < replicas.size(); ++j) {
      if (live_[replicas[j]] != 0) {
        target = replicas[j];
        break;
      }
    }
    if (target < 0) {
      for (int candidate = 0; candidate < num_nodes_; ++candidate) {
        if (live_[candidate] == 0) continue;
        if (target < 0 || homes[candidate] < homes[target]) target = candidate;
      }
    }
    if (target < 0) continue;  // whole fleet down: orphan stays put
    replicas.erase(std::remove(replicas.begin(), replicas.end(), target),
                   replicas.end());
    replicas.insert(replicas.begin(), target);
    if (static_cast<int>(replicas.size()) > replication_factor_) {
      replicas.resize(replication_factor_);
    }
    --homes[node];
    ++homes[target];
    ++migrations_;
  }
}

int PlacementCatalog::PartitionOf(db::ItemId key) const {
  if (key >= db_size_) key = db_size_ - 1;
  if (config_.kind == PlacementKind::kHash) {
    return static_cast<int>(Mix64(key) %
                            static_cast<uint64_t>(num_partitions_));
  }
  // Range map (kRange and kReplicated): contiguous blocks whose sizes
  // differ by at most one granule.
  return static_cast<int>(static_cast<uint64_t>(key) *
                          static_cast<uint64_t>(num_partitions_) / db_size_);
}

const std::vector<int>& PlacementCatalog::Replicas(int partition) const {
  ALC_CHECK_GE(partition, 0);
  ALC_CHECK_LT(partition, num_partitions_);
  return replicas_[partition];
}

int PlacementCatalog::HomeNode(int partition) const {
  return Replicas(partition)[0];
}

bool PlacementCatalog::IsReplica(int partition, int node) const {
  const std::vector<int>& replicas = Replicas(partition);
  return std::find(replicas.begin(), replicas.end(), node) != replicas.end();
}

int PlacementCatalog::HomePartitionCount(int node) const {
  int count = 0;
  for (const std::vector<int>& replicas : replicas_) {
    if (replicas[0] == node) ++count;
  }
  return count;
}

int PlacementCatalog::ReplicaPartitionCount(int node) const {
  int count = 0;
  for (int p = 0; p < num_partitions_; ++p) {
    if (IsReplica(p, node)) ++count;
  }
  return count;
}

void PlacementCatalog::MapToPartitions(const std::vector<db::ItemId>& keys,
                                       std::vector<int>* out) const {
  out->clear();
  out->reserve(keys.size());
  for (const db::ItemId key : keys) out->push_back(PartitionOf(key));
}

void PlacementCatalog::CountPartitionTouches(
    const std::vector<int>& partitions,
    std::vector<std::pair<int, int>>* out) const {
  // Sorting a copy of the k ids groups equal ids into runs in ascending id
  // order: O(k log k), independent of num_partitions.
  out->clear();
  sorted_scratch_.assign(partitions.begin(), partitions.end());
  std::sort(sorted_scratch_.begin(), sorted_scratch_.end());
  for (const int partition : sorted_scratch_) {
    if (out->empty() || out->back().first != partition) {
      out->emplace_back(partition, 0);
    }
    ++out->back().second;
  }
  std::sort(out->begin(), out->end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
}

int PlacementCatalog::PluralityPartition(
    const std::vector<int>& partitions) const {
  // The first touch count is the plurality, lowest id first on ties.
  CountPartitionTouches(partitions, &touch_scratch_);
  return touch_scratch_.empty() ? -1 : touch_scratch_.front().first;
}

void PlacementCatalog::CountTouches(
    const std::vector<db::ItemId>& keys,
    std::vector<std::pair<int, int>>* out) const {
  MapToPartitions(keys, &partition_scratch_);
  CountPartitionTouches(partition_scratch_, out);
}

int PlacementCatalog::MostTouchedPartition(
    const std::vector<db::ItemId>& keys) const {
  MapToPartitions(keys, &partition_scratch_);
  return PluralityPartition(partition_scratch_);
}

int PlacementCatalog::Rebalance(const std::vector<int>& node_loads) {
  ALC_CHECK_EQ(static_cast<int>(node_loads.size()), num_nodes_);
  ++rebalances_;

  // Hottest partitions first; ties to the lower partition id.
  std::vector<int> ranked(num_partitions_);
  for (int p = 0; p < num_partitions_; ++p) ranked[p] = p;
  std::sort(ranked.begin(), ranked.end(), [this](int a, int b) {
    if (heat_[a] != heat_[b]) return heat_[a] > heat_[b];
    return a < b;
  });

  // Working copy of the loads: each migration bumps the target's load by
  // one so a single cold node does not absorb every hot partition in the
  // same rebalance tick.
  std::vector<int> loads = node_loads;
  int moved = 0;
  const int moves = std::min(config_.rebalance_moves, num_partitions_);
  for (int i = 0; i < moves; ++i) {
    const int partition = ranked[i];
    if (heat_[partition] == 0) break;  // nothing hot left to move
    int target = -1;
    for (int node = 0; node < num_nodes_; ++node) {
      if (live_[node] == 0) continue;  // homes never land on dead nodes
      if (target < 0 || loads[node] < loads[target]) target = node;
    }
    if (target < 0) break;  // whole fleet down
    std::vector<int>& replicas = replicas_[partition];
    if (replicas[0] == target) continue;  // already homed on the best node
    // The target becomes home and the old home demotes to a replica (it
    // already stores the data); the tail replica is evicted to keep r.
    replicas.erase(std::remove(replicas.begin(), replicas.end(), target),
                   replicas.end());
    replicas.insert(replicas.begin(), target);
    if (static_cast<int>(replicas.size()) > replication_factor_) {
      replicas.resize(replication_factor_);
    }
    ++loads[target];
    ++moved;
    ++migrations_;
  }
  heat_.assign(num_partitions_, 0);
  return moved;
}

}  // namespace alc::placement
