#ifndef ALC_PLACEMENT_CATALOG_H_
#define ALC_PLACEMENT_CATALOG_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "db/types.h"

namespace alc::placement {

/// How the global granule space [0, D) is split into partitions and mapped
/// onto the node fleet. All strategies are deterministic functions of the
/// configuration — no randomness enters placement, so a placed cluster run
/// stays bit-reproducible.
enum class PlacementKind {
  /// Multiplicative-hash key -> partition map, one copy per partition.
  /// Spreads contiguous hot key ranges across partitions (and nodes), at
  /// the cost of destroying range locality.
  kHash,
  /// Contiguous equal blocks of the key space per partition, one copy per
  /// partition. Preserves range locality: a hot key range concentrates in
  /// few partitions (and few nodes).
  kRange,
  /// Range key map with `replication_factor` copies per partition; the
  /// first replica is the partition's home node. This is the placement a
  /// locality router can exploit: any replica can serve the data locally.
  kReplicated,
};

const char* PlacementKindName(PlacementKind kind);

struct PlacementConfig {
  PlacementKind kind = PlacementKind::kRange;
  int num_partitions = 16;
  /// Copies per partition (kReplicated only; hash/range place one copy).
  /// Clamped to the fleet size: r <= N always holds in the built catalog.
  int replication_factor = 2;
  /// Hot-spot-aware rebalancing: every `rebalance_interval` seconds the
  /// hottest `rebalance_moves` partitions (by accesses since the previous
  /// rebalance) migrate their home onto the least-loaded nodes. 0 disables
  /// rebalancing (static placement).
  double rebalance_interval = 0.0;
  int rebalance_moves = 1;
};

inline bool operator==(const PlacementConfig& a, const PlacementConfig& b) {
  return a.kind == b.kind && a.num_partitions == b.num_partitions &&
         a.replication_factor == b.replication_factor &&
         a.rebalance_interval == b.rebalance_interval &&
         a.rebalance_moves == b.rebalance_moves;
}
inline bool operator!=(const PlacementConfig& a, const PlacementConfig& b) {
  return !(a == b);
}

/// The authoritative map from granules to partitions to node replica sets,
/// plus the per-partition access-heat counters that drive the rebalancer.
/// The router consults it on every arrival; the cluster front-end records
/// each planned access into it and triggers rebalances on a schedule.
class PlacementCatalog {
 public:
  /// Builds the initial placement: partition p's replica set is the r nodes
  /// {p mod N, p+1 mod N, ..., p+r-1 mod N}, home first — round-robin
  /// striping so home partitions spread evenly across the fleet.
  PlacementCatalog(const PlacementConfig& config, int num_nodes,
                   uint32_t db_size);

  int num_partitions() const { return num_partitions_; }
  int num_nodes() const { return num_nodes_; }
  /// Effective replication factor (clamped to the fleet size).
  int replication_factor() const { return replication_factor_; }
  uint32_t db_size() const { return db_size_; }
  PlacementKind kind() const { return config_.kind; }

  /// Partition holding `key`. Keys at or beyond db_size are clamped into
  /// the last partition (defensive; generators never produce them).
  int PartitionOf(db::ItemId key) const;

  /// Nodes holding a copy of `partition`; element 0 is the home node.
  const std::vector<int>& Replicas(int partition) const;
  int HomeNode(int partition) const;
  bool IsReplica(int partition, int node) const;

  /// Partitions whose home is `node` / partitions `node` holds any copy of.
  int HomePartitionCount(int node) const;
  int ReplicaPartitionCount(int node) const;

  /// Access-heat tracking (accesses since the last rebalance).
  void RecordAccess(int partition) { ++heat_[partition]; }
  uint64_t heat(int partition) const { return heat_[partition]; }

  /// Maps each key to its partition (out[i] = PartitionOf(keys[i])).
  void MapToPartitions(const std::vector<db::ItemId>& keys,
                       std::vector<int>* out) const;

  /// Touch counts of the given partition ids, sorted by (count desc,
  /// partition asc). Deterministic for identical inputs; O(k log k) in the
  /// k ids, whatever num_partitions is.
  void CountPartitionTouches(const std::vector<int>& partitions,
                             std::vector<std::pair<int, int>>* out) const;

  /// The partition appearing most often in `partitions` (lowest id on
  /// ties); -1 when empty.
  int PluralityPartition(const std::vector<int>& partitions) const;

  /// Key-based conveniences: MapToPartitions composed with the above.
  void CountTouches(const std::vector<db::ItemId>& keys,
                    std::vector<std::pair<int, int>>* out) const;
  int MostTouchedPartition(const std::vector<db::ItemId>& keys) const;

  /// Membership subscription (cluster lifecycle): marks `node` as live or
  /// not. When a node leaves, every partition homed on it is orphaned and
  /// re-homed immediately — onto its first live replica when one exists,
  /// else onto the live node holding the fewest homes (ties to the lower
  /// index); each re-homing counts as a migration. Replica sets may keep
  /// naming the dead node (it still stores its copies and resumes serving
  /// on rejoin); routing-time filters exclude dead nodes through the
  /// membership view. A rejoining node regains homes only through the
  /// rebalancer. No-op when the state does not change; with every node
  /// dead, orphans stay put until a node returns.
  void SetNodeLive(int node, bool live);
  bool IsNodeLive(int node) const { return live_[node] != 0; }

  /// Migrates the home of the `rebalance_moves` hottest partitions (heat
  /// since the previous rebalance, ties to the lower partition id) onto the
  /// least-loaded nodes. `node_loads[i]` is the caller's load measure for
  /// node i (the cluster passes front-end occupancy). A migrated partition
  /// keeps its replication factor: the target node becomes home, the old
  /// home demotes to a replica (it already stores the data), and the tail
  /// replica is evicted when the set would exceed r. Partitions
  /// already homed on their best node stay put. Heat counters reset
  /// afterwards (each rebalance sees one window). Returns the number of
  /// partitions moved. Homes never migrate onto a dead node. Deterministic
  /// for identical (state, loads).
  int Rebalance(const std::vector<int>& node_loads);

  uint64_t rebalances() const { return rebalances_; }
  uint64_t migrations() const { return migrations_; }

 private:
  PlacementConfig config_;
  int num_nodes_;
  int num_partitions_;
  int replication_factor_;
  uint32_t db_size_;
  std::vector<std::vector<int>> replicas_;  // [partition] -> nodes, home first
  std::vector<uint8_t> live_;               // [node] -> membership flag
  std::vector<uint64_t> heat_;              // accesses since last rebalance
  uint64_t rebalances_ = 0;
  uint64_t migrations_ = 0;
  /// Working space for the touch-counting queries (single-threaded sim).
  mutable std::vector<int> sorted_scratch_;
  mutable std::vector<std::pair<int, int>> touch_scratch_;
  mutable std::vector<int> partition_scratch_;
};

}  // namespace alc::placement

#endif  // ALC_PLACEMENT_CATALOG_H_
