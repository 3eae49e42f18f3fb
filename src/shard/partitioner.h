#ifndef ANC_SHARD_PARTITIONER_H_
#define ANC_SHARD_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace anc::shard {

/// Vertex-partitioning strategies (docs/sharding.md).
enum class PartitionerKind : uint8_t {
  /// Stateless baseline: shard(v) = mix64(v ^ seed) mod k. Perfect
  /// streaming cost, no locality — the cut ratio approaches (k-1)/k.
  kHash,
  /// Greedy streaming partitioner in the LDG (linear deterministic greedy)
  /// family: vertices arrive in a seeded random order and each one joins
  /// the shard maximizing (assigned neighbors + eps) * (1 - size/capacity).
  /// One pass, O(n + m), typically cuts a small fraction of the edges on
  /// community-structured graphs while keeping shards balanced.
  kLdg,
};

const char* PartitionerKindName(PartitionerKind kind);
Result<PartitionerKind> ParsePartitionerKind(std::string_view name);

/// Knobs for MakePartition.
struct PartitionOptions {
  uint32_t num_shards = 4;
  PartitionerKind kind = PartitionerKind::kLdg;
  /// LDG capacity per shard = balance_slack * ceil(n / k); must be >= 1.
  double balance_slack = 1.1;
  /// Seeds the hash mix / the streaming arrival order.
  uint64_t seed = 1;
  /// When non-zero, seeds LDG's arrival-order shuffle independently of
  /// `seed`, so benches can vary arrival order while holding everything
  /// else fixed — and pin it for run-to-run reproducibility. 0 means "derive from seed" (the
  /// pre-existing behavior: the shuffle uses `seed` directly).
  uint64_t arrival_seed = 0;
  /// Total LDG streaming passes (must be >= 1).
  /// Passes after the first restream the same arrival order against the
  /// previous assignment (restreaming): each vertex leaves its shard and
  /// greedily rejoins, now scoring against a complete neighborhood instead
  /// of the assigned prefix. Two or three passes typically cut the edge cut
  /// by a third or more on community-structured graphs for the same balance
  /// envelope.
  uint32_t ldg_passes = 1;
  /// When non-empty, bypasses the partitioners entirely: node v goes to
  /// shard explicit_assignment[v]. Size must equal NumNodes() and every
  /// entry must be < num_shards. Used by tests that align shards with
  /// graph components and by operators with an external partitioning.
  std::vector<uint32_t> explicit_assignment;
};

/// A vertex partition: node_shard[v] is the owning shard of v.
struct Partition {
  std::vector<uint32_t> node_shard;
  uint32_t num_shards = 0;
};

/// Quality scorecard of a partition (docs/sharding.md).
struct PartitionStats {
  uint32_t num_shards = 0;
  /// Vertices owned per shard.
  std::vector<uint32_t> shard_nodes;
  /// Edges whose vote owner (first endpoint) lives on the shard.
  std::vector<uint32_t> shard_owned_edges;
  /// Edges with endpoints on two different shards — each one costs a halo
  /// delivery to the second shard on every activation.
  uint64_t cut_edges = 0;
  /// cut_edges / NumEdges() (0 on edgeless graphs).
  double cut_ratio = 0.0;
  /// max shard_nodes / (n / k): 1.0 is perfectly balanced.
  double balance = 0.0;

  std::string ToString() const;
};

/// Builds a partition per `options`. Fails on num_shards == 0, num_shards >
/// NumNodes() (for a non-empty graph), or a malformed explicit assignment.
Result<Partition> MakePartition(const Graph& g, const PartitionOptions& options);

/// The strategies, directly. `arrival_seed` follows PartitionOptions
/// semantics: 0 means the arrival shuffle derives from `seed`.
Result<Partition> HashPartition(const Graph& g, uint32_t num_shards,
                                uint64_t seed);
Result<Partition> LdgPartition(const Graph& g, uint32_t num_shards,
                               double balance_slack, uint64_t seed,
                               uint32_t passes = 1, uint64_t arrival_seed = 0);

/// Scores `partition` against `g`. partition.node_shard must cover g.
PartitionStats ComputeStats(const Graph& g, const Partition& partition);

}  // namespace anc::shard

#endif  // ANC_SHARD_PARTITIONER_H_
