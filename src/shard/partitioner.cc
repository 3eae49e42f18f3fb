#include "shard/partitioner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/rng.h"

namespace anc::shard {

namespace {

/// splitmix64 finalizer — the stateless per-node hash of kHash.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Status ValidateShardCount(const Graph& g, uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (g.NumNodes() > 0 && num_shards > g.NumNodes()) {
    return Status::InvalidArgument("more shards than nodes");
  }
  return Status::OK();
}

Status ValidateStreamingArgs(const Graph& g, uint32_t num_shards,
                             double balance_slack, uint32_t passes) {
  ANC_RETURN_NOT_OK(ValidateShardCount(g, num_shards));
  if (!(balance_slack >= 1.0)) {
    return Status::InvalidArgument("balance_slack must be >= 1.0");
  }
  if (passes == 0) {
    return Status::InvalidArgument("ldg_passes must be >= 1");
  }
  return Status::OK();
}

/// LDG's seeded random arrival order (the greedy is order-sensitive; a
/// fixed seed keeps the partition — and everything downstream —
/// reproducible). arrival_seed == 0 derives the
/// shuffle from `seed`, matching the pre-arrival_seed behavior.
std::vector<NodeId> ArrivalOrder(uint32_t n, uint64_t seed,
                                 uint64_t arrival_seed) {
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(arrival_seed != 0 ? arrival_seed : seed);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

}  // namespace

const char* PartitionerKindName(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kHash:
      return "hash";
    case PartitionerKind::kLdg:
      return "ldg";
  }
  return "unknown";
}

Result<PartitionerKind> ParsePartitionerKind(std::string_view name) {
  if (name == "hash") return PartitionerKind::kHash;
  if (name == "ldg") return PartitionerKind::kLdg;
  return Status::InvalidArgument("unknown partitioner kind: " +
                                 std::string(name));
}

Result<Partition> HashPartition(const Graph& g, uint32_t num_shards,
                                uint64_t seed) {
  ANC_RETURN_NOT_OK(ValidateShardCount(g, num_shards));
  Partition partition;
  partition.num_shards = num_shards;
  partition.node_shard.resize(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    partition.node_shard[v] =
        static_cast<uint32_t>(Mix64(v ^ seed) % num_shards);
  }
  return partition;
}

Result<Partition> LdgPartition(const Graph& g, uint32_t num_shards,
                               double balance_slack, uint64_t seed,
                               uint32_t passes, uint64_t arrival_seed) {
  ANC_RETURN_NOT_OK(ValidateStreamingArgs(g, num_shards, balance_slack, passes));
  const uint32_t n = g.NumNodes();
  Partition partition;
  partition.num_shards = num_shards;
  partition.node_shard.assign(n, num_shards);  // num_shards == unassigned

  const std::vector<NodeId> order = ArrivalOrder(n, seed, arrival_seed);
  const double capacity =
      balance_slack *
      std::ceil(static_cast<double>(n) / static_cast<double>(num_shards));
  std::vector<uint32_t> sizes(num_shards, 0);
  std::vector<uint32_t> neighbor_count(num_shards, 0);
  constexpr double kEps = 1e-6;

  // Pass 1 streams over unassigned vertices; passes 2..N restream the same
  // order, each vertex leaving its shard and greedily rejoining against the
  // now-complete neighborhood (restreamed LDG).
  for (uint32_t pass = 0; pass < passes; ++pass) {
    for (const NodeId v : order) {
      if (partition.node_shard[v] != num_shards) {
        --sizes[partition.node_shard[v]];
        partition.node_shard[v] = num_shards;
      }
      std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
      for (const Neighbor& nb : g.Neighbors(v)) {
        const uint32_t s = partition.node_shard[nb.node];
        if (s != num_shards) ++neighbor_count[s];
      }
      uint32_t best = 0;
      double best_score = -1.0;
      for (uint32_t s = 0; s < num_shards; ++s) {
        const double fill = static_cast<double>(sizes[s]) / capacity;
        if (fill >= 1.0) continue;
        const double score = (neighbor_count[s] + kEps) * (1.0 - fill);
        // Ties break toward the emptier shard, then the lower index, so the
        // result is independent of float noise in the score ordering.
        if (score > best_score ||
            (score == best_score && sizes[s] < sizes[best])) {
          best_score = score;
          best = s;
        }
      }
      if (best_score < 0.0) {
        // All shards at capacity (slack rounding on tiny graphs): fall back
        // to the globally emptiest shard.
        best = static_cast<uint32_t>(
            std::min_element(sizes.begin(), sizes.end()) - sizes.begin());
      }
      partition.node_shard[v] = best;
      ++sizes[best];
    }
  }
  return partition;
}

Result<Partition> MakePartition(const Graph& g,
                                const PartitionOptions& options) {
  if (!options.explicit_assignment.empty()) {
    ANC_RETURN_NOT_OK(ValidateShardCount(g, options.num_shards));
    if (options.explicit_assignment.size() != g.NumNodes()) {
      return Status::InvalidArgument(
          "explicit assignment size != NumNodes()");
    }
    for (const uint32_t s : options.explicit_assignment) {
      if (s >= options.num_shards) {
        return Status::InvalidArgument(
            "explicit assignment names a shard >= num_shards");
      }
    }
    Partition partition;
    partition.num_shards = options.num_shards;
    partition.node_shard = options.explicit_assignment;
    return partition;
  }
  switch (options.kind) {
    case PartitionerKind::kHash:
      return HashPartition(g, options.num_shards, options.seed);
    case PartitionerKind::kLdg:
      return LdgPartition(g, options.num_shards, options.balance_slack,
                          options.seed, options.ldg_passes,
                          options.arrival_seed);
  }
  return Status::InvalidArgument("unknown partitioner kind");
}

PartitionStats ComputeStats(const Graph& g, const Partition& partition) {
  PartitionStats stats;
  stats.num_shards = partition.num_shards;
  stats.shard_nodes.assign(partition.num_shards, 0);
  stats.shard_owned_edges.assign(partition.num_shards, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ++stats.shard_nodes[partition.node_shard[v]];
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    ++stats.shard_owned_edges[partition.node_shard[u]];
    if (partition.node_shard[u] != partition.node_shard[v]) {
      ++stats.cut_edges;
    }
  }
  if (g.NumEdges() > 0) {
    stats.cut_ratio = static_cast<double>(stats.cut_edges) /
                      static_cast<double>(g.NumEdges());
  }
  if (g.NumNodes() > 0 && partition.num_shards > 0) {
    const uint32_t max_nodes =
        *std::max_element(stats.shard_nodes.begin(), stats.shard_nodes.end());
    stats.balance = static_cast<double>(max_nodes) * partition.num_shards /
                    static_cast<double>(g.NumNodes());
  }
  return stats;
}

std::string PartitionStats::ToString() const {
  char buffer[160];
  std::snprintf(  // lint-ok: output (formats the stats string, no I/O)
      buffer, sizeof(buffer),
      "shards=%u cut=%llu (%.1f%%) balance=%.3f", num_shards,
      static_cast<unsigned long long>(cut_edges), cut_ratio * 100.0, balance);
  return buffer;
}

}  // namespace anc::shard
