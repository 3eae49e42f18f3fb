#include "core/serialization.h"

#include <cstdint>
#include <vector>

#include "util/atomic_file.h"

namespace anc {

namespace {

// Format v2 (current): [magic "ANCIDX02"][u32 version = 2][u64 payload
// length][u32 crc32c(payload)][payload]. The checksum rejects bit rot and
// truncation with InvalidArgument instead of loading silently-corrupt
// state; the version in the prefix rejects files from a different format
// generation ("ANCIDX01" seeds included) rather than misparsing them.
constexpr char kIndexPrefix[12] = {'A', 'N', 'C', 'I', 'D', 'X',
                                   '0', '2', 2,   0,   0,   0};
// Corruption guard: a length beyond this is rejected, never allocated.
constexpr FrameFormat kIndexFrame{
    std::string_view(kIndexPrefix, sizeof(kIndexPrefix)), 8, 16ull << 30};

void PutGraphAndConfig(std::string* out, const AncIndex& index) {
  const Graph& g = index.graph();
  PutU32(out, g.NumNodes());
  std::vector<uint64_t> edges(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto& [u, v] = g.Endpoints(e);
    edges[e] = (static_cast<uint64_t>(u) << 32) | v;
  }
  PutVec(out, edges);

  const AncConfig& config = index.config();
  PutPod(out, config.similarity.lambda);
  PutPod(out, config.similarity.epsilon);
  PutPod(out, config.similarity.mu);
  PutPod(out, config.similarity.min_similarity);
  PutPod(out, config.similarity.max_similarity);
  PutPod(out, config.similarity.initial_activeness);
  PutPod(out, config.pyramid.num_pyramids);
  PutPod(out, config.pyramid.theta);
  PutPod(out, config.pyramid.seed);
  PutPod(out, config.pyramid.num_threads);
  PutU8(out, static_cast<uint8_t>(config.mode));
  PutPod(out, config.rep);
  PutPod(out, config.reinforce_interval);
}

void PutReinforceAndTrees(std::string* out, const AncIndex& index) {
  PutF64(out, index.last_reinforce_time());
  PutVec(out, index.PendingReinforceEdges());

  // Pyramid partition trees, exact (including tie-breaks).
  const std::vector<VoronoiPartition::TreeState> trees =
      index.index().ExportTreeStates();
  PutU64(out, trees.size());
  for (const auto& tree : trees) {
    PutVec(out, tree.seeds, tree.seed_of, tree.dist, tree.parent,
           tree.parent_edge, tree.first_child, tree.next_sibling,
           tree.prev_sibling);
  }
}

Result<std::unique_ptr<Graph>> ReadGraph(ByteReader* in,
                                         const std::string& path) {
  uint32_t num_nodes = 0;
  std::vector<uint64_t> edges;
  if (!in->Read(&num_nodes).ok() || !in->ReadVec(&edges).ok()) {
    return Status::IoError(path + ": truncated graph section");
  }
  GraphBuilder builder;
  builder.SetNumNodes(num_nodes);
  for (uint64_t packed : edges) {
    const NodeId u = static_cast<NodeId>(packed >> 32);
    const NodeId v = static_cast<NodeId>(packed & 0xFFFFFFFFu);
    ANC_RETURN_NOT_OK(builder.AddEdge(u, v));
  }
  auto graph = std::make_unique<Graph>(builder.Build());
  if (graph->NumNodes() != num_nodes || graph->NumEdges() != edges.size()) {
    return Status::InvalidArgument(path + ": inconsistent graph section");
  }
  return graph;
}

Status ReadConfig(ByteReader* in, const std::string& path,
                  AncConfig* config) {
  uint8_t mode = 0;
  if (!in->Read(&config->similarity.lambda, &config->similarity.epsilon,
                &config->similarity.mu, &config->similarity.min_similarity,
                &config->similarity.max_similarity,
                &config->similarity.initial_activeness,
                &config->pyramid.num_pyramids, &config->pyramid.theta,
                &config->pyramid.seed, &config->pyramid.num_threads, &mode,
                &config->rep, &config->reinforce_interval)
           .ok()) {
    return Status::IoError(path + ": truncated config section");
  }
  if (mode > static_cast<uint8_t>(AncMode::kOnlineReinforce)) {
    return Status::InvalidArgument(path + ": unknown mode byte");
  }
  config->mode = static_cast<AncMode>(mode);
  return Status::OK();
}

}  // namespace

Status SaveIndexImage(const AncIndex& index, const std::string& path,
                      const FrameFormat& format,
                      const SimilarityStateWriter& similarity_state) {
  std::string image;
  const size_t begin = BeginFrame(&image, format);
  PutGraphAndConfig(&image, index);
  similarity_state(&image);
  PutReinforceAndTrees(&image, index);
  EndFrame(&image, format, begin);
  return WriteFile(path, image);
}

Result<LoadedIndex> LoadIndexImage(
    const std::string& path, const FrameFormat& format,
    const SimilarityStateReader& similarity_state) {
  std::string image;
  if (!ReadFile(path, &image).ok()) {
    return Status::IoError("cannot open " + path);
  }
  std::string_view payload;
  const Status framed = DecodeFrame(format, image, &payload);
  if (!framed.ok()) {
    // A truncated file is as corrupt as a bit-flipped one.
    return Status::InvalidArgument(path + ": " + framed.message());
  }
  ByteReader in(payload);

  Result<std::unique_ptr<Graph>> graph = ReadGraph(&in, path);
  if (!graph.ok()) return graph.status();
  AncConfig config;
  ANC_RETURN_NOT_OK(ReadConfig(&in, path, &config));

  SimilarityEngine::Snapshot snapshot;
  ANC_RETURN_NOT_OK(similarity_state(&in, &snapshot));

  double last_reinforce_time = 0.0;
  std::vector<EdgeId> pending_edges;
  if (!in.Read(&last_reinforce_time).ok() ||
      !in.ReadVec(&pending_edges).ok()) {
    return Status::IoError(path + ": truncated reinforce section");
  }

  // Each tree is at least its eight u64 vector counts.
  uint64_t num_slots = 0;
  if (!in.Read(&num_slots).ok() || num_slots > in.remaining() / 64) {
    return Status::IoError(path + ": truncated partition section");
  }
  std::vector<VoronoiPartition::TreeState> trees(num_slots);
  for (auto& tree : trees) {
    if (!in.ReadVec(&tree.seeds, &tree.seed_of, &tree.dist, &tree.parent,
                    &tree.parent_edge, &tree.first_child, &tree.next_sibling,
                    &tree.prev_sibling)
             .ok()) {
      return Status::IoError(path + ": truncated partition tree");
    }
  }

  // FromSnapshot rebuilds sigma caches, partitions and votes from the
  // materialized vectors, so every format loads byte-identically to a
  // full snapshot of the same state.
  LoadedIndex loaded;
  loaded.index = AncIndex::FromSnapshot(**graph, config, snapshot,
                                        std::move(trees));
  if (loaded.index == nullptr) {
    return Status::InvalidArgument(path + ": state does not match graph");
  }
  loaded.index->RestoreReinforceState(last_reinforce_time,
                                      std::move(pending_edges));
  loaded.graph = std::move(*graph);
  return loaded;
}

Status SaveIndex(const AncIndex& index, const std::string& path) {
  return SaveIndexImage(index, path, kIndexFrame, [&index](std::string* out) {
    const SimilarityEngine::Snapshot state = index.engine().TakeSnapshot();
    PutF64(out, state.anchor_time);
    PutF64(out, state.last_time);
    PutVec(out, state.anchored_activeness, state.similarity);
  });
}

Result<LoadedIndex> LoadIndex(const std::string& path) {
  return LoadIndexImage(
      path, kIndexFrame,
      [&path](ByteReader* in, SimilarityEngine::Snapshot* state) {
        if (!in->Read(&state->anchor_time, &state->last_time).ok() ||
            !in->ReadVec(&state->anchored_activeness, &state->similarity)
                 .ok()) {
          return Status::IoError(path + ": truncated similarity section");
        }
        return Status::OK();
      });
}

}  // namespace anc
