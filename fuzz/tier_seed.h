#ifndef ANC_FUZZ_TIER_SEED_H_
#define ANC_FUZZ_TIER_SEED_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/anc.h"
#include "graph/graph.h"
#include "tier/head.h"
#include "tier/segment.h"
#include "tier/tiered_store.h"
#include "util/status.h"

namespace anc::fuzz {

/// The 6-node, 7-edge graph every file-format seed is built over.
inline Graph SeedGraph() {
  GraphBuilder builder;
  builder.SetNumNodes(6);
  const std::pair<NodeId, NodeId> edges[] = {
      {0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5},
  };
  for (const auto& [u, v] : edges) (void)builder.AddEdge(u, v);
  return builder.Build();
}

/// The tiered-checkpoint exemplar shared by make_corpus (which writes its
/// head into fuzz/corpus/tier/) and fuzz_tier (which needs the same sealed
/// segment on disk so the head's page references resolve). Each of the
/// two similarity-state columns is cut into 4-element pages: page 0 lives
/// in the sealed segment `<tier_dir>/seg-000000000001.tseg` and is written
/// as a reference, page 1 stays inline.
struct TierSeed {
  SimilarityEngine::Snapshot state;  // owns the inline page bytes
  tier::HeadColumn anchored;
  tier::HeadColumn similarity;
};

inline constexpr uint32_t kSeedPageElems = 4;

inline Status WriteTierSeed(const AncIndex& index, const std::string& tier_dir,
                            TierSeed* seed) {
  seed->state = index.engine().TakeSnapshot();
  const std::string segment = tier::SegmentFileName(1);
  const std::string path = tier_dir + "/" + segment;
  const std::vector<double>* sources[2] = {&seed->state.anchored_activeness,
                                           &seed->state.similarity};
  {
    auto writer = tier::SegmentWriter::Create(path);
    if (!writer.ok()) return writer.status();
    for (uint16_t c = 0; c < 2; ++c) {
      const size_t elems = std::min<size_t>(sources[c]->size(), kSeedPageElems);
      ANC_RETURN_NOT_OK((*writer)->AddPage(
          c, sizeof(double), 0, sources[c]->data(),
          static_cast<uint32_t>(elems * sizeof(double))));
    }
    ANC_RETURN_NOT_OK((*writer)->Finish());
  }
  auto reader = tier::SegmentReader::Open(path, /*verify_pages=*/true);
  if (!reader.ok()) return reader.status();

  tier::HeadColumn* tables[2] = {&seed->anchored, &seed->similarity};
  for (uint16_t c = 0; c < 2; ++c) {
    const std::vector<double>& values = *sources[c];
    tier::HeadColumn& table = *tables[c];
    table.elems = values.size();
    table.page_elems = kSeedPageElems;
    for (size_t begin = 0; begin < values.size(); begin += kSeedPageElems) {
      const size_t end = std::min(values.size(), begin + kSeedPageElems);
      tier::HeadPage page;
      page.inline_data = reinterpret_cast<const char*>(values.data() + begin);
      page.bytes = static_cast<uint32_t>((end - begin) * sizeof(double));
      if (begin == 0) {
        const tier::SegmentPage* cold = (*reader)->Find(c, 0);
        if (cold == nullptr) return Status::Internal("seed page missing");
        page.segment = segment;
        page.offset = cold->offset;
        page.crc = cold->crc;
      }
      table.pages.push_back(std::move(page));
    }
  }
  return Status::OK();
}

}  // namespace anc::fuzz

#endif  // ANC_FUZZ_TIER_SEED_H_
