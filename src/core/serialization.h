#ifndef ANC_CORE_SERIALIZATION_H_
#define ANC_CORE_SERIALIZATION_H_

#include <functional>
#include <memory>
#include <string>

#include "core/anc.h"
#include "util/framed_record.h"
#include "util/status.h"

namespace anc {

/// Persists an AncIndex (graph topology, configuration, anchored
/// similarity/activeness state, pyramid seed sets) to a binary file. The
/// Voronoi partitions themselves are not stored — they are a deterministic
/// function of (weights, seeds) and are rebuilt on load, keeping the format
/// small and robust against layout changes.
Status SaveIndex(const AncIndex& index, const std::string& path);

/// A loaded index together with the graph it references. The graph is heap
/// allocated and pointer-stable, so the AncIndex's internal reference stays
/// valid for the lifetime of this struct.
struct LoadedIndex {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<AncIndex> index;
};

/// Loads an index saved with SaveIndex. Fails with IoError on unreadable
/// or truncated files and InvalidArgument on format/version mismatches.
Result<LoadedIndex> LoadIndex(const std::string& path);

/// Index images: one frame whose payload is the graph and configuration
/// sections, then the similarity state, then the ANCOR reinforce
/// bookkeeping and the pyramid partition trees (docs/durability.md
/// "Framed records"). Only the similarity state differs between formats —
/// ANCIDX02 stores it inline, the tiered head ANCTHD01 as page tables — so
/// each format supplies just that section's writer and reader.
using SimilarityStateWriter = std::function<void(std::string* out)>;
using SimilarityStateReader =
    std::function<Status(ByteReader* in, SimilarityEngine::Snapshot* state)>;

/// Writes `index` as one `format` frame to `path` (no fsync — the store's
/// checkpoint flow owns temp-file/fsync/rename).
Status SaveIndexImage(const AncIndex& index, const std::string& path,
                      const FrameFormat& format,
                      const SimilarityStateWriter& similarity_state);

/// Reads an image written by SaveIndexImage with the same `format`. The
/// reader's status is returned as is; the shared sections fail with
/// IoError when truncated and InvalidArgument when inconsistent.
Result<LoadedIndex> LoadIndexImage(
    const std::string& path, const FrameFormat& format,
    const SimilarityStateReader& similarity_state);

}  // namespace anc

#endif  // ANC_CORE_SERIALIZATION_H_
