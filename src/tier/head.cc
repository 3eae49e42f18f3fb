#include "tier/head.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "tier/mapped_file.h"
#include "tier/segment.h"
#include "tier/tiered_store.h"
#include "util/framed_record.h"

namespace anc::tier {

namespace fs = std::filesystem;

namespace {

// [magic "ANCTHD01"][u32 version], then the same u64-length frame as
// ANCIDX02.
constexpr char kHeadPrefix[12] = {kHeadMagic[0], kHeadMagic[1], kHeadMagic[2],
                                  kHeadMagic[3], kHeadMagic[4], kHeadMagic[5],
                                  kHeadMagic[6], kHeadMagic[7], kHeadVersion,
                                  0,             0,             0};
constexpr FrameFormat kHeadFrame{
    std::string_view(kHeadPrefix, sizeof(kHeadPrefix)), 8, 16ull << 30};
// Corruption guard: a column beyond this is rejected, never allocated.
constexpr uint64_t kMaxElements = 1ull << 26;
constexpr uint8_t kPageInline = 0;
constexpr uint8_t kPageRef = 1;

void PutPageTable(std::string* out, const HeadColumn& column) {
  PutU64(out, column.elems);
  PutU32(out, column.page_elems);
  PutU32(out, static_cast<uint32_t>(column.pages.size()));
  for (const HeadPage& page : column.pages) {
    if (page.segment.empty()) {
      PutU8(out, kPageInline);
      PutU32(out, page.bytes);
      out->append(page.inline_data, page.bytes);
    } else {
      PutU8(out, kPageRef);
      PutU16(out, static_cast<uint16_t>(page.segment.size()));
      out->append(page.segment);
      PutU64(out, page.offset);
      PutU32(out, page.bytes);
      PutU32(out, page.crc);
    }
  }
}

/// Materializes one page-table column of doubles, resolving references
/// against mmap'd segments under `tier_dir` (opened once each, cached in
/// `mappings`) with per-page CRC checks.
Status ReadPageTable(ByteReader* in, const std::string& path,
                     const std::string& tier_dir,
                     std::map<std::string, std::unique_ptr<MappedFile>>*
                         mappings,
                     std::set<std::string>* segment_refs,
                     std::vector<double>* out) {
  uint64_t elems = 0;
  uint32_t page_elems = 0;
  uint32_t page_count = 0;
  if (!in->Read(&elems, &page_elems, &page_count).ok() ||
      elems > kMaxElements) {
    return Status::IoError(path + ": truncated page table header");
  }
  if (page_elems == 0 ||
      (page_count == 0) != (elems == 0) ||
      (page_count != 0 &&
       (uint64_t{page_count - 1} * page_elems >= elems ||
        uint64_t{page_count} * page_elems < elems))) {
    return Status::InvalidArgument(path + ": inconsistent page geometry");
  }
  out->assign(elems, 0.0);
  for (uint32_t p = 0; p < page_count; ++p) {
    const uint64_t begin = uint64_t{p} * page_elems;
    const uint64_t page_end = std::min<uint64_t>(elems, begin + page_elems);
    const uint64_t expected_bytes = (page_end - begin) * sizeof(double);
    uint8_t kind = 0;
    if (!in->Read(&kind).ok()) {
      return Status::IoError(path + ": truncated page table");
    }
    if (kind == kPageInline) {
      uint32_t bytes = 0;
      std::string_view data;
      if (!in->Read(&bytes).ok() || bytes != expected_bytes) {
        return Status::InvalidArgument(path + ": bad inline page size");
      }
      if (!in->ReadBytes(bytes, &data).ok()) {
        return Status::IoError(path + ": truncated inline page");
      }
      std::memcpy(out->data() + begin, data.data(), bytes);
      continue;
    }
    if (kind != kPageRef) {
      return Status::InvalidArgument(path + ": unknown page kind");
    }
    uint16_t name_len = 0;
    if (!in->Read(&name_len).ok() || name_len == 0 || name_len > 512) {
      return Status::InvalidArgument(path + ": bad segment name length");
    }
    std::string_view name_bytes;
    uint64_t offset = 0;
    uint32_t bytes = 0;
    uint32_t crc = 0;
    if (!in->ReadBytes(name_len, &name_bytes).ok() ||
        !in->Read(&offset, &bytes, &crc).ok()) {
      return Status::IoError(path + ": truncated page reference");
    }
    const std::string name(name_bytes);
    if (bytes != expected_bytes ||
        name.find('/') != std::string::npos) {  // refs never escape tier_dir
      return Status::InvalidArgument(path + ": malformed page reference");
    }
    auto it = mappings->find(name);
    if (it == mappings->end()) {
      auto mapped = MappedFile::Open(tier_dir + "/" + name);
      if (!mapped.ok()) {
        return Status(mapped.status().code(),
                      path + ": referenced segment " + name + ": " +
                          mapped.status().message());
      }
      it = mappings->emplace(name, std::move(*mapped)).first;
    }
    const MappedFile& file = *it->second;
    if (offset > file.size() || bytes > file.size() - offset) {
      return Status::InvalidArgument(path + ": page reference out of bounds "
                                     "in " + name);
    }
    const char* data = file.data() + offset;
    if (!PageCrcMatches(data, bytes, crc)) {
      return Status::InvalidArgument(path + ": page checksum mismatch in " +
                                     name);
    }
    std::memcpy(out->data() + begin, data, bytes);
    if (segment_refs != nullptr) segment_refs->insert(name);
  }
  return Status::OK();
}

}  // namespace

Status WriteTieredHead(const AncIndex& index, const HeadColumn& anchored,
                       const HeadColumn& similarity,
                       const std::string& path) {
  const ActivenessStore& activeness = index.engine().activeness();
  return SaveIndexImage(index, path, kHeadFrame, [&](std::string* out) {
    PutF64(out, activeness.anchor_time());
    PutF64(out, activeness.last_time());
    PutPageTable(out, anchored);
    PutPageTable(out, similarity);
  });
}

bool IsTieredHead(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  char magic[sizeof(kHeadMagic)] = {};
  file.read(magic, sizeof(magic));
  return file && std::memcmp(magic, kHeadMagic, sizeof(kHeadMagic)) == 0;
}

Result<LoadedIndex> LoadTieredHead(const std::string& path,
                                   const std::string& tier_dir,
                                   std::set<std::string>* segment_refs) {
  std::map<std::string, std::unique_ptr<MappedFile>> mappings;
  return LoadIndexImage(
      path, kHeadFrame,
      [&](ByteReader* in, SimilarityEngine::Snapshot* state) {
        if (!in->Read(&state->anchor_time, &state->last_time).ok()) {
          return Status::IoError(path + ": truncated similarity section");
        }
        ANC_RETURN_NOT_OK(ReadPageTable(in, path, tier_dir, &mappings,
                                        segment_refs,
                                        &state->anchored_activeness));
        return ReadPageTable(in, path, tier_dir, &mappings, segment_refs,
                             &state->similarity);
      });
}

Result<store::RecoveredStore> Recover(const std::string& dir) {
  const std::string tier_dir = dir + "/tier";
  auto segment_refs = std::make_shared<std::set<std::string>>();
  store::RecoverOptions options;
  options.checkpoint_loader =
      [tier_dir, segment_refs](const std::string& path) -> Result<LoadedIndex> {
    segment_refs->clear();  // only the loaded candidate's refs count
    if (IsTieredHead(path)) {
      return LoadTieredHead(path, tier_dir, segment_refs.get());
    }
    return LoadIndex(path);
  };
  Result<store::RecoveredStore> recovered = store::Recover(dir, options);
  if (!recovered.ok()) return recovered;

  // Sweep the tier directory: temp files are torn writes, and segments the
  // loaded head does not reference cannot matter — the recovered index is
  // fully resident and the next checkpoint re-spills whatever it needs.
  std::error_code ec;
  if (fs::is_directory(tier_dir, ec)) {
    for (const auto& entry : fs::directory_iterator(tier_dir, ec)) {
      const std::string name = entry.path().filename().string();
      uint64_t id = 0;
      if (ParseSegmentFileName(name, &id)) {
        if (segment_refs->count(name) == 0) fs::remove(entry.path(), ec);
      } else if ((name.size() > 4 &&
                  name.compare(name.size() - 4, 4, ".tmp") == 0) ||
                 (name.size() > 5 &&
                  name.compare(name.size() - 5, 5, ".swap") == 0)) {
        fs::remove(entry.path(), ec);
      }
    }
  }
  return recovered;
}

}  // namespace anc::tier
