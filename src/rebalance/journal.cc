#include "rebalance/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/atomic_file.h"
#include "util/framed_record.h"

namespace anc::rebalance {

namespace fs = std::filesystem;

namespace {

constexpr const char* kJournalName = "migration.journal";
constexpr const char* kSidecarPrefix = "migrate-";
constexpr const char* kImportArchivePrefix = "import-";

constexpr FrameFormat kJournalFrame{
    std::string_view(kJournalMagic, sizeof(kJournalMagic)), 4,
    kMaxJournalPayloadBytes};

}  // namespace

void EncodeJournal(const MigrationJournal& journal, std::string* out) {
  const size_t begin = BeginFrame(out, kJournalFrame);
  PutPod(out, journal.id);
  PutPod(out, journal.from);
  PutPod(out, journal.to);
  PutPod(out, journal.s_a);
  PutPod(out, journal.s_b);
  PutPod(out, journal.g0);
  PutU8(out, static_cast<uint8_t>(journal.phase));
  PutU32(out, static_cast<uint32_t>(journal.moving.size()));
  for (const NodeId node : journal.moving) PutPod(out, node);
  EndFrame(out, kJournalFrame, begin);
}

Result<MigrationJournal> DecodeJournal(const uint8_t* data, size_t size) {
  std::string_view payload;
  const Status framed = DecodeFrame(
      kJournalFrame, std::string_view(reinterpret_cast<const char*>(data), size),
      &payload);
  if (!framed.ok()) return Status::InvalidArgument("journal: " + framed.message());

  MigrationJournal journal;
  ByteReader in(payload);
  uint8_t phase = 0;
  uint32_t count = 0;
  if (!in.Read(&journal.id, &journal.from, &journal.to, &journal.s_a,
               &journal.s_b, &journal.g0, &phase, &count)
           .ok()) {
    return Status::InvalidArgument("journal: truncated payload");
  }
  if (phase > static_cast<uint8_t>(MigrationPhase::kCommitted)) {
    return Status::InvalidArgument("journal: unknown phase");
  }
  journal.phase = static_cast<MigrationPhase>(phase);
  if (size_t{count} * sizeof(NodeId) != in.remaining()) {
    return Status::InvalidArgument("journal: inconsistent vertex count");
  }
  journal.moving.resize(count);
  for (NodeId& node : journal.moving) (void)in.Read(&node);  // sized above
  return journal;
}

std::string JournalPath(const std::string& dir) {
  return (fs::path(dir) / kJournalName).string();
}

std::string SidecarPath(const std::string& dir, uint64_t id, int stage) {
  return (fs::path(dir) / (std::string(kSidecarPrefix) + std::to_string(id) +
                           "." + std::to_string(stage) + ".wal"))
      .string();
}

Status WriteJournal(const std::string& dir, const MigrationJournal& journal) {
  std::string image;
  EncodeJournal(journal, &image);
  const std::string path = JournalPath(dir);
  return AtomicReplace(path, path + ".tmp", image);
}

Result<MigrationJournal> ReadJournal(const std::string& dir) {
  const std::string path = JournalPath(dir);
  std::string image;
  if (!ReadFile(path, &image).ok()) return Status::NotFound("no " + path);
  Result<MigrationJournal> journal = DecodeJournal(
      reinterpret_cast<const uint8_t*>(image.data()), image.size());
  if (!journal.ok()) {
    return Status::IoError(path + ": " + journal.status().message());
  }
  return journal;
}

std::string ImportArchivePath(const std::string& shard_dir, uint64_t id,
                              int stage) {
  return (fs::path(shard_dir) /
          (std::string(kImportArchivePrefix) + std::to_string(id) + "." +
           std::to_string(stage) + ".wal"))
      .string();
}

std::vector<std::string> ListImportArchives(const std::string& shard_dir) {
  std::vector<std::pair<std::pair<uint64_t, int>, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(shard_dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t id = 0;
    int stage = 0;
    if (std::sscanf(name.c_str(), "import-%20" SCNu64 ".%d.wal", &id,
                    &stage) == 2 &&
        name == std::string(kImportArchivePrefix) + std::to_string(id) + "." +
                    std::to_string(stage) + ".wal") {
      found.push_back({{id, stage}, entry.path().string()});
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> archives;
  archives.reserve(found.size());
  for (auto& [key, path] : found) archives.push_back(std::move(path));
  return archives;
}

std::vector<std::string> ListMigrationArtifacts(const std::string& dir) {
  std::vector<std::string> artifacts;
  const std::string journal = JournalPath(dir);
  std::error_code ec;
  if (fs::exists(journal, ec)) artifacts.push_back(journal);
  if (fs::exists(journal + ".tmp", ec)) artifacts.push_back(journal + ".tmp");
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSidecarPrefix, 0) == 0) {
      artifacts.push_back(entry.path().string());
    }
  }
  return artifacts;
}

}  // namespace anc::rebalance
