// Fuzz target: the ANCTHD01 tiered checkpoint head loader
// (tier::LoadTieredHead) and the TIERMANIFEST reader
// (tier::ReadTierManifest) — the two tier formats recovery parses off disk.
//
// The head's page references are resolved against a tier directory that
// holds the same sealed segment make_corpus's tier/ seed points into
// (fuzz/tier_seed.h), so a well-formed head loads all the way through
// AncIndex::FromSnapshot and mutations explore the reference checks
// (segment name, offset, length, page CRC) as well as the frame and the
// sections around them.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "fuzz_scratch.h"
#include "tier/head.h"
#include "tier/tiered_store.h"
#include "tier_seed.h"

namespace {

std::string SeedTierDir() {
  const std::string dir = anc::fuzz::ScratchPath("tier");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  const anc::Graph graph = anc::fuzz::SeedGraph();
  auto index = anc::AncIndex::Create(graph, anc::AncConfig{});
  anc::fuzz::TierSeed seed;
  if (index.ok()) (void)anc::fuzz::WriteTierSeed(*index.value(), dir, &seed);
  std::atexit([] {
    std::error_code cleanup;
    std::filesystem::remove_all(anc::fuzz::ScratchPath("tier"), cleanup);
  });
  return dir;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::string tier_dir = SeedTierDir();

  // Surface 1: the head loader, references resolved against the seed tier.
  static const std::string head_path = anc::fuzz::ScratchPath("thd");
  if (anc::fuzz::WriteInput(head_path, data, size)) {
    std::set<std::string> refs;
    (void)anc::tier::LoadTieredHead(head_path, tier_dir, &refs);
  }

  // Surface 2: the tier manifest reader over a directory whose
  // TIERMANIFEST is the fuzz input.
  static const std::string manifest_dir = anc::fuzz::ScratchPath("tmn");
  std::error_code ec;
  std::filesystem::create_directories(manifest_dir, ec);
  if (!ec &&
      anc::fuzz::WriteInput(manifest_dir + "/TIERMANIFEST", data, size)) {
    (void)anc::tier::ReadTierManifest(manifest_dir);
  }

  std::filesystem::remove(head_path, ec);
  std::filesystem::remove_all(manifest_dir, ec);
  return 0;
}
