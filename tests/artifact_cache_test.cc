// End-to-end warm-start contract: a cache_dir checkpointed by one
// QueryContext warms the next one (index_recovered, zero builds, the
// same bits), and every corruption mode — truncation, flipped bytes,
// foreign substrate, unsupported format versions, interrupted-checkpoint
// leftovers — degrades to a counted rejection plus rebuild, never an
// error a caller sees.
#include "persist/artifact_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "persist/snapshot.h"
#include "wgraph/substrate.h"

namespace rwdom {
namespace {

namespace fs = std::filesystem;

GraphSubstrate StarSubstrate() {
  auto loaded = ParseSubstrate("0 1\n0 2\n0 3\n0 4\n4 5\n");
  RWDOM_CHECK(loaded.ok());
  return std::move(loaded->substrate);
}

GraphSubstrate PathSubstrate() {
  auto loaded = ParseSubstrate("0 1\n1 2\n2 3\n3 4\n4 5\n");
  RWDOM_CHECK(loaded.ok());
  return std::move(loaded->substrate);
}

// A fresh, empty cache directory per test case.
std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ArtifactCacheTest, CheckpointThenRecoverServesWithoutRebuilding) {
  const std::string dir = FreshDir("rwdom_cache_warm");
  ArtifactKey key;
  {
    // Cold run: build two indexes, checkpoint both in the background.
    QueryContext cold(StarSubstrate());
    ArtifactCache cache(dir);
    auto empty = cache.RecoverInto(cold);
    ASSERT_TRUE(empty.ok()) << empty.status();
    EXPECT_EQ(*empty, 0);
    cache.AttachCheckpointHook(cold);
    key = cold.MakeKey(3, 20, 42);
    cold.GetIndex(key);
    cold.GetIndex(cold.MakeKey(4, 20, 42));
    cache.Flush();
    EXPECT_EQ(cold.index_builds(), 2);
    EXPECT_EQ(cold.persistence().checkpoints_written, 2);
  }
  auto files = ListSnapshotFiles(dir);
  ASSERT_TRUE(files.ok()) << files.status();
  ASSERT_EQ(files->size(), 2u);

  // Warm run: both snapshots adopted at boot, GetIndex is a pure hit.
  QueryContext warm(StarSubstrate());
  ArtifactCache cache(dir);
  auto recovered = cache.RecoverInto(warm);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(*recovered, 2);
  EXPECT_EQ(warm.index_recovered(), 2);

  auto index = *warm.GetIndex(key);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(warm.index_builds(), 0);
  EXPECT_EQ(warm.index_hits(), 1);

  // The adopted index carries the same bits a rebuild would produce.
  QueryContext rebuilt(StarSubstrate());
  auto fresh = *rebuilt.GetIndex(key);
  ASSERT_EQ(index->TotalEntries(), fresh->TotalEntries());
  for (int32_t i = 0; i < index->num_replicates(); ++i) {
    for (NodeId v = 0; v < index->num_nodes(); ++v) {
      auto a = index->DecodeList(i, v);
      auto b = fresh->DecodeList(i, v);
      ASSERT_EQ(a.size(), b.size());
      for (size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].id, b[j].id);
        EXPECT_EQ(a[j].weight, b[j].weight);
      }
    }
  }
}

TEST(ArtifactCacheTest, ForeignSubstrateSnapshotsAreRejectedNotAdopted) {
  const std::string dir = FreshDir("rwdom_cache_foreign");
  {
    QueryContext star(StarSubstrate());
    ArtifactCache cache(dir);
    ASSERT_TRUE(cache.RecoverInto(star).ok());
    cache.AttachCheckpointHook(star);
    star.GetIndex(star.MakeKey(3, 20, 42));
    cache.Flush();
  }

  // Same params, different graph: the fingerprint must not match.
  QueryContext path_graph(PathSubstrate());
  ArtifactCache cache(dir);
  auto recovered = cache.RecoverInto(path_graph);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(*recovered, 0);
  const PersistenceInfo info = path_graph.persistence();
  EXPECT_EQ(info.snapshots_rejected, 1);
  ASSERT_EQ(info.rejections.size(), 1u);
  EXPECT_NE(info.rejections[0].find("fingerprint mismatch"),
            std::string::npos)
      << info.rejections[0];

  // The engine just rebuilds — a stale cache is a perf event, not an
  // error.
  EXPECT_NE(*path_graph.GetIndex(path_graph.MakeKey(3, 20, 42)), nullptr);
  EXPECT_EQ(path_graph.index_builds(), 1);
}

TEST(ArtifactCacheTest, CorruptTruncatedAndTempFilesAllDegradeToRebuild) {
  const std::string dir = FreshDir("rwdom_cache_corrupt");
  std::string snapshot_path;
  {
    QueryContext cold(StarSubstrate());
    ArtifactCache cache(dir);
    ASSERT_TRUE(cache.RecoverInto(cold).ok());
    cache.AttachCheckpointHook(cold);
    cold.GetIndex(cold.MakeKey(3, 20, 42));
    cache.Flush();
    snapshot_path = cache.SnapshotPath(cold.MakeKey(3, 20, 42));
  }
  ASSERT_TRUE(fs::exists(snapshot_path));

  // Flip one payload byte: the section checksum catches it.
  std::string bytes = ReadBytes(snapshot_path);
  {
    std::string mutated = bytes;
    mutated[mutated.size() - 5] ^= 0x40;
    std::ofstream out(snapshot_path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(),
              static_cast<std::streamsize>(mutated.size()));
  }
  // Truncated copy and a crash-mid-checkpoint ".tmp" leftover alongside.
  {
    std::ofstream out(dir + "/idx-L9-R9-s9-0000000000000000.rwidx",
                      std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  {
    std::ofstream out(snapshot_path + ".tmp", std::ios::binary);
    out << "partial checkpoint";
  }

  QueryContext warm(StarSubstrate());
  ArtifactCache cache(dir);
  auto recovered = cache.RecoverInto(warm);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(*recovered, 0);
  const PersistenceInfo info = warm.persistence();
  EXPECT_EQ(info.snapshots_rejected, 3);
  ASSERT_EQ(info.rejections.size(), 3u);
  // The tmp leftover was swept off disk, not just skipped.
  EXPECT_FALSE(fs::exists(snapshot_path + ".tmp"));

  // Every rejection names its reason for server_stats.
  bool saw_checksum = false;
  bool saw_truncated = false;
  bool saw_tmp = false;
  for (const std::string& reason : info.rejections) {
    saw_checksum |= reason.find("checksum") != std::string::npos;
    saw_truncated |= reason.find("truncated") != std::string::npos;
    saw_tmp |= reason.find("interrupted checkpoint") != std::string::npos;
  }
  EXPECT_TRUE(saw_checksum);
  EXPECT_TRUE(saw_truncated);
  EXPECT_TRUE(saw_tmp);

  // And the engine still answers by rebuilding.
  EXPECT_NE(*warm.GetIndex(warm.MakeKey(3, 20, 42)), nullptr);
  EXPECT_EQ(warm.index_builds(), 1);
}

TEST(ArtifactCacheTest, LegacyV1AndV2SnapshotsAreRejectedAndRebuilt) {
  const std::string dir = FreshDir("rwdom_cache_legacy");
  ArtifactCache cache(dir);
  ASSERT_TRUE(cache.EnsureDir().ok());
  // Earlier releases' formats: only the version field matters, so each
  // file is the magic, its version and a zeroed header body.
  for (uint32_t version : {1u, 2u}) {
    std::ofstream out(dir + "/idx-v" + std::to_string(version) + ".rwidx",
                      std::ios::binary);
    out.write("RWDX", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::string body(40, '\0');
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }
  QueryContext context(StarSubstrate());
  auto recovered = cache.RecoverInto(context);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(*recovered, 0);
  const PersistenceInfo info = context.persistence();
  EXPECT_EQ(info.snapshots_rejected, 2);
  ASSERT_EQ(info.rejections.size(), 2u);
  EXPECT_NE(info.rejections[0].find("unsupported snapshot version 1"),
            std::string::npos)
      << info.rejections[0];
  EXPECT_NE(info.rejections[1].find("unsupported snapshot version 2"),
            std::string::npos)
      << info.rejections[1];

  // A rejected file costs warmth, never an answer: the engine rebuilds.
  EXPECT_NE(*context.GetIndex(context.MakeKey(3, 20, 42)), nullptr);
  EXPECT_EQ(context.index_builds(), 1);
}

TEST(ArtifactCacheTest, AdoptIndexRefusesForeignFingerprints) {
  QueryContext context(StarSubstrate());
  auto index = *context.GetIndex(context.MakeKey(3, 20, 42));
  ASSERT_NE(index, nullptr);

  ArtifactKey foreign = context.MakeKey(5, 20, 42);
  foreign.substrate_fingerprint ^= 1;
  EXPECT_FALSE(context.AdoptIndex(foreign, index));

  // Adoption never displaces a resident index either.
  EXPECT_FALSE(context.AdoptIndex(context.MakeKey(3, 20, 42), index));
  EXPECT_TRUE(context.AdoptIndex(context.MakeKey(5, 20, 42), index));
  EXPECT_EQ(context.index_recovered(), 1);
}

}  // namespace
}  // namespace rwdom
