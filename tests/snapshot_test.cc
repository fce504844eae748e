// The persist layer's contract: v3 snapshots round-trip bit-exactly
// under their ArtifactKey, and every corruption mode (truncation, flipped
// checksum bytes, bad magic, trailing garbage, any other format version —
// the v1/v2 layouts of earlier releases included) is a kCorruption
// rejection — never a crash or a silently wrong index.
#include "persist/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "graph/generators.h"
#include "index/gain_state.h"
#include "walk/walk_source.h"

namespace rwdom {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

InvertedWalkIndex BuildSampleIndex(uint64_t seed) {
  static const Graph* const kGraph =
      new Graph(GenerateBarabasiAlbert(50, 3, 401).value());
  RandomWalkSource source(kGraph, seed);
  return InvertedWalkIndex::Build(5, 3, &source);
}

// The key a context with this sample substrate would mint: L and R must
// match the index shape (the serializer trusts the key's L for bounds).
ArtifactKey SampleKey(uint64_t seed) {
  return ArtifactKey{5, 3, seed, 0xfeedfacecafef00dull};
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotTest, RoundTripPreservesEveryPostingAndTheKey) {
  InvertedWalkIndex index = BuildSampleIndex(1);
  const ArtifactKey key = SampleKey(1);
  const std::string path = TempPath("rwdom_snapshot_roundtrip.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, key, path).ok());

  auto loaded = WalkIndexSerializer::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->key, key);
  EXPECT_EQ(loaded->key.CanonicalString(), key.CanonicalString());
  EXPECT_EQ(loaded->index.num_nodes(), index.num_nodes());
  EXPECT_EQ(loaded->index.length(), index.length());
  EXPECT_EQ(loaded->index.num_replicates(), index.num_replicates());
  EXPECT_EQ(loaded->index.TotalEntries(), index.TotalEntries());
  for (int32_t i = 0; i < index.num_replicates(); ++i) {
    for (NodeId v = 0; v < index.num_nodes(); ++v) {
      auto a = index.DecodeList(i, v);
      auto b = loaded->index.DecodeList(i, v);
      ASSERT_EQ(a.size(), b.size()) << i << " " << v;
      for (size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].id, b[j].id);
        EXPECT_EQ(a[j].weight, b[j].weight);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveIsByteDeterministic) {
  InvertedWalkIndex index = BuildSampleIndex(6);
  const std::string a = TempPath("rwdom_snapshot_det_a.rwidx");
  const std::string b = TempPath("rwdom_snapshot_det_b.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(6), a).ok());
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(6), b).ok());
  EXPECT_EQ(ReadBytes(a), ReadBytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SnapshotTest, LoadedIndexDrivesIdenticalGreedy) {
  InvertedWalkIndex index = BuildSampleIndex(2);
  const std::string path = TempPath("rwdom_snapshot_greedy.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(2), path).ok());
  auto loaded = WalkIndexSerializer::Load(path);
  ASSERT_TRUE(loaded.ok());

  GainState original(&index, Problem::kHittingTime);
  GainState reloaded(&loaded->index, Problem::kHittingTime);
  for (NodeId u = 0; u < index.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(original.ApproxGain(u), reloaded.ApproxGain(u));
  }
  original.Commit(7);
  reloaded.Commit(7);
  EXPECT_DOUBLE_EQ(original.EstimatedObjective(),
                   reloaded.EstimatedObjective());
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileFails) {
  auto result = WalkIndexSerializer::Load("/nonexistent/never/index.rwidx");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, BadMagicRejected) {
  const std::string path = TempPath("rwdom_snapshot_badmagic.rwidx");
  WriteBytes(path, "NOPE garbage");
  auto result = WalkIndexSerializer::Load(path);
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncationRejected) {
  InvertedWalkIndex index = BuildSampleIndex(3);
  const std::string path = TempPath("rwdom_snapshot_truncated.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(3), path).ok());
  const std::string bytes = ReadBytes(path);
  WriteBytes(path, bytes.substr(0, bytes.size() * 6 / 10));
  auto result = WalkIndexSerializer::Load(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FlippedPayloadByteFailsTheBlockChecksum) {
  InvertedWalkIndex index = BuildSampleIndex(4);
  const std::string path = TempPath("rwdom_snapshot_payload_flip.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(4), path).ok());
  std::string bytes = ReadBytes(path);
  bytes[bytes.size() - 5] ^= 0x40;  // Inside the last posting block.
  WriteBytes(path, bytes);
  auto result = WalkIndexSerializer::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("block"), std::string::npos)
      << result.status();
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos)
      << result.status();
  std::remove(path.c_str());
}

TEST(SnapshotTest, FlippedOffsetByteFailsTheOffsetsChecksum) {
  InvertedWalkIndex index = BuildSampleIndex(4);
  const std::string path = TempPath("rwdom_snapshot_offsets_flip.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(4), path).ok());
  std::string bytes = ReadBytes(path);
  // First replicate's entry_offsets start right after the 48-byte header
  // and the 24-byte section preamble.
  bytes[48 + 24 + 2] ^= 0x20;
  WriteBytes(path, bytes);
  auto result = WalkIndexSerializer::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("offsets checksum"),
            std::string::npos)
      << result.status();
  std::remove(path.c_str());
}

TEST(SnapshotTest, FlippedHeaderByteFailsTheHeaderChecksum) {
  InvertedWalkIndex index = BuildSampleIndex(4);
  const std::string path = TempPath("rwdom_snapshot_header_flip.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(4), path).ok());
  std::string bytes = ReadBytes(path);
  bytes[20] ^= 0x01;  // Inside the checksummed header body [16, 48).
  WriteBytes(path, bytes);
  auto result = WalkIndexSerializer::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("header checksum"),
            std::string::npos)
      << result.status();
  std::remove(path.c_str());
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  InvertedWalkIndex index = BuildSampleIndex(5);
  const std::string path = TempPath("rwdom_snapshot_trailing.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(5), path).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra";
  }
  auto result = WalkIndexSerializer::Load(path);
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ForeignVersionRejectedWithItsNumber) {
  // Versions 1 and 2 are earlier releases' layouts; 99 is from nowhere.
  // Each file carries 40 zero bytes where a v3 header would follow: the
  // version alone must reject it, from Load and from both Inspect modes.
  for (uint32_t version : {1u, 2u, 99u}) {
    const std::string path = TempPath("rwdom_snapshot_foreign.rwidx");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write("RWDX", 4);
      out.write(reinterpret_cast<const char*>(&version), sizeof(version));
      const std::string header(40, '\0');
      out.write(header.data(), static_cast<std::streamsize>(header.size()));
    }
    const std::string expected =
        "unsupported snapshot version " + std::to_string(version);
    auto loaded = WalkIndexSerializer::Load(path);
    ASSERT_FALSE(loaded.ok()) << "version=" << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find(expected), std::string::npos)
        << loaded.status();
    for (bool verify : {false, true}) {
      auto meta = WalkIndexSerializer::Inspect(path, verify);
      ASSERT_FALSE(meta.ok())
          << "version=" << version << " verify=" << verify;
      EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
      EXPECT_NE(meta.status().message().find(expected), std::string::npos)
          << meta.status();
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, InspectReportsShapeCheaplyAndVerifiesDeeply) {
  InvertedWalkIndex index = BuildSampleIndex(7);
  const ArtifactKey key = SampleKey(7);
  const std::string path = TempPath("rwdom_snapshot_inspect.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, key, path).ok());

  for (bool verify : {false, true}) {
    auto meta = WalkIndexSerializer::Inspect(path, verify);
    ASSERT_TRUE(meta.ok()) << meta.status();
    EXPECT_EQ(meta->version, 3u);
    EXPECT_EQ(meta->key, key);
    EXPECT_EQ(meta->num_nodes, index.num_nodes());
    EXPECT_EQ(meta->length, index.length());
    EXPECT_EQ(meta->num_replicates, index.num_replicates());
    EXPECT_EQ(meta->total_entries, index.TotalEntries());
    EXPECT_GT(meta->file_bytes, 48);
  }

  // A payload flip passes the cheap skim but fails the deep verify.
  std::string bytes = ReadBytes(path);
  bytes[bytes.size() - 5] ^= 0x40;
  WriteBytes(path, bytes);
  EXPECT_TRUE(WalkIndexSerializer::Inspect(path, false).ok());
  auto deep = WalkIndexSerializer::Inspect(path, true);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SkimRejectsATruncatedFinalReplicate) {
  // The cheap skim seeks past each replicate body rather than reading
  // it; a cut inside the last one must still surface as corruption.
  InvertedWalkIndex index = BuildSampleIndex(9);
  const std::string path = TempPath("rwdom_snapshot_skim_cut.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(9), path).ok());
  const std::string bytes = ReadBytes(path);
  for (size_t cut : {size_t{1}, size_t{100}}) {
    WriteBytes(path, bytes.substr(0, bytes.size() - cut));
    for (bool verify : {false, true}) {
      auto meta = WalkIndexSerializer::Inspect(path, verify);
      ASSERT_FALSE(meta.ok()) << "cut=" << cut << " verify=" << verify;
      EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveLeavesNoTempFileBehind) {
  InvertedWalkIndex index = BuildSampleIndex(8);
  const std::string path = TempPath("rwdom_snapshot_atomic.rwidx");
  ASSERT_TRUE(WalkIndexSerializer::Save(index, SampleKey(8), path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "temp file must be renamed away";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rwdom
