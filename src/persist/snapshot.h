// On-disk snapshots of the inverted walk index — the persist layer's
// serializer, and the only one: `select --save_index`, the `--cache_dir`
// warm-start cache and `rwdom cache` all read and write this format.
//
// Building the index is the dominant cost of Algorithm 6 on large
// graphs, and the index is a pure function of its ArtifactKey
// (substrate fingerprint, L, R, seed) — persisting it lets a restarted
// server answer its first query without re-materializing a single walk.
//
// Format v3 (little-endian, fixed-width) stores the index's compressed
// posting layout verbatim — delta + varint streams under two u32 offset
// arrays per replicate (index/postings_codec.h) — so snapshots shrink
// with the in-memory index and loads skip recompression:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic "RWDX"
//        4     4  u32 format version (3)
//        8     8  u64 header checksum: FNV-1a over bytes [16, 48)
//       16     4  i32 key.length (L)
//       20     4  i32 key.num_samples (R)
//       24     8  u64 key.seed
//       32     8  u64 key.substrate_fingerprint
//       40     4  i32 num_nodes
//       44     4  i32 num_replicates
//   then per replicate (num_replicates times):
//       +0     8  u64 entry_count
//       +8     8  u64 data_bytes (compressed posting stream length)
//      +16     8  u64 offsets checksum: FNV-1a over the two offset arrays
//      +24        u32 entry_offsets[num_nodes + 1]  (postings before v)
//       ...        u32 byte_offsets[num_nodes + 1]  (stream position of v)
//   then the posting stream in 64 KiB blocks, each independently
//   checksummed (a flipped byte pinpoints one block, and `rwdom cache
//   verify` streams block-at-a-time):
//       +0     8  u64 block checksum: FNV-1a over the block's bytes
//       +8        u8 block[min(65536, remaining data_bytes)]
//
// Loads fully validate structure before adoption: offset monotonicity,
// per-list checked varint decode (ascending in-range ids, in-range
// weights, exact byte consumption) — a rejected file is never partially
// adopted.
//
// Version 3 is the only format read. Any other version is a Corruption
// naming the version; the artifact cache logs it as a rejection and
// rebuilds the index on demand.
//
// Atomic publish rule: Save writes to `path + ".tmp"` and renames into
// place, so a crash mid-checkpoint leaves at worst a stale temp file —
// never a torn snapshot under the published name.
#ifndef RWDOM_PERSIST_SNAPSHOT_H_
#define RWDOM_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "index/inverted_walk_index.h"
#include "service/artifact_key.h"
#include "util/status.h"

namespace rwdom {

/// A snapshot read back from disk: the index plus the identity it was
/// saved under.
struct LoadedSnapshot {
  InvertedWalkIndex index;
  ArtifactKey key;
};

/// Header-level description of a snapshot file, for `rwdom cache ls` and
/// `verify` — everything except the postings themselves.
struct SnapshotMeta {
  uint32_t version = 0;
  ArtifactKey key;
  NodeId num_nodes = 0;
  int32_t length = 0;
  int32_t num_replicates = 0;
  int64_t total_entries = 0;
  int64_t file_bytes = 0;
};

/// Stateless save/load for InvertedWalkIndex snapshots.
class WalkIndexSerializer {
 public:
  /// Writes `index` under identity `key` to `path` in format v3, via
  /// write-temp-then-atomic-rename (see the publish rule above).
  static Status Save(const InvertedWalkIndex& index, const ArtifactKey& key,
                     const std::string& path);

  /// Loads a snapshot written by Save. Validates magic, version,
  /// checksums and structural invariants (monotone offsets, in-range
  /// ids/weights, exact varint consumption); returns Corruption on any
  /// mismatch — a rejected file is never partially adopted.
  static Result<LoadedSnapshot> Load(const std::string& path);

  /// Reads the header and skims the replicate preambles, checking that
  /// the file is long enough to hold every body they declare. With
  /// `verify` set, also streams the body to recompute every per-block
  /// checksum — the `rwdom cache verify` deep check.
  static Result<SnapshotMeta> Inspect(const std::string& path, bool verify);
};

}  // namespace rwdom

#endif  // RWDOM_PERSIST_SNAPSHOT_H_
