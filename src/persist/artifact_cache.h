// ArtifactCache: the warm-start snapshot directory behind `--cache_dir`.
//
// One directory holds one snapshot file per ArtifactKey
// ("<key.FileStem()>.rwidx", format persist/snapshot.h). The cache wires
// into a QueryContext at two points:
//
//   boot   RecoverInto() scans the directory and adopts every snapshot
//          whose substrate fingerprint matches the loaded substrate.
//          Anything else — stale fingerprint, corrupt or truncated file,
//          unsupported format version, leftover ".tmp" from an interrupted
//          checkpoint — is a logged, counted rejection (surfaced in
//          `server_stats`) and the engine simply rebuilds on demand; a
//          bad cache entry is never an error a client can observe.
//   miss   AttachCheckpointHook() registers an index-build observer that
//          queues every freshly built index for a background checkpoint,
//          so serving never waits on disk. The writer publishes
//          atomically (write-temp-then-rename); a crash mid-checkpoint
//          costs at most the checkpoint itself.
//
// Because an adopted index is bit-identical to what a rebuild would
// produce (the key pins substrate + L + R + seed), warm-start changes
// when work happens, never what answers say —
// ServerTest.CliServeWarmStartsFromCacheDir holds the cold and warm
// byte streams equal.
#ifndef RWDOM_PERSIST_ARTIFACT_CACHE_H_
#define RWDOM_PERSIST_ARTIFACT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index/inverted_walk_index.h"
#include "service/artifact_key.h"
#include "service/query_context.h"
#include "util/status.h"

namespace rwdom {

/// Snapshot-file suffix; everything else in the directory is ignored
/// (except "*.rwidx.tmp" leftovers, which recovery sweeps away).
inline constexpr const char kSnapshotExtension[] = ".rwidx";

/// Snapshot files under `dir`, sorted by name (deterministic recovery
/// and `cache ls` order). Missing directory is an empty list, not an
/// error. Does not include ".tmp" leftovers.
Result<std::vector<std::string>> ListSnapshotFiles(const std::string& dir);

/// One snapshot in a tenant-aware cache tree: which graph owns it and
/// its file name relative to that graph's directory.
struct CacheTreeEntry {
  std::string graph;  ///< kDefaultGraphName for root-level snapshots.
  std::string file;
};

/// The multi-graph cache layout: the default tenant's snapshots live
/// flat at the root of `dir` (byte-compatible with every pre-tenancy
/// cache), named tenants under one level of `dir/<graph>/`
/// subdirectories keyed by graph name. Lists the whole tree, default
/// tenant first, then named tenants sorted by name; files sorted within
/// each tenant. Subdirectories that are not valid graph names (or that
/// collide with the reserved default name) are ignored.
Result<std::vector<CacheTreeEntry>> ListSnapshotTree(const std::string& dir);

/// One snapshot directory. Thread-compatible construction; after
/// AttachCheckpointHook the internal queue is what the build hook and
/// the writer thread synchronize on. Destroying the cache drains every
/// queued checkpoint first, so `rwdom batch` exits with its snapshots
/// published. Destroy the cache before the QueryContext it observes.
class ArtifactCache {
 public:
  explicit ArtifactCache(std::string dir);
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  const std::string& dir() const { return dir_; }

  /// Where `key`'s snapshot lives: "<dir>/<key.FileStem()>.rwidx".
  std::string SnapshotPath(const ArtifactKey& key) const;

  /// Creates the directory (and parents) if missing.
  Status EnsureDir() const;

  /// Boot-time recovery: adopts every compatible snapshot into
  /// `context`, recording recoveries and rejections there (see the file
  /// comment for the rejection taxonomy). Returns the number adopted.
  /// Call before serving starts; also records the cache dir on the
  /// context so server_stats can report it.
  Result<int64_t> RecoverInto(QueryContext& context);

  /// Registers the background-checkpoint hook on `context` and starts
  /// the writer thread. Each index built after this point is snapshotted
  /// off the serving path; failures are logged, counted successes land
  /// in context.persistence().checkpoints_written.
  void AttachCheckpointHook(QueryContext& context);

  /// Blocks until every checkpoint queued so far is published (tests and
  /// orderly shutdown).
  void Flush();

  /// Synchronous snapshot write for `key` (the checkpoint worker's body;
  /// also the `select --save_index` sugar when pointed at a cache path).
  Status WriteSnapshot(const ArtifactKey& key,
                       const InvertedWalkIndex& index) const;

 private:
  void WriterLoop();

  std::string dir_;
  QueryContext* context_ = nullptr;  ///< Set by AttachCheckpointHook.

  std::mutex mutex_;  ///< Guards the queue + writer state below.
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::pair<ArtifactKey, std::shared_ptr<const InvertedWalkIndex>>>
      queue_;
  bool writing_ = false;
  bool stopping_ = false;
  std::thread writer_;
};

}  // namespace rwdom

#endif  // RWDOM_PERSIST_ARTIFACT_CACHE_H_
