#include "persist/artifact_cache.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "persist/snapshot.h"
#include "service/graph_registry.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rwdom {
namespace {

namespace fs = std::filesystem;

constexpr const char kTempSuffix[] = ".tmp";

bool EndsWith(const std::string& text, const char* suffix) {
  const std::string_view s(suffix);
  return text.size() >= s.size() &&
         std::string_view(text).substr(text.size() - s.size()) == s;
}

}  // namespace

Result<std::vector<std::string>> ListSnapshotFiles(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    if (!fs::exists(dir)) return names;  // No directory, nothing cached.
    return Status::IoError("cannot list cache dir " + dir + ": " +
                           ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (EndsWith(name, kSnapshotExtension)) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<CacheTreeEntry>> ListSnapshotTree(const std::string& dir) {
  std::vector<CacheTreeEntry> entries;
  RWDOM_ASSIGN_OR_RETURN(std::vector<std::string> root,
                         ListSnapshotFiles(dir));
  for (std::string& name : root) {
    entries.push_back({kDefaultGraphName, std::move(name)});
  }
  std::vector<std::string> graphs;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (!ec) {
    for (const fs::directory_entry& entry : it) {
      if (!entry.is_directory(ec)) continue;
      const std::string name = entry.path().filename().string();
      // The default tenant is flat at the root by construction, so a
      // "default" subdirectory cannot be one of ours; skip it rather
      // than listing two tenants under one name.
      if (!IsValidGraphName(name) || name == kDefaultGraphName) continue;
      graphs.push_back(name);
    }
  }
  std::sort(graphs.begin(), graphs.end());
  for (const std::string& graph : graphs) {
    RWDOM_ASSIGN_OR_RETURN(
        std::vector<std::string> files,
        ListSnapshotFiles((fs::path(dir) / graph).string()));
    for (std::string& file : files) {
      entries.push_back({graph, std::move(file)});
    }
  }
  return entries;
}

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {}

ArtifactCache::~ArtifactCache() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  if (writer_.joinable()) writer_.join();
}

std::string ArtifactCache::SnapshotPath(const ArtifactKey& key) const {
  return (fs::path(dir_) / (key.FileStem() + kSnapshotExtension)).string();
}

Status ArtifactCache::EnsureDir() const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create cache dir " + dir_ + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<int64_t> ArtifactCache::RecoverInto(QueryContext& context) {
  context.set_cache_dir(dir_);
  RWDOM_RETURN_IF_ERROR(EnsureDir());

  // Sweep interrupted checkpoints first: a "*.rwidx.tmp" is by
  // definition unpublished (Save renames on success), so it is deleted,
  // not trusted — but its presence is worth surfacing.
  std::vector<std::string> temps;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (EndsWith(name, kSnapshotExtension) || !EndsWith(name, kTempSuffix)) {
      continue;
    }
    std::string stem = name.substr(0, name.size() - (sizeof(kTempSuffix) - 1));
    if (!EndsWith(stem, kSnapshotExtension)) continue;
    temps.push_back(name);
  }
  std::sort(temps.begin(), temps.end());
  for (const std::string& name : temps) {
    fs::remove(fs::path(dir_) / name, ec);
    context.RecordSnapshotRejected(
        name + ": interrupted checkpoint temp file (removed)");
    RWDOM_LOG(INFO) << "cache: swept interrupted checkpoint " << name;
  }

  RWDOM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         ListSnapshotFiles(dir_));
  int64_t adopted = 0;
  for (const std::string& name : names) {
    const std::string path = (fs::path(dir_) / name).string();
    Result<LoadedSnapshot> snapshot = WalkIndexSerializer::Load(path);
    if (!snapshot.ok()) {
      context.RecordSnapshotRejected(name + ": " +
                                     snapshot.status().message());
      RWDOM_LOG(INFO) << "cache: rejected " << name << ": "
                      << snapshot.status().message();
      continue;
    }
    const ArtifactKey& key = snapshot->key;
    if (key.substrate_fingerprint != context.substrate_fingerprint()) {
      context.RecordSnapshotRejected(
          name + ": substrate fingerprint mismatch (snapshot " +
          key.CanonicalString() + ")");
      RWDOM_LOG(INFO) << "cache: rejected " << name
                      << ": substrate fingerprint mismatch";
      continue;
    }
    if (snapshot->index.num_nodes() != context.substrate().num_nodes()) {
      // Unreachable while the fingerprint covers num_nodes; kept as a
      // cheap last line against a colliding digest.
      context.RecordSnapshotRejected(name + ": node count mismatch");
      continue;
    }
    auto index = std::make_shared<const InvertedWalkIndex>(
        std::move(snapshot->index));
    if (context.AdoptIndex(key, std::move(index))) {
      context.RecordSnapshotRecovered();
      ++adopted;
      RWDOM_LOG(INFO) << "cache: recovered " << key.CanonicalString()
                      << " from " << name;
    }
  }
  return adopted;
}

void ArtifactCache::AttachCheckpointHook(QueryContext& context) {
  context_ = &context;
  context.set_cache_dir(dir_);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!writer_.joinable()) {
      writer_ = std::thread([this] { WriterLoop(); });
    }
  }
  context.set_index_build_hook(
      [this](const ArtifactKey& key,
             const std::shared_ptr<const InvertedWalkIndex>& index) {
        {
          std::unique_lock<std::mutex> lock(mutex_);
          queue_.emplace_back(key, index);
        }
        work_ready_.notify_one();
      });
}

void ArtifactCache::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && !writing_; });
}

Status ArtifactCache::WriteSnapshot(const ArtifactKey& key,
                                    const InvertedWalkIndex& index) const {
  RWDOM_RETURN_IF_ERROR(EnsureDir());
  return WalkIndexSerializer::Save(index, key, SnapshotPath(key));
}

void ArtifactCache::WriterLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_ready_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
    // Drain-before-exit: shutdown publishes what was already queued so a
    // short-lived batch run still leaves its snapshots behind.
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    auto [key, index] = std::move(queue_.front());
    queue_.pop_front();
    writing_ = true;
    lock.unlock();
    const Status status = WriteSnapshot(key, *index);
    if (status.ok()) {
      if (context_ != nullptr) context_->RecordCheckpointWritten();
      RWDOM_LOG(INFO) << "cache: checkpointed " << key.CanonicalString();
    } else {
      // A failed checkpoint is a degraded-but-alive condition: serving
      // continues from memory, the next build retries, and the failure
      // is counted where server_stats can surface it.
      if (context_ != nullptr) {
        context_->RecordCheckpointFailed("checkpoint " +
                                         key.CanonicalString() + ": " +
                                         status.message());
      }
      RWDOM_LOG(WARNING) << "cache: checkpoint failed for "
                         << key.CanonicalString() << ": "
                         << status.message();
    }
    lock.lock();
    writing_ = false;
    if (queue_.empty()) idle_.notify_all();
  }
}

}  // namespace rwdom
