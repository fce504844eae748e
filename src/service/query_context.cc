#include "service/query_context.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "graph/clustering.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/strings.h"
#include "walk/walk_source.h"

namespace rwdom {

QueryContext::QueryContext(LoadedSubstrate loaded)
    : loaded_(std::move(loaded)),
      substrate_fingerprint_(SubstrateFingerprint(loaded_.substrate)),
      budget_(std::make_shared<CacheBudget>()) {
  budget_->AddPeer(this);
}

QueryContext::QueryContext(GraphSubstrate substrate)
    : loaded_{std::move(substrate), {}},
      substrate_fingerprint_(SubstrateFingerprint(loaded_.substrate)),
      budget_(std::make_shared<CacheBudget>()) {
  budget_->AddPeer(this);
}

QueryContext::~QueryContext() { budget_->RemovePeer(this); }

void QueryContext::set_budget(std::shared_ptr<CacheBudget> budget) {
  RWDOM_CHECK(budget != nullptr);
  budget_->RemovePeer(this);
  budget_ = std::move(budget);
  budget_->AddPeer(this);
}

int64_t QueryContext::EstimatedIndexBytes(const ArtifactKey& key) const {
  const int64_t n = substrate().num_nodes();
  // Two u32 offset arrays per replicate, plus at most n*L postings, each
  // at most the varint length of the largest encodable value (delta = n,
  // weight = L) — an upper bound on any real compressed replicate.
  const int32_t weight_bits = PostingWeightBits(key.length);
  const uint64_t vmax =
      (static_cast<uint64_t>(n) << weight_bits) |
      ((weight_bits > 0 ? (1ull << weight_bits) : 1ull) - 1ull);
  const int64_t offsets = 2 * (n + 1) * static_cast<int64_t>(sizeof(uint32_t));
  const int64_t postings =
      n * key.length * static_cast<int64_t>(Varint64Length(vmax));
  return key.num_samples * (offsets + postings);
}

int64_t QueryContext::CachedBytesLocked() const {
  int64_t total = 0;
  for (const auto& [_, entry] : index_cache_) {
    total += entry.index->MemoryUsageBytes();
  }
  return total;
}

int64_t QueryContext::CachedIndexBytes() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return CachedBytesLocked();
}

std::optional<QueryContext::LruEntryRef> QueryContext::OldestCachedEntry(
    const ArtifactKey* protect) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::optional<LruEntryRef> oldest;
  for (const auto& [key, entry] : index_cache_) {
    if (protect != nullptr && key == *protect) continue;
    const uint64_t use = entry.last_use.load();
    if (!oldest.has_value() || use < oldest->last_use) {
      oldest = LruEntryRef{key, use};
    }
  }
  return oldest;
}

bool QueryContext::EvictCachedEntry(const ArtifactKey& key,
                                    const uint64_t* expected_use) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = index_cache_.find(key);
  if (it == index_cache_.end()) return false;
  if (expected_use != nullptr && it->second.last_use.load() != *expected_use) {
    return false;  // Touched since the scan; the budget rescans.
  }
  index_cache_.erase(it);
  ++index_evictions_;
  return true;
}

Result<std::shared_ptr<const InvertedWalkIndex>> QueryContext::GetIndex(
    const ArtifactKey& key) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = index_cache_.find(key);
    if (it != index_cache_.end()) {
      ++index_hits_;
      it->second.last_use.store(budget_->NextTick());
      return it->second.index;
    }
  }
  // Cache miss: coalesce concurrent misses on the same key into one
  // build (waiters block on the leader and share its outcome — including
  // a failure), with the build itself running unlocked so distinct keys
  // build in parallel. The build is a pure function of the key (which
  // names the substrate by fingerprint), which is what makes warm — and
  // concurrent — results bit-identical to cold ones.
  bool led_flight = false;  // The producer runs only on the leader.
  auto outcome = index_flights_.Do(key, [&]() {
    led_flight = true;
    auto result = std::make_shared<BuildOutcome>();
    {
      // A flight for this key may have completed and retired between the
      // lookup above and becoming leader here; re-check before building.
      std::shared_lock<std::shared_mutex> lock(mutex_);
      auto it = index_cache_.find(key);
      if (it != index_cache_.end()) {
        result->index = it->second.index;
        return std::shared_ptr<const BuildOutcome>(result);
      }
    }
    result->status = FaultPoint("index.build");
    if (!result->status.ok()) {
      return std::shared_ptr<const BuildOutcome>(result);
    }
    const int64_t budget = budget_->max_bytes();
    if (budget > 0) {
      const int64_t estimate = EstimatedIndexBytes(key);
      if (estimate > budget) {
        // Evicting everything — every tenant's everything — still would
        // not make room; refuse before allocating, instead of OOM-ing
        // mid-build.
        ++admission_rejections_;
        std::string message = StrFormat(
            "index(L=%d,R=%d) needs ~%lld bytes but --max_cache_bytes=%lld",
            key.length, key.num_samples,
            static_cast<long long>(estimate), static_cast<long long>(budget));
        if (!graph_name_.empty()) {
          message += StrFormat(" (graph \"%s\")", graph_name_.c_str());
        }
        result->status = Status::ResourceExhausted(std::move(message));
        return std::shared_ptr<const BuildOutcome>(result);
      }
      // Make room fleet-wide before allocating (no context lock held).
      budget_->TrimToFit(estimate, /*protect_owner=*/nullptr,
                         /*protect_key=*/nullptr);
    }
    result->built = true;
    TransitionWalkSource source(&substrate().model(), key.seed);
    auto fresh = std::make_shared<const InvertedWalkIndex>(
        InvertedWalkIndex::Build(key.length, key.num_samples, &source));
    ++index_builds_;
    if (index_build_hook_) index_build_hook_(key, fresh);
    {
      std::unique_lock<std::shared_mutex> lock(mutex_);
      index_cache_.try_emplace(key, fresh, budget_->NextTick());
    }
    // Concurrent admissions may have raced past the same headroom;
    // re-trim with real sizes, never evicting what we just inserted.
    if (budget > 0) budget_->TrimToFit(0, this, &key);
    result->index = std::move(fresh);
    return std::shared_ptr<const BuildOutcome>(result);
  });
  if (!outcome->status.ok()) return outcome->status;
  // Every successful call that did not itself build — fast-path lookups
  // above, flight waiters (even on a flight whose leader built), and
  // leaders whose re-check found the index — was served from the cache,
  // so hits + builds == successful GetIndex calls (deterministic,
  // however the timing fell out). `outcome->built` alone cannot decide
  // this: waiters share the leader's outcome, so a waiter on a building
  // flight would otherwise count as neither.
  if (!(led_flight && outcome->built)) ++index_hits_;
  return outcome->index;
}

bool QueryContext::AdoptIndex(const ArtifactKey& key,
                              std::shared_ptr<const InvertedWalkIndex> index) {
  if (index == nullptr) return false;
  // A snapshot built over a different substrate would serve wrong
  // answers bit-for-bit confidently; the fingerprint is the guard.
  if (key.substrate_fingerprint != substrate_fingerprint_) return false;
  const int64_t budget = budget_->max_bytes();
  if (budget > 0 && index->MemoryUsageBytes() > budget) return false;
  bool adopted = false;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    adopted = index_cache_
                  .try_emplace(key, std::move(index), budget_->NextTick())
                  .second;
  }
  if (adopted) {
    ++index_recovered_;
    if (budget > 0) budget_->TrimToFit(0, this, &key);
  }
  return adopted;
}

std::vector<std::pair<ArtifactKey, std::shared_ptr<const InvertedWalkIndex>>>
QueryContext::CachedIndexes() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::pair<ArtifactKey, std::shared_ptr<const InvertedWalkIndex>>>
      entries;
  entries.reserve(index_cache_.size());
  for (const auto& [key, entry] : index_cache_) {
    entries.emplace_back(key, entry.index);
  }
  return entries;
}

void QueryContext::EvictIndexes() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  index_cache_.clear();
}

const SubstrateStats& QueryContext::Stats() {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (stats_.has_value()) return *stats_;
  }

  SubstrateStats stats;
  stats.weighted = substrate().weighted();
  stats.kind = substrate().kind();
  stats.graph_bytes = substrate().MemoryUsageBytes();
  stats.num_links = substrate().num_links();
  if (!stats.weighted) {
    const Graph& graph = *substrate().graph();
    stats.graph_stats = ComputeGraphStats(graph);
    stats.triangles = CountTriangles(graph);
    stats.avg_clustering = AverageClusteringCoefficient(graph);
    stats.transitivity = GlobalClusteringCoefficient(graph);
    stats.num_nodes = graph.num_nodes();
  } else {
    const WeightedGraph& graph = *substrate().weighted_graph();
    stats.num_nodes = graph.num_nodes();
    stats.num_arcs = graph.num_arcs();
    stats.max_out_degree = graph.max_out_degree();
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      if (graph.out_degree(u) == 0) ++stats.sinks;
      stats.total_arc_weight += graph.total_out_weight(u);
    }
    stats.avg_out_degree =
        graph.num_nodes() > 0
            ? static_cast<double>(graph.num_arcs()) /
                  static_cast<double>(graph.num_nodes())
            : 0.0;
  }
  // The summary is a pure function of the immutable substrate, so a
  // racing second computation produced identical values; keep the first
  // (the optional is never reset, so returned references stay valid).
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (!stats_.has_value()) stats_ = std::move(stats);
  return *stats_;
}

int64_t QueryContext::MetricMemoEntryBytes(const MetricMemoKey& key) {
  return static_cast<int64_t>(sizeof(MetricMemo::value_type) +
                              key.seeds.size() * sizeof(NodeId));
}

MetricsResult QueryContext::MemoizedSampledMetrics(
    const std::vector<NodeId>& seeds, int32_t length, int32_t num_samples,
    uint64_t seed) {
  MetricMemoKey key{length, num_samples, seed, seeds};
  std::sort(key.seeds.begin(), key.seeds.end());
  key.seeds.erase(std::unique(key.seeds.begin(), key.seeds.end()),
                  key.seeds.end());
  {
    std::lock_guard<std::mutex> lock(metric_memo_mutex_);
    auto it = metric_memo_.find(key);
    if (it != metric_memo_.end()) {
      ++metric_memo_hits_;
      return it->second;
    }
  }
  ++metric_memo_misses_;
  const MetricsResult metrics =
      SampledMetrics(substrate().model(), seeds, length, num_samples, seed);
  const int64_t bytes = MetricMemoEntryBytes(key);
  if (bytes > kMetricMemoMaxBytes) return metrics;
  std::lock_guard<std::mutex> lock(metric_memo_mutex_);
  auto [it, inserted] = metric_memo_.try_emplace(std::move(key), metrics);
  if (inserted) {
    metric_memo_order_.push_back(it);
    metric_memo_bytes_ += bytes;
    // The new entry fits the cap on its own, so this stops before it.
    while (metric_memo_bytes_ > kMetricMemoMaxBytes) {
      const MetricMemo::iterator oldest = metric_memo_order_.front();
      metric_memo_order_.pop_front();
      metric_memo_bytes_ -= MetricMemoEntryBytes(oldest->first);
      metric_memo_.erase(oldest);
    }
  }
  return metrics;
}

int64_t QueryContext::metric_memo_bytes() const {
  std::lock_guard<std::mutex> lock(metric_memo_mutex_);
  return metric_memo_bytes_;
}

std::vector<ArtifactUsage> QueryContext::MemoryUsage() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<ArtifactUsage> usage;
  usage.push_back({"graph", substrate().MemoryUsageBytes()});
  for (const auto& [key, entry] : index_cache_) {
    usage.push_back(
        {StrFormat("index(L=%d,R=%d,seed=%llu)", key.length, key.num_samples,
                   static_cast<unsigned long long>(key.seed)),
         entry.index->MemoryUsageBytes()});
  }
  return usage;
}

int64_t QueryContext::TotalMemoryBytes() const {
  int64_t total = 0;
  for (const ArtifactUsage& artifact : MemoryUsage()) {
    total += artifact.bytes;
  }
  return total;
}

PersistenceInfo QueryContext::persistence() const {
  std::lock_guard<std::mutex> lock(persist_mutex_);
  return persistence_;
}

void QueryContext::set_cache_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(persist_mutex_);
  persistence_.cache_dir = std::move(dir);
}

void QueryContext::RecordSnapshotRecovered() {
  std::lock_guard<std::mutex> lock(persist_mutex_);
  ++persistence_.snapshots_recovered;
}

void QueryContext::RecordSnapshotRejected(std::string reason) {
  std::lock_guard<std::mutex> lock(persist_mutex_);
  ++persistence_.snapshots_rejected;
  persistence_.rejections.push_back(std::move(reason));
}

void QueryContext::RecordCheckpointWritten() {
  std::lock_guard<std::mutex> lock(persist_mutex_);
  ++persistence_.checkpoints_written;
}

void QueryContext::RecordCheckpointFailed(std::string reason) {
  std::lock_guard<std::mutex> lock(persist_mutex_);
  ++persistence_.checkpoint_failures;
  persistence_.rejections.push_back(std::move(reason));
}

}  // namespace rwdom
