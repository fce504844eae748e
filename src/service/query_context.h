// QueryContext: the warm, reusable query engine at the heart of the
// service layer.
//
// The paper's value proposition is that one expensive artifact — the
// sampled-walk index — is built once and then answers many queries
// cheaply. QueryContext is where that amortization lives: it owns one
// loaded GraphSubstrate (graph storage + transition model + alias tables)
// plus every derived artifact, each memoized under an explicit cache key,
// so repeated queries reuse instead of rebuild:
//
//   artifact             cache key             built on first...
//   ------------------   -------------------   ----------------------------
//   transition model /   (substrate identity)  construction (owned by the
//   alias tables                               substrate itself)
//   inverted walk index  ArtifactKey           select / cover / stats
//                        (L, R, seed,          --with_index / knn sampled*
//                         substrate fp)
//   stats summary        (substrate identity)  stats
//   select metric memo   (L, R, metric seed,   select (its post-hoc R=500
//                         sorted seed set)      metric pass)
//
//   *sampled knn draws fresh walks rather than reading the index; only
//    the index-backed commands hit the index cache.
//
// Determinism contract: a cached index is a pure function of its key
// (InvertedWalkIndex::Build over TransitionWalkSource(model, seed), and
// the key names the substrate by content fingerprint), so serving a query
// from the cache — including an index recovered from a disk snapshot
// (persist/artifact_cache.h) — is bit-identical to a cold rebuild; the
// batch determinism tests and ServerTest.CliServeWarmStartsFromCacheDir
// pin this. The `problem` (F1/F2) is deliberately NOT part of the key:
// the index stores first-hit hop numbers, which Problem 1 consumes and
// Problem 2 ignores, so both problems share one build (paper §3.3).
//
// CLI → service → core call chain: cli/cmd_*.cc parses flags into a
// typed request (service/requests.h), acquires a QueryContext (fresh for
// one-shot commands, shared for `rwdom batch` and `rwdom serve`), and
// hands both to service/engine.h, which runs the core algorithms.
#ifndef RWDOM_SERVICE_QUERY_CONTEXT_H_
#define RWDOM_SERVICE_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "graph/properties.h"
#include "index/inverted_walk_index.h"
#include "service/artifact_key.h"
#include "service/cache_budget.h"
#include "util/single_flight.h"
#include "util/status.h"
#include "wgraph/substrate.h"

namespace rwdom {

/// Byte-accounting row for one cached artifact (see
/// QueryContext::MemoryUsage).
struct ArtifactUsage {
  std::string name;  ///< e.g. "graph", "index(L=6,R=100,seed=42)".
  int64_t bytes = 0;
};

/// Memoized structural summary of the substrate (the `stats` command's
/// numbers). Unweighted substrates fill the graph_* block; weighted ones
/// the arc block.
struct SubstrateStats {
  bool weighted = false;
  std::string kind;  ///< "uniform", "weighted" or "weighted-directed".
  // Unweighted block.
  GraphStats graph_stats;
  int64_t triangles = 0;
  double avg_clustering = 0.0;
  double transitivity = 0.0;
  // Weighted block.
  NodeId num_nodes = 0;
  int64_t num_arcs = 0;
  double avg_out_degree = 0.0;
  int32_t max_out_degree = 0;
  NodeId sinks = 0;
  double total_arc_weight = 0.0;
  // Both.
  int64_t graph_bytes = 0;
  int64_t num_links = 0;
};

/// Persistence-side bookkeeping the server_stats endpoint and the serve
/// summary report. Populated by persist/artifact_cache.h; all zeros when
/// no --cache_dir is attached.
struct PersistenceInfo {
  std::string cache_dir;            ///< Empty when persistence is off.
  int64_t snapshots_recovered = 0;  ///< Adopted at boot.
  int64_t snapshots_rejected = 0;   ///< Stale/corrupt/truncated at boot.
  int64_t checkpoints_written = 0;  ///< Background checkpoints published.
  int64_t checkpoint_failures = 0;  ///< Write/rename failures (no publish).
  /// Human-readable reason per rejected snapshot, in discovery order
  /// (e.g. "idx-...rwidx: substrate fingerprint mismatch").
  std::vector<std::string> rejections;
};

/// One warm engine over one loaded substrate. Construct once, dispatch
/// many requests (service/engine.h); every expensive artifact is built at
/// most once per cache key.
///
/// Thread safety: all query-path methods (GetIndex, Stats,
/// MemoizedSampledMetrics, MemoryUsage, TotalMemoryBytes, counters,
/// persistence()) are safe to call from many threads at once — the
/// server's workers share one context. The artifact map is guarded by a
/// shared_mutex and cache misses coalesce through a single-flight group:
/// N concurrent misses on one key trigger exactly one build, with the
/// other N-1 callers blocking on it, so concurrent responses stay
/// bit-identical to cold serial runs. Distinct keys build
/// concurrently. set_index_build_hook and EvictIndexes are control-plane
/// calls; the hook itself may fire concurrently (once per distinct
/// in-flight key) and must be thread-safe. Not movable, not copyable.
class QueryContext {
 public:
  explicit QueryContext(LoadedSubstrate loaded);
  explicit QueryContext(GraphSubstrate substrate);
  ~QueryContext();

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  const GraphSubstrate& substrate() const { return loaded_.substrate; }

  /// Content fingerprint of the loaded substrate (computed once at
  /// construction) — the `substrate` component of every key this context
  /// mints, and the staleness guard snapshot recovery checks against.
  uint64_t substrate_fingerprint() const { return substrate_fingerprint_; }

  /// The canonical key for an index with these build parameters over
  /// *this* substrate. All internal key construction goes through here so
  /// the fingerprint can never be forgotten or mismatched.
  ArtifactKey MakeKey(int32_t length, int32_t num_samples,
                      uint64_t seed) const {
    return ArtifactKey{length, num_samples, seed, substrate_fingerprint_};
  }

  /// original_ids[dense] = id as it appeared in the input file (empty for
  /// generated/synthesized substrates).
  const std::vector<int64_t>& original_ids() const {
    return loaded_.original_ids;
  }

  /// The inverted walk index for `key`, building and caching it on the
  /// first request. Concurrent callers with the same key share one build
  /// (single flight). The returned pointer stays valid as long as the
  /// caller holds it (shared ownership: selectors keep their index alive
  /// across evictions). `key` should come from MakeKey (a foreign
  /// fingerprint would name an index this substrate cannot build).
  ///
  /// Errors: ResourceExhausted when a memory budget is set and the index
  /// could never fit (see set_max_cache_bytes); IoError when a fault site
  /// fires. A failed call caches nothing — once the condition clears the
  /// next call builds normally.
  Result<std::shared_ptr<const InvertedWalkIndex>> GetIndex(
      const ArtifactKey& key);

  /// Seeds the cache with an already-built index (snapshot recovery).
  /// Refuses keys whose substrate fingerprint is not this substrate's,
  /// and never displaces an existing entry. Returns true iff adopted;
  /// adopted indexes count as index_recovered, not index_builds.
  bool AdoptIndex(const ArtifactKey& key,
                  std::shared_ptr<const InvertedWalkIndex> index);

  /// Number of index builds performed so far — the counting hook the
  /// cache tests use ("a 3-query batch builds the index exactly once").
  int64_t index_builds() const { return index_builds_.load(); }

  /// Number of GetIndex calls served from the cache (no build) — the
  /// hit counter the server's stats endpoint reports.
  int64_t index_hits() const { return index_hits_.load(); }

  /// Number of indexes adopted via AdoptIndex (warm-start recovery).
  int64_t index_recovered() const { return index_recovered_.load(); }

  /// Optional observer invoked (with the key and the freshly built
  /// index) on every actual index build, i.e. on cache misses only —
  /// this is where the persist layer hangs its background checkpointer.
  /// Install before serving begins; the hook may be invoked from several
  /// threads at once (one per distinct in-flight key) and must be
  /// thread-safe. Adopted (recovered) indexes do not fire it.
  using IndexBuildHook = std::function<void(
      const ArtifactKey&, const std::shared_ptr<const InvertedWalkIndex>&)>;
  void set_index_build_hook(IndexBuildHook hook) {
    index_build_hook_ = std::move(hook);
  }

  /// Every cached index, in deterministic key order (the `rwdom cache`
  /// admin surface and checkpoint-on-shutdown walk this).
  std::vector<std::pair<ArtifactKey, std::shared_ptr<const InvertedWalkIndex>>>
  CachedIndexes() const;

  /// Drops all cached indexes (admin surface; existing shared_ptr
  /// holders keep their index alive until they release it).
  void EvictIndexes();

  // --- Memory governance. ---

  /// Caps the bytes of cached indexes (0 = unlimited, the default).
  /// Admission runs before each build: an index that could never fit is
  /// rejected with ResourceExhausted; one that fits evicts
  /// least-recently-used entries until there is room. The cap covers
  /// cached indexes only — the substrate is always resident. The cap
  /// lives on this context's CacheBudget: private by default, shared
  /// fleet-wide when a GraphRegistry rebinds tenants via set_budget (so
  /// "LRU" means oldest across every tenant, not just this one).
  void set_max_cache_bytes(int64_t bytes) { budget_->set_max_bytes(bytes); }
  int64_t max_cache_bytes() const { return budget_->max_bytes(); }

  /// Rebinds this context onto a shared budget (control-plane: call
  /// before serving starts). Cached bytes immediately count against the
  /// new budget; the previous budget forgets this context.
  void set_budget(std::shared_ptr<CacheBudget> budget);
  const std::shared_ptr<CacheBudget>& budget() const { return budget_; }

  /// The tenant name a GraphRegistry assigned (empty for the default
  /// tenant and for bare contexts) — admission errors carry it so a
  /// budget rejection in a multi-graph server names the offender.
  void set_graph_name(std::string name) { graph_name_ = std::move(name); }
  const std::string& graph_name() const { return graph_name_; }

  /// Sum of cached index bytes (the substrate excluded) — what this
  /// context contributes to its budget.
  int64_t CachedIndexBytes() const;

  /// Conservative (upper-bound) size of the index `key` would build:
  /// R * (two u32 offset arrays + n*L postings at worst-case varint
  /// width). Used for admission, deliberately pessimistic — admitting
  /// then OOM-ing is the failure mode to avoid.
  int64_t EstimatedIndexBytes(const ArtifactKey& key) const;

  /// Entries evicted under memory pressure (not via EvictIndexes()).
  int64_t index_evictions() const { return index_evictions_.load(); }

  /// Builds refused because the estimate exceeded the budget outright.
  int64_t admission_rejections() const { return admission_rejections_.load(); }

  /// The memoized structural summary, computing it on first use.
  const SubstrateStats& Stats();

  // --- The select metric memo. ---

  /// Cap on the bytes the select metric memo stores: each entry costs one
  /// key/value pair plus its seed ids, and the oldest entries are evicted
  /// first. An entry larger than the whole cap is never stored.
  static constexpr int64_t kMetricMemoMaxBytes = int64_t{1} << 18;

  /// SampledMetrics(model, seeds, length, num_samples, seed) over this
  /// substrate (eval/metrics.h), memoized. The metrics are a pure function
  /// of (length, num_samples, seed, the set of seeds), so a hit returns
  /// the stored value, bit-identical to recomputing it, without drawing a
  /// walk. A miss computes with no lock held, then inserts; two concurrent
  /// misses on one key both compute the same value and the first insert
  /// wins.
  MetricsResult MemoizedSampledMetrics(const std::vector<NodeId>& seeds,
                                       int32_t length, int32_t num_samples,
                                       uint64_t seed);

  /// MemoizedSampledMetrics calls answered from the memo / computed; their
  /// sum is the number of calls.
  int64_t metric_memo_hits() const { return metric_memo_hits_.load(); }
  int64_t metric_memo_misses() const { return metric_memo_misses_.load(); }

  /// Bytes the memo holds now, as charged against kMetricMemoMaxBytes.
  int64_t metric_memo_bytes() const;

  /// Byte accounting, one row per resident artifact: always "graph",
  /// plus one row per cached index. Rows appear in deterministic (key)
  /// order.
  std::vector<ArtifactUsage> MemoryUsage() const;

  /// Sum of MemoryUsage() rows.
  int64_t TotalMemoryBytes() const;

  // --- Persistence bookkeeping (written by persist/artifact_cache.h). ---

  /// Snapshot of the persistence counters (copied under lock).
  PersistenceInfo persistence() const;

  void set_cache_dir(std::string dir);
  void RecordSnapshotRecovered();
  void RecordSnapshotRejected(std::string reason);
  void RecordCheckpointWritten();
  void RecordCheckpointFailed(std::string reason);

 private:
  friend class CacheBudget;  // Eviction plumbing (OldestCachedEntry etc.).

  /// A cached index plus its LRU stamp. The stamp is atomic so cache
  /// hits (shared lock) can touch it without write-locking the map.
  struct CacheEntry {
    CacheEntry(std::shared_ptr<const InvertedWalkIndex> idx, uint64_t tick)
        : index(std::move(idx)), last_use(tick) {}
    std::shared_ptr<const InvertedWalkIndex> index;
    mutable std::atomic<uint64_t> last_use;
  };

  /// What one single-flight build produced: the index, or why not.
  /// (The flight shares errors with its waiters exactly like values.)
  struct BuildOutcome {
    std::shared_ptr<const InvertedWalkIndex> index;
    Status status;
    bool built = false;
  };

  /// Sum of cached index bytes. Caller holds mutex_ (any mode).
  int64_t CachedBytesLocked() const;

  /// The least-recently-used cached entry (never `protect`), or nullopt
  /// when only protected entries (or none) remain. CacheBudget compares
  /// these across peers to pick the fleet-wide victim.
  struct LruEntryRef {
    ArtifactKey key;
    uint64_t last_use = 0;
  };
  std::optional<LruEntryRef> OldestCachedEntry(
      const ArtifactKey* protect) const;

  /// Evicts `key`, counting it in index_evictions(). With expected_use
  /// set, refuses (returns false) when the entry was touched since the
  /// caller observed that stamp — the budget then rescans rather than
  /// evicting a freshly hot entry.
  bool EvictCachedEntry(const ArtifactKey& key, const uint64_t* expected_use);

  /// A memoized metric pass: everything SampledMetrics reads besides the
  /// substrate, with the seeds as a set (sorted, no repeats).
  struct MetricMemoKey {
    int32_t length = 0;
    int32_t num_samples = 0;
    uint64_t seed = 0;
    std::vector<NodeId> seeds;
    auto operator<=>(const MetricMemoKey&) const = default;
  };
  using MetricMemo = std::map<MetricMemoKey, MetricsResult>;
  /// What one entry charges against kMetricMemoMaxBytes.
  static int64_t MetricMemoEntryBytes(const MetricMemoKey& key);

  LoadedSubstrate loaded_;
  uint64_t substrate_fingerprint_ = 0;
  /// Guards index_cache_ and stats_ (readers shared, writers exclusive).
  /// Never held across an index build — single-flight coalescing means
  /// the build runs unlocked without duplicating work.
  mutable std::shared_mutex mutex_;
  std::map<ArtifactKey, CacheEntry> index_cache_;
  SingleFlightGroup<ArtifactKey, const BuildOutcome> index_flights_;
  std::atomic<int64_t> index_builds_{0};
  std::atomic<int64_t> index_hits_{0};
  std::atomic<int64_t> index_recovered_{0};
  std::atomic<int64_t> index_evictions_{0};
  std::atomic<int64_t> admission_rejections_{0};
  /// Never null: private from construction, shared after set_budget.
  std::shared_ptr<CacheBudget> budget_;
  std::string graph_name_;
  IndexBuildHook index_build_hook_;
  std::optional<SubstrateStats> stats_;
  /// Guards the memo, its insertion order and its byte count. Never held
  /// across a metric pass.
  mutable std::mutex metric_memo_mutex_;
  MetricMemo metric_memo_;
  std::deque<MetricMemo::iterator> metric_memo_order_;  ///< Oldest first.
  int64_t metric_memo_bytes_ = 0;
  std::atomic<int64_t> metric_memo_hits_{0};
  std::atomic<int64_t> metric_memo_misses_{0};
  /// Guards persistence_ (low-traffic control-plane data; separate from
  /// mutex_ so stats reads never contend with the query path).
  mutable std::mutex persist_mutex_;
  PersistenceInfo persistence_;
};

}  // namespace rwdom

#endif  // RWDOM_SERVICE_QUERY_CONTEXT_H_
