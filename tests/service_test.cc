#include "service/engine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>

#include "core/selector_registry.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "persist/snapshot.h"
#include "service/query_context.h"
#include "service/render.h"
#include "wgraph/substrate.h"

namespace rwdom {
namespace {

GraphSubstrate StarSubstrate() {
  auto loaded = ParseSubstrate("0 1\n0 2\n0 3\n0 4\n4 5\n");
  RWDOM_CHECK(loaded.ok());
  return std::move(loaded->substrate);
}

GraphSubstrate WeightedDirectedSubstrate() {
  SubstrateOptions options;
  options.directed = true;
  auto loaded = ParseSubstrate(
      "0 1 1.0\n1 0 8.0\n2 0 8.0\n3 0 8.0\n4 0 8.0\n0 2 1.0\n", options);
  RWDOM_CHECK(loaded.ok());
  return std::move(loaded->substrate);
}

SelectorParams Params(int32_t length, int32_t samples, uint64_t seed) {
  SelectorParams params;
  params.length = length;
  params.num_samples = samples;
  params.seed = seed;
  return params;
}

TEST(QueryContextTest, ThreeQueryBatchBuildsIndexExactlyOnce) {
  QueryContext context(StarSubstrate());
  int hook_calls = 0;
  context.set_index_build_hook(
      [&hook_calls](const ArtifactKey&,
                    const std::shared_ptr<const InvertedWalkIndex>&) {
        ++hook_calls;
      });

  // select + stats(with_index) + cover on the same (L, R, seed): the
  // index-backed trio of a warm batch.
  SelectRequest select{"ApproxF2", 2, Params(3, 20, 42)};
  ASSERT_TRUE(Select(context, select).ok());
  StatsRequest stats{true, Params(3, 20, 42)};
  ASSERT_TRUE(Stats(context, stats).ok());
  CoverRequest cover{0.5, Params(3, 20, 42)};
  ASSERT_TRUE(Cover(context, cover).ok());

  EXPECT_EQ(context.index_builds(), 1);
  EXPECT_EQ(hook_calls, 1);
}

TEST(QueryContextTest, ChangingAnyKeyComponentInvalidatesTheMemo) {
  QueryContext context(StarSubstrate());
  context.GetIndex(context.MakeKey(3, 20, 42));
  EXPECT_EQ(context.index_builds(), 1);
  context.GetIndex(context.MakeKey(3, 20, 42));  // Hit.
  EXPECT_EQ(context.index_builds(), 1);
  context.GetIndex(context.MakeKey(4, 20, 42));  // L changed.
  EXPECT_EQ(context.index_builds(), 2);
  context.GetIndex(context.MakeKey(3, 30, 42));  // R changed.
  EXPECT_EQ(context.index_builds(), 3);
  context.GetIndex(context.MakeKey(3, 20, 43));  // seed changed.
  EXPECT_EQ(context.index_builds(), 4);
  // All four keys stay resident; re-requesting any of them is a hit.
  context.GetIndex(context.MakeKey(4, 20, 42));
  context.GetIndex(context.MakeKey(3, 20, 43));
  EXPECT_EQ(context.index_builds(), 4);
}

TEST(QueryContextTest, EvictIndexesDropsTheCache) {
  QueryContext context(StarSubstrate());
  auto held = *context.GetIndex(context.MakeKey(3, 20, 42));
  EXPECT_EQ(context.MemoryUsage().size(), 2u);  // graph + 1 index.
  context.EvictIndexes();
  EXPECT_EQ(context.MemoryUsage().size(), 1u);
  // Shared ownership keeps a held index alive across eviction.
  EXPECT_GT(held->TotalEntries(), 0);
  context.GetIndex(context.MakeKey(3, 20, 42));
  EXPECT_EQ(context.index_builds(), 2);
}

TEST(QueryContextTest, MemoryUsageAccountsEveryArtifact) {
  QueryContext context(StarSubstrate());
  context.GetIndex(context.MakeKey(3, 20, 42));
  context.GetIndex(context.MakeKey(4, 20, 42));
  auto usage = context.MemoryUsage();
  ASSERT_EQ(usage.size(), 3u);
  EXPECT_EQ(usage[0].name, "graph");
  EXPECT_GT(usage[0].bytes, 0);
  EXPECT_EQ(usage[1].name, "index(L=3,R=20,seed=42)");
  EXPECT_EQ(usage[2].name, "index(L=4,R=20,seed=42)");
  int64_t total = 0;
  for (const auto& artifact : usage) {
    EXPECT_GT(artifact.bytes, 0) << artifact.name;
    total += artifact.bytes;
  }
  EXPECT_EQ(total, context.TotalMemoryBytes());
}

TEST(QueryContextTest, AdmissionEstimateBoundsBuiltAndReloadedIndexes) {
  // --max_cache_bytes refuses a build whose EstimatedIndexBytes exceeds
  // the budget, so the estimate must never undershoot a real index —
  // freshly built or reloaded from a snapshot.
  // The pid keeps this case and the service_test_suite alias, which
  // `ctest -j` runs at the same time, off each other's file.
  const std::string path = testing::TempDir() + "/rwdom_admission_bound_" +
                           std::to_string(::getpid()) + ".rwidx";
  for (NodeId n : {2, 5, 40, 300, 1500}) {
    const int64_t m = std::min<int64_t>(3 * n, int64_t{n} * (n - 1) / 2);
    const Graph graph = GenerateErdosRenyiGnm(n, m, 7).value();
    for (int kind = 0; kind < 3; ++kind) {
      const bool directed = kind == 2;
      QueryContext context(
          kind == 0 ? GraphSubstrate(graph)
                    : GraphSubstrate(AttachRandomWeights(graph, 11, directed),
                                     directed));
      for (int32_t length : {1, 2, 6, 17}) {
        for (int32_t samples : {1, 5}) {
          const ArtifactKey key = context.MakeKey(length, samples, 42);
          const std::string where = context.substrate().kind() +
                                    " n=" + std::to_string(n) + " " +
                                    key.CanonicalString();
          auto index = *context.GetIndex(key);
          const int64_t estimate = context.EstimatedIndexBytes(key);
          EXPECT_GE(estimate, index->MemoryUsageBytes()) << where;
          ASSERT_TRUE(WalkIndexSerializer::Save(*index, key, path).ok());
          auto reloaded = WalkIndexSerializer::Load(path);
          ASSERT_TRUE(reloaded.ok()) << reloaded.status();
          EXPECT_GE(estimate, reloaded->index.MemoryUsageBytes()) << where;
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(QueryContextTest, StatsAreMemoized) {
  QueryContext context(StarSubstrate());
  const SubstrateStats& first = context.Stats();
  EXPECT_EQ(first.graph_stats.num_nodes, 6);
  EXPECT_EQ(first.graph_stats.num_edges, 5);
  EXPECT_EQ(&context.Stats(), &first);  // Same object, not recomputed.
}

TEST(QueryContextTest, MetricMemoStaysUnderItsByteCap) {
  const Graph cycle = GenerateCycle(256);
  QueryContext context{GraphSubstrate(cycle)};
  std::vector<NodeId> seeds(200);
  std::iota(seeds.begin(), seeds.end(), 0);
  const MetricsResult first = context.MemoizedSampledMetrics(seeds, 3, 1, 0);
  const int64_t entry_bytes = context.metric_memo_bytes();
  ASSERT_GT(entry_bytes, 0);
  // One entry past what fits: the oldest (metric seed 0) is evicted.
  const int64_t fits = QueryContext::kMetricMemoMaxBytes / entry_bytes;
  for (int64_t seed = 1; seed <= fits; ++seed) {
    context.MemoizedSampledMetrics(seeds, 3, 1, static_cast<uint64_t>(seed));
    ASSERT_LE(context.metric_memo_bytes(), QueryContext::kMetricMemoMaxBytes);
  }
  EXPECT_EQ(context.metric_memo_bytes(), fits * entry_bytes);
  EXPECT_EQ(context.metric_memo_hits(), 0);
  EXPECT_EQ(context.metric_memo_misses(), fits + 1);

  // The evicted key is recomputed, to the identical value.
  const MetricsResult again = context.MemoizedSampledMetrics(seeds, 3, 1, 0);
  EXPECT_EQ(context.metric_memo_misses(), fits + 2);
  EXPECT_EQ(again.aht, first.aht);
  EXPECT_EQ(again.ehn, first.ehn);
  // The key is the seed set: another order of the newest set is a hit.
  std::reverse(seeds.begin(), seeds.end());
  context.MemoizedSampledMetrics(seeds, 3, 1, static_cast<uint64_t>(fits));
  EXPECT_EQ(context.metric_memo_hits(), 1);

  // A seed set larger than the whole cap is computed but never stored.
  const Graph big_cycle =
      GenerateCycle(static_cast<NodeId>(QueryContext::kMetricMemoMaxBytes /
                                        static_cast<int64_t>(sizeof(NodeId))));
  QueryContext big{GraphSubstrate(big_cycle)};
  std::vector<NodeId> every_node(static_cast<size_t>(big_cycle.num_nodes()));
  std::iota(every_node.begin(), every_node.end(), 0);
  big.MemoizedSampledMetrics(every_node, 3, 1, 0);
  big.MemoizedSampledMetrics(every_node, 3, 1, 0);
  EXPECT_EQ(big.metric_memo_bytes(), 0);
  EXPECT_EQ(big.metric_memo_misses(), 2);
}

TEST(ServiceEngineTest, WarmSelectIsBitIdenticalToColdSelect) {
  for (bool weighted : {false, true}) {
    GraphSubstrate cold_substrate =
        weighted ? WeightedDirectedSubstrate() : StarSubstrate();
    SelectorParams params = Params(3, 40, 7);
    // Cold: plain selector, self-built index.
    auto selector =
        MakeSelector("ApproxF2", &cold_substrate.model(), params);
    ASSERT_TRUE(selector.ok());
    SelectionResult cold = (*selector)->Select(2);

    // Warm: engine select twice on one context; second call is a pure
    // cache hit.
    QueryContext context(weighted ? WeightedDirectedSubstrate()
                                  : StarSubstrate());
    SelectRequest request{"ApproxF2", 2, params};
    auto first = Select(context, request);
    auto second = Select(context, request);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(context.index_builds(), 1);
    EXPECT_EQ(first->seeds, cold.selected);
    EXPECT_EQ(second->seeds, cold.selected);
    EXPECT_EQ(first->gains, cold.gains);
    // The second select's metric pass is one memo hit, and the memoized
    // metrics equal a direct run of the R=500 protocol.
    EXPECT_EQ(context.metric_memo_hits(), 1);
    EXPECT_EQ(context.metric_memo_misses(), 1);
    const MetricsResult direct = SampledMetrics(
        cold_substrate.model(), cold.selected, params.length, 500,
        params.seed + 1);
    EXPECT_EQ(first->aht, direct.aht);
    EXPECT_EQ(first->ehn, direct.ehn);
    EXPECT_EQ(second->aht, direct.aht);
    EXPECT_EQ(second->ehn, direct.ehn);
  }
}

TEST(ServiceEngineTest, EvaluateMatchesSampledMetricsExactly) {
  QueryContext context(StarSubstrate());
  EvaluateRequest request;
  request.seeds = {0, 4};
  request.length = 3;
  request.num_samples = 200;
  request.seed = 11;
  auto response = Evaluate(context, request);
  ASSERT_TRUE(response.ok());
  MetricsResult direct =
      SampledMetrics(context.substrate().model(), {0, 4}, 3, 200, 11);
  EXPECT_EQ(response->aht, direct.aht);
  EXPECT_EQ(response->ehn, direct.ehn);
  EXPECT_EQ(response->k, 2);

  EvaluateResponse on_model =
      EvaluateOnModel(context.substrate().model(), request);
  EXPECT_EQ(on_model.aht, direct.aht);
  EXPECT_EQ(on_model.ehn, direct.ehn);
}

TEST(ServiceEngineTest, ValidatesRequests) {
  QueryContext context(StarSubstrate());
  EvaluateRequest bad_seed;
  bad_seed.seeds = {99};
  EXPECT_EQ(Evaluate(context, bad_seed).status().code(),
            StatusCode::kOutOfRange);

  EvaluateRequest repeated_seed;
  repeated_seed.seeds = {1, 2, 1};
  const Status repeated = Evaluate(context, repeated_seed).status();
  EXPECT_EQ(repeated.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(repeated.message().find("seed 1 repeated"), std::string::npos)
      << repeated;

  KnnRequest bad_query;
  bad_query.query = -1;
  EXPECT_EQ(Knn(context, bad_query).status().code(),
            StatusCode::kOutOfRange);

  CoverRequest bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_EQ(Cover(context, bad_alpha).status().code(),
            StatusCode::kInvalidArgument);
  // NaN compares false both ways, so it must not slip past the range check.
  bad_alpha.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Cover(context, bad_alpha).status().code(),
            StatusCode::kInvalidArgument);

  SelectRequest bad_algorithm;
  bad_algorithm.algorithm = "Quantum";
  EXPECT_EQ(Select(context, bad_algorithm).status().code(),
            StatusCode::kNotFound);
}

TEST(ServiceEngineTest, DispatchRunsEveryAlternative) {
  QueryContext context(StarSubstrate());
  SelectorParams params = Params(3, 20, 42);
  std::vector<ServiceRequest> requests = {
      SelectRequest{"Degree", 1, params},
      EvaluateRequest{{0}, 3, 100, 42},
      KnnRequest{0, 2, KnnRequest::Mode::kExact, params},
      CoverRequest{0.5, params},
      StatsRequest{false, params},
  };
  for (size_t i = 0; i < requests.size(); ++i) {
    auto response = Dispatch(context, requests[i]);
    ASSERT_TRUE(response.ok()) << i << ": " << response.status();
    EXPECT_EQ(response->index(), i);  // Alternative i maps to response i.
    // Every response renders in both formats without dying.
    std::ostringstream text;
    Render(*response, OutputFormat::kText, text);
    EXPECT_FALSE(text.str().empty());
    std::ostringstream json;
    Render(*response, OutputFormat::kJson, json);
    EXPECT_EQ(json.str().front(), '{');
  }
}

TEST(ServiceEngineTest, KnnExactAndSampledModes) {
  QueryContext context(StarSubstrate());
  SelectorParams params = Params(4, 50, 42);
  KnnRequest exact{0, 3, KnnRequest::Mode::kExact, params};
  auto exact_response = Knn(context, exact);
  ASSERT_TRUE(exact_response.ok());
  EXPECT_EQ(exact_response->mode, "exact");
  ASSERT_EQ(exact_response->neighbors.size(), 3u);
  // Direct leaves reach the hub in one forced hop.
  EXPECT_DOUBLE_EQ(exact_response->neighbors[0].hitting_time, 1.0);

  KnnRequest sampled{0, 3, KnnRequest::Mode::kSampled, params};
  auto sampled_response = Knn(context, sampled);
  ASSERT_TRUE(sampled_response.ok());
  EXPECT_EQ(sampled_response->mode, "sampled");
  EXPECT_EQ(sampled_response->neighbors.size(), 3u);
}

}  // namespace
}  // namespace rwdom
