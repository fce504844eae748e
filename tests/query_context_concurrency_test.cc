// The satellite stress pin for the thread-safe QueryContext: 8 threads
// hammering mixed (L, R, seed) keys build each distinct index exactly
// once (single flight), and concurrent Dispatch responses are
// byte-identical to serial dispatch on a fresh context.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/engine.h"
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

SelectorParams Params(int32_t length, int32_t samples, uint64_t seed) {
  SelectorParams params;
  params.length = length;
  params.num_samples = samples;
  params.seed = seed;
  return params;
}

// Wall-clock timings legitimately differ between runs; everything else
// must be bit-identical.
std::string NormalizeSeconds(std::string text) {
  return std::regex_replace(
      std::move(text), std::regex(R"("seconds":[-+0-9.eE]+)"),
      "\"seconds\":<T>");
}

TEST(QueryContextConcurrencyTest,
     EightThreadsMixedKeysBuildEachIndexExactlyOnce) {
  QueryContext context(StarSubstrate());

  std::mutex hook_mutex;
  std::map<ArtifactKey, int> builds_per_key;
  context.set_index_build_hook(
      [&](const ArtifactKey& key,
          const std::shared_ptr<const InvertedWalkIndex>&) {
        std::lock_guard<std::mutex> lock(hook_mutex);
        ++builds_per_key[key];
      });

  const std::vector<ArtifactKey> keys = {
      context.MakeKey(3, 20, 42), context.MakeKey(4, 20, 42),
      context.MakeKey(3, 30, 42), context.MakeKey(3, 20, 43)};
  const int kThreads = 8;
  const int kItersPerThread = 16;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Every thread touches every key, phase-shifted so first
        // requests collide across threads.
        const ArtifactKey& key = keys[(t + i) % keys.size()];
        auto index = *context.GetIndex(key);
        ASSERT_NE(index, nullptr);
        EXPECT_GT(index->TotalEntries(), 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly one build per distinct key, however many threads collided.
  EXPECT_EQ(context.index_builds(), static_cast<int64_t>(keys.size()));
  ASSERT_EQ(builds_per_key.size(), keys.size());
  for (const auto& [key, count] : builds_per_key) {
    EXPECT_EQ(count, 1) << "L=" << key.length << " R=" << key.num_samples;
  }
  // Hits: every GetIndex beyond the 4 builds was served from the cache.
  EXPECT_EQ(context.index_hits(),
            static_cast<int64_t>(kThreads) * kItersPerThread -
                static_cast<int64_t>(keys.size()));

  // A later request is a pure hit and returns the same index object.
  auto held = *context.GetIndex(keys[0]);
  EXPECT_EQ(held, *context.GetIndex(keys[0]));
  EXPECT_EQ(context.index_builds(), static_cast<int64_t>(keys.size()));
}

TEST(QueryContextConcurrencyTest,
     ConcurrentDispatchIsByteIdenticalToSerialDispatch) {
  // The workload a busy server sees: mixed select / evaluate / knn /
  // cover / stats requests over two index keys, from 8 threads at once.
  std::vector<ServiceRequest> workload;
  for (uint64_t seed : {uint64_t{42}, uint64_t{43}}) {
    workload.push_back(SelectRequest{"ApproxF2", 2, Params(3, 20, seed)});
    workload.push_back(SelectRequest{"ApproxF1", 2, Params(3, 20, seed)});
    workload.push_back(EvaluateRequest{{0, 4}, 3, 100, seed});
    workload.push_back(
        KnnRequest{0, 3, KnnRequest::Mode::kSampled, Params(3, 20, seed)});
    workload.push_back(CoverRequest{0.5, Params(3, 20, seed)});
  }
  workload.push_back(StatsRequest{false, Params(3, 20, 42)});

  // Serial reference: each request on its own cold context.
  std::vector<std::string> expected;
  for (const ServiceRequest& request : workload) {
    QueryContext cold(StarSubstrate());
    auto response = Dispatch(cold, request);
    ASSERT_TRUE(response.ok()) << response.status();
    std::ostringstream out;
    Render(*response, OutputFormat::kJson, out);
    expected.push_back(NormalizeSeconds(out.str()));
  }

  // Concurrent: 8 threads share one warm context, each running the full
  // workload in a different rotation.
  QueryContext warm(StarSubstrate());
  const int kThreads = 8;
  std::vector<std::vector<std::string>> actual(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      actual[t].resize(workload.size());
      for (size_t i = 0; i < workload.size(); ++i) {
        const size_t pick = (i + static_cast<size_t>(t)) % workload.size();
        auto response = Dispatch(warm, workload[pick]);
        ASSERT_TRUE(response.ok()) << response.status();
        std::ostringstream out;
        Render(*response, OutputFormat::kJson, out);
        actual[t][pick] = NormalizeSeconds(out.str());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < workload.size(); ++i) {
      EXPECT_EQ(actual[t][i], expected[i])
          << "thread " << t << " request " << i;
    }
  }
  // Two distinct (L, R, seed) keys -> exactly two builds total.
  EXPECT_EQ(warm.index_builds(), 2);
  // Every select's metric pass was memoized or computed, never both.
  const int64_t selects_dispatched =
      kThreads * std::count_if(workload.begin(), workload.end(),
                               [](const ServiceRequest& request) {
                                 return std::holds_alternative<SelectRequest>(
                                     request);
                               });
  EXPECT_EQ(warm.metric_memo_hits() + warm.metric_memo_misses(),
            selects_dispatched);
}

}  // namespace
}  // namespace rwdom
