// The operational-hardening matrix: every fault site armed in turn
// against the layer it guards, plus the memory-budget, deadline, shed
// and retry behaviours those faults exercise. The throughline is the
// determinism contract under failure — a fault produces a *typed* error
// and a counted degradation, never a crash, never torn state, and once
// the fault clears the engine serves byte-identical answers again.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/query_line.h"
#include "persist/artifact_cache.h"
#include "persist/snapshot.h"
#include "server/client.h"
#include "server/server.h"
#include "service/graph_registry.h"
#include "service/query_context.h"
#include "util/clock.h"
#include "util/fault.h"
#include "wgraph/substrate.h"

namespace rwdom {
namespace {

namespace fs = std::filesystem;

GraphSubstrate StarSubstrate() {
  auto loaded = ParseSubstrate("0 1\n0 2\n0 3\n0 4\n4 5\n");
  RWDOM_CHECK(loaded.ok());
  return std::move(loaded->substrate);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string NormalizeSeconds(std::string text) {
  return std::regex_replace(
      std::move(text), std::regex(R"("seconds":[-+0-9.eE]+)"),
      "\"seconds\":<T>");
}

// Faults are process-global by design; tests must not leak schedules.
class FaultInjectionTest : public testing::Test {
 protected:
  void SetUp() override { ClearFaults(); }
  void TearDown() override { ClearFaults(); }
};

// --- index.build: the query path degrades to a typed error and heals. ---

TEST_F(FaultInjectionTest, IndexBuildFaultIsATypedErrorAndTheNextCallHeals) {
  ASSERT_TRUE(ArmFaultsFromSpec("index.build:1").ok());
  QueryContext context(StarSubstrate());
  const ArtifactKey key = context.MakeKey(3, 20, 42);

  auto failed = context.GetIndex(key);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("injected fault at index.build"),
            std::string::npos)
      << failed.status();
  // The failure cached nothing and counted nothing as a build.
  EXPECT_EQ(context.index_builds(), 0);
  EXPECT_TRUE(context.CachedIndexes().empty());

  // The one-shot fault is spent: the same key now builds normally, and
  // the result matches an unfaulted context bit for bit.
  auto healed = context.GetIndex(key);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(context.index_builds(), 1);

  QueryContext pristine(StarSubstrate());
  auto reference = *pristine.GetIndex(key);
  ASSERT_EQ((*healed)->TotalEntries(), reference->TotalEntries());
  for (int32_t r = 0; r < reference->num_replicates(); ++r) {
    for (NodeId v = 0; v < reference->num_nodes(); ++v) {
      auto a = (*healed)->DecodeList(r, v);
      auto b = reference->DecodeList(r, v);
      ASSERT_EQ(a.size(), b.size());
      for (size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].id, b[j].id);
        EXPECT_EQ(a[j].weight, b[j].weight);
      }
    }
  }
}

// --- Memory budget: admission control and LRU eviction. ---

TEST_F(FaultInjectionTest, OversizedIndexIsRefusedWithResourceExhausted) {
  QueryContext context(StarSubstrate());
  context.set_max_cache_bytes(100);  // Far below any real index.
  auto refused = context.GetIndex(context.MakeKey(3, 20, 42));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status();
  EXPECT_NE(refused.status().message().find("--max_cache_bytes"),
            std::string::npos)
      << refused.status();
  EXPECT_EQ(context.admission_rejections(), 1);
  EXPECT_EQ(context.index_builds(), 0);

  // Lifting the budget heals the same key immediately.
  context.set_max_cache_bytes(0);
  EXPECT_TRUE(context.GetIndex(context.MakeKey(3, 20, 42)).ok());
  EXPECT_EQ(context.index_builds(), 1);
}

TEST_F(FaultInjectionTest, BudgetPressureEvictsAndTheVictimRebuildsOnDemand) {
  QueryContext context(StarSubstrate());
  const ArtifactKey k1 = context.MakeKey(3, 10, 42);
  const ArtifactKey k2 = context.MakeKey(4, 10, 42);

  auto i1 = *context.GetIndex(k1);  // Built without a budget.
  const int64_t real1 = i1->MemoryUsageBytes();
  // A budget that holds k1 and admits k2's estimate, but not both at
  // once: building k2 must evict k1.
  context.set_max_cache_bytes(real1 + context.EstimatedIndexBytes(k2) - 1);
  ASSERT_TRUE(context.GetIndex(k2).ok());
  EXPECT_EQ(context.index_evictions(), 1);
  auto cached = context.CachedIndexes();
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached[0].first, k2);

  // The eviction is a perf event, not data loss: k1 rebuilds on demand
  // (and the shared_ptr held above stayed alive throughout).
  EXPECT_GT(i1->TotalEntries(), 0);
  ASSERT_TRUE(context.GetIndex(k1).ok());
  EXPECT_EQ(context.index_builds(), 3);
}

TEST_F(FaultInjectionTest, EvictionPicksTheLeastRecentlyUsedEntry) {
  QueryContext context(StarSubstrate());
  const ArtifactKey k1 = context.MakeKey(3, 10, 42);
  const ArtifactKey k2 = context.MakeKey(4, 10, 42);
  const ArtifactKey k3 = context.MakeKey(5, 10, 42);

  const int64_t real1 = (*context.GetIndex(k1))->MemoryUsageBytes();
  ASSERT_TRUE(context.GetIndex(k2).ok());
  ASSERT_TRUE(context.GetIndex(k1).ok());  // Touch k1: k2 is now LRU.

  // Room for k1 + k3's estimate only: admitting k3 evicts exactly k2.
  context.set_max_cache_bytes(real1 + context.EstimatedIndexBytes(k3));
  ASSERT_TRUE(context.GetIndex(k3).ok());
  EXPECT_EQ(context.index_evictions(), 1);
  auto cached = context.CachedIndexes();
  ASSERT_EQ(cached.size(), 2u);
  EXPECT_EQ(cached[0].first, k1);
  EXPECT_EQ(cached[1].first, k3);
}

TEST_F(FaultInjectionTest, AdoptIndexRespectsTheBudget) {
  QueryContext builder(StarSubstrate());
  const ArtifactKey key = builder.MakeKey(3, 20, 42);
  auto index = *builder.GetIndex(key);

  QueryContext budgeted(StarSubstrate());
  budgeted.set_max_cache_bytes(index->MemoryUsageBytes() - 1);
  EXPECT_FALSE(budgeted.AdoptIndex(key, index));
  EXPECT_EQ(budgeted.index_recovered(), 0);

  budgeted.set_max_cache_bytes(index->MemoryUsageBytes());
  EXPECT_TRUE(budgeted.AdoptIndex(key, index));
  EXPECT_EQ(budgeted.index_recovered(), 1);
}

// --- persist.*: checkpoint failures never publish torn snapshots. ---

TEST_F(FaultInjectionTest, EveryPersistFaultBecomesACountedCheckpointFailure) {
  for (const std::string site :
       {"persist.open", "persist.write", "persist.rename"}) {
    SCOPED_TRACE(site);
    ClearFaults();
    ASSERT_TRUE(ArmFaultsFromSpec(site + ":1:ENOSPC").ok());

    const std::string dir = FreshDir("rwdom_fault_" + site);
    QueryContext cold(StarSubstrate());
    ArtifactCache cache(dir);
    ASSERT_TRUE(cache.RecoverInto(cold).ok());
    cache.AttachCheckpointHook(cold);
    ASSERT_TRUE(cold.GetIndex(cold.MakeKey(3, 20, 42)).ok());
    cache.Flush();

    const PersistenceInfo failed = cold.persistence();
    EXPECT_EQ(failed.checkpoints_written, 0);
    EXPECT_EQ(failed.checkpoint_failures, 1);
    ASSERT_EQ(failed.rejections.size(), 1u);
    EXPECT_NE(failed.rejections[0].find("checkpoint"), std::string::npos)
        << failed.rejections[0];

    // Nothing torn reached disk: no published snapshot, no orphan tmp.
    auto files = ListSnapshotFiles(dir);
    ASSERT_TRUE(files.ok()) << files.status();
    EXPECT_TRUE(files->empty());
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }

    // The one-shot fault is spent: the next build checkpoints cleanly.
    ASSERT_TRUE(cold.GetIndex(cold.MakeKey(4, 20, 42)).ok());
    cache.Flush();
    EXPECT_EQ(cold.persistence().checkpoints_written, 1);
    fs::remove_all(dir);
  }
}

// --- Server-level behaviours: deadlines, shed, retry, bounded lines. ---

struct TestServer {
  std::unique_ptr<GraphRegistry> registry;
  std::unique_ptr<QueryServer> server;
};

TestServer StartServer(ServerOptions options) {
  TestServer result;
  result.registry = std::make_unique<GraphRegistry>();
  Status added = result.registry->Add(
      kDefaultGraphName,
      std::make_unique<QueryContext>(StarSubstrate()));
  RWDOM_CHECK(added.ok()) << added;
  options.port = 0;
  result.server = std::make_unique<QueryServer>(
      result.registry.get(), ExecuteRequestToJsonLine, options);
  Status started = result.server->Start();
  RWDOM_CHECK(started.ok()) << started;
  return result;
}

const char kSelectLine[] =
    "{\"command\": \"select\", \"flags\": {\"problem\": \"F2\", "
    "\"method\": \"index-celf\", \"k\": 2, \"L\": 3, \"R\": 40, "
    "\"seed\": 42}}";
const char kStatsLine[] = "{\"command\": \"server_stats\"}";

TEST_F(FaultInjectionTest, SlowExecutionAnswersDeadlineExceeded) {
  FakeClock clock;
  ServerOptions options;
  options.threads = 1;
  options.request_timeout_ms = 100;
  options.clock = &clock;
  TestServer ts = StartServer(options);

  // Every clock read "takes" 60ms: the deadline survives the dispatch
  // check (60 < 100) but the post-execution check sees 120 >= 100.
  clock.set_auto_advance_millis(60);
  auto client = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto late = client->Roundtrip(kSelectLine);
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_NE(late->find("DeadlineExceeded"), std::string::npos) << *late;
  EXPECT_NE(late->find("during execution"), std::string::npos) << *late;
  clock.set_auto_advance_millis(0);

  // The connection survived; the counters and the health latch moved.
  auto stats = client->Roundtrip(kStatsLine);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("\"deadline_exceeded\":1"), std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"health\":\"degraded\""), std::string::npos)
      << *stats;
  // One quiet interval returns the report to ok.
  auto calm = client->Roundtrip(kStatsLine);
  ASSERT_TRUE(calm.ok()) << calm.status();
  EXPECT_NE(calm->find("\"health\":\"ok\""), std::string::npos) << *calm;

  ts.server->Shutdown();
}

TEST_F(FaultInjectionTest, QueueTimeAloneCanExpireTheDeadline) {
  FakeClock clock;
  ServerOptions options;
  options.threads = 1;
  options.request_timeout_ms = 50;
  options.clock = &clock;
  TestServer ts = StartServer(options);

  clock.set_auto_advance_millis(60);  // Already late at dispatch.
  auto client = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto late = client->Roundtrip(kSelectLine);
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_NE(late->find("DeadlineExceeded"), std::string::npos) << *late;
  EXPECT_NE(late->find("before dispatch"), std::string::npos) << *late;
  clock.set_auto_advance_millis(0);
  ts.server->Shutdown();
}

TEST_F(FaultInjectionTest, NoTimeoutConfiguredMeansNoDeadline) {
  FakeClock clock;
  ServerOptions options;
  options.threads = 1;
  options.request_timeout_ms = 0;  // Infinite deadline.
  options.clock = &clock;
  TestServer ts = StartServer(options);

  clock.set_auto_advance_millis(1'000'000);
  auto client = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto response = client->Roundtrip(kSelectLine);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->find("DeadlineExceeded"), std::string::npos)
      << *response;
  EXPECT_NE(response->find("\"command\":\"select\""), std::string::npos)
      << *response;
  ts.server->Shutdown();
}

TEST_F(FaultInjectionTest, QueueOverflowShedsWithARetryHint) {
  ServerOptions options;
  options.threads = 1;
  options.max_queue_depth = 1;
  options.retry_after_ms = 7;
  TestServer ts = StartServer(options);

  // Pin the one worker on a connection, then fill the one queue slot.
  auto held = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(held.ok()) << held.status();
  ASSERT_TRUE(held->Roundtrip(kStatsLine).ok());  // Worker is on `held`.
  auto queued = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(queued.ok()) << queued.status();

  // The next connection is over the cap: greeting, typed refusal with
  // the backoff hint, close.
  auto shed = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(shed.ok()) << shed.status();
  auto refused = shed->Roundtrip(kStatsLine);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_NE(refused->find("\"Unavailable\""), std::string::npos) << *refused;
  EXPECT_NE(refused->find("server overloaded"), std::string::npos)
      << *refused;
  EXPECT_NE(refused->find("\"retry_after_ms\":7"), std::string::npos)
      << *refused;

  auto stats = held->Roundtrip(kStatsLine);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("\"requests_shed\":1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"health\":\"degraded\""), std::string::npos)
      << *stats;

  ts.server->Shutdown();
}

TEST_F(FaultInjectionTest, RetryingClientRidesOutASheddingServer) {
  ServerOptions options;
  options.threads = 1;
  options.max_queue_depth = 1;
  options.retry_after_ms = 5;
  TestServer ts = StartServer(options);

  // The held connection's select is served before any shedding: the
  // bytes the retried select must reproduce.
  auto held = std::make_optional(
      *QueryClient::Connect("127.0.0.1", ts.server->port()));
  auto reference = held->Roundtrip(kSelectLine);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_NE(reference->find("\"command\":\"select\""), std::string::npos)
      << *reference;
  auto queued = std::make_optional(
      *QueryClient::Connect("127.0.0.1", ts.server->port()));

  // The injected sleeper records the backoff AND clears the overload —
  // the deterministic stand-in for "the stampede passed".
  std::vector<int> waits;
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.base_ms = 10;
  policy.jitter_seed = 7;
  policy.sleeper = [&](int millis) {
    waits.push_back(millis);
    held.reset();
    queued.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  RetryingClient client("127.0.0.1", ts.server->port(), policy);
  auto response = client.Roundtrip(kSelectLine);
  ASSERT_TRUE(response.ok()) << response.status();
  // Served degraded is still served exactly.
  EXPECT_EQ(NormalizeSeconds(*response), NormalizeSeconds(*reference));
  EXPECT_GE(client.retries_performed(), 1);
  ASSERT_FALSE(waits.empty());
  // The server's hint floors the wait; jitter can only raise it.
  EXPECT_GE(waits[0], 5);

  auto stats = client.Roundtrip(kStatsLine);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("\"requests_shed\":"), std::string::npos) << *stats;
  EXPECT_EQ(stats->find("\"requests_shed\":0"), std::string::npos) << *stats;

  ts.server->Shutdown();
}

TEST_F(FaultInjectionTest, RetryBudgetExhaustionIsUnavailable) {
  ServerOptions options;
  options.threads = 1;
  options.max_queue_depth = 1;
  TestServer ts = StartServer(options);

  auto held = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held->Roundtrip(kStatsLine).ok());
  auto queued = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(queued.ok());

  int sleeps = 0;
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.base_ms = 1;
  policy.sleeper = [&](int) { ++sleeps; };
  RetryingClient client("127.0.0.1", ts.server->port(), policy);
  auto response = client.Roundtrip(kStatsLine);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
      << response.status();
  EXPECT_NE(response.status().message().find("after 3 attempt(s)"),
            std::string::npos)
      << response.status();
  EXPECT_EQ(client.retries_performed(), 2);
  EXPECT_EQ(sleeps, 2);

  ts.server->Shutdown();
}

TEST_F(FaultInjectionTest, OversizedRequestLineAnswersTypedErrorAndResyncs) {
  ServerOptions options;
  options.threads = 1;
  options.max_request_bytes = 64;
  TestServer ts = StartServer(options);

  auto client = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto oversized = client->Roundtrip(std::string(200, 'x'));
  ASSERT_TRUE(oversized.ok()) << oversized.status();
  EXPECT_NE(oversized->find("InvalidArgument"), std::string::npos)
      << *oversized;
  EXPECT_NE(oversized->find("--max_request_bytes=64"), std::string::npos)
      << *oversized;

  // The stream resynchronised: the same connection still answers.
  auto stats = client->Roundtrip(kStatsLine);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("\"oversized_requests\":1"), std::string::npos)
      << *stats;

  ts.server->Shutdown();
}

TEST_F(FaultInjectionTest, AnswersUnderSocketFaultsAreByteIdentical) {
  ServerOptions options;
  options.threads = 2;
  TestServer ts = StartServer(options);
  const std::string knn_line =
      "{\"command\": \"knn\", \"flags\": {\"query\": 0, \"k\": 3, "
      "\"L\": 3, \"R\": 40, \"seed\": 42, \"mode\": \"sampled\"}}";

  // Unfaulted reference answer first.
  std::string baseline;
  {
    auto client = QueryClient::Connect("127.0.0.1", ts.server->port());
    ASSERT_TRUE(client.ok()) << client.status();
    auto reference = client->Roundtrip(knn_line);
    ASSERT_TRUE(reference.ok()) << reference.status();
    baseline = NormalizeSeconds(*reference);
  }

  // Every 4th send in the process — greetings, requests, responses —
  // now fails. Failed roundtrips drop their connection; the ones that
  // complete must still carry the exact reference bytes.
  ASSERT_TRUE(ArmFaultsFromSpec("socket.send:%4:EPIPE").ok());
  int successes = 0;
  int failures = 0;
  for (int i = 0; i < 40 && successes < 8; ++i) {
    auto client = QueryClient::Connect("127.0.0.1", ts.server->port());
    if (!client.ok()) {
      ++failures;
      continue;
    }
    auto response = client->Roundtrip(knn_line);
    if (!response.ok()) {
      ++failures;
      continue;
    }
    EXPECT_EQ(NormalizeSeconds(*response), baseline);
    ++successes;
  }
  ClearFaults();
  EXPECT_GE(successes, 8);
  EXPECT_GE(failures, 1);

  ts.server->Shutdown();
}

}  // namespace
}  // namespace rwdom
