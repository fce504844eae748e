// Multi-graph tenancy acceptance suite: an N-tenant server must be
// indistinguishable, byte for byte, from N single-graph servers — cold
// and warm — while sharing one cache budget
// (eviction and admission refusals cross tenant lines and name the
// offender) and one cache_dir tree (the default tenant keeps the flat
// v2 layout, named tenants get their own subdirectory).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "cli/query_line.h"
#include "persist/artifact_cache.h"
#include "server/client.h"
#include "server/server.h"
#include "service/graph_registry.h"
#include "service/query_context.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "wgraph/substrate.h"

namespace rwdom {
namespace {

std::pair<Status, std::string> RunCli(std::vector<std::string> args) {
  std::vector<const char*> argv = {"rwdom"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  auto invocation =
      ParseCliArgs(static_cast<int>(argv.size()), argv.data());
  if (!invocation.ok()) return {invocation.status(), ""};
  std::ostringstream out;
  Status status = RunCliCommand(*invocation, out);
  return {status, out.str()};
}

std::string NormalizeSeconds(std::string text) {
  return std::regex_replace(
      std::move(text), std::regex(R"("seconds":[-+0-9.eE]+)"),
      "\"seconds\":<T>");
}

// Per-tenant query stream: one index-building select, one evaluate, one
// sampled knn — enough to exercise build, cache hit and walk paths.
std::vector<std::string> QueryLines(const std::string& graph) {
  const std::string suffix =
      graph.empty() ? "}" : ", \"graph\": \"" + graph + "\"}";
  return {
      "{\"command\": \"select\", \"flags\": {\"problem\": \"F2\", "
      "\"method\": \"index-celf\", \"k\": 2, \"L\": 3, \"R\": 40, "
      "\"seed\": 42}" + suffix,
      "{\"command\": \"evaluate\", \"flags\": {\"seeds\": \"0,2\", "
      "\"L\": 3, \"R\": 200, \"seed\": 42}" + suffix,
      "{\"command\": \"knn\", \"flags\": {\"query\": 0, \"k\": 3, "
      "\"L\": 3, \"R\": 40, \"seed\": 42, \"mode\": \"sampled\"}" + suffix,
  };
}

class TenancyTest : public testing::Test {
 protected:
  void SetUp() override {
    stem_ = testing::TempDir() + "/rwdom_tenancy_" +
            testing::UnitTest::GetInstance()->current_test_info()->name();
    const char* const edges[] = {
        "0 1\n0 2\n0 3\n0 4\n4 5\n",          // star + tail
        "0 1\n1 2\n2 3\n3 4\n4 0\n",          // 5-ring
        "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n",     // path
    };
    for (int i = 0; i < 3; ++i) {
      graph_paths_.push_back(stem_ + "_g" + std::to_string(i) + ".txt");
      std::ofstream file(graph_paths_.back(), std::ios::trunc);
      file << edges[i];
      ASSERT_TRUE(file.good());
    }
  }

  void TearDown() override {
    for (const std::string& path : graph_paths_) std::remove(path.c_str());
    SetNumThreads(0);
  }

  struct TestServer {
    std::unique_ptr<GraphRegistry> registry;
    std::unique_ptr<QueryServer> server;
  };

  TestServer StartServer(std::vector<std::pair<std::string, std::string>>
                             tenants,  // (name, graph file)
                         ServerOptions options,
                         int64_t max_cache_bytes = 0) {
    TestServer result;
    result.registry = std::make_unique<GraphRegistry>();
    result.registry->set_max_cache_bytes(max_cache_bytes);
    for (const auto& [name, path] : tenants) {
      auto loaded = LoadSubstrate(path, {});
      RWDOM_CHECK(loaded.ok()) << loaded.status();
      Status added = result.registry->Add(
          name, std::make_unique<QueryContext>(std::move(*loaded)));
      RWDOM_CHECK(added.ok()) << added;
    }
    options.port = 0;
    result.server = std::make_unique<QueryServer>(
        result.registry.get(), ExecuteRequestToJsonLine, options);
    Status started = result.server->Start();
    RWDOM_CHECK(started.ok()) << started;
    return result;
  }

  std::string stem_;
  std::vector<std::string> graph_paths_;
};

TEST_F(TenancyTest, MultiTenantServerMatchesIsolatedServersByteIdentical) {
  const std::vector<std::string> tenant_names = {"default", "ring", "path"};
  ServerOptions options;
  options.threads = 2;

  // Reference: three isolated single-graph servers, each queried with
  // the keyless v2 lines. Two passes — pass 0 builds cold, pass 1 is
  // the warm cache — and the bytes must not differ between passes.
  std::vector<std::vector<std::string>> reference(tenant_names.size());
  for (size_t i = 0; i < tenant_names.size(); ++i) {
    TestServer single =
        StartServer({{kDefaultGraphName, graph_paths_[i]}}, options);
    for (int pass = 0; pass < 2; ++pass) {
      auto got = RunQueryLines("127.0.0.1", single.server->port(),
                               QueryLines(""));
      ASSERT_TRUE(got.ok()) << got.status();
      for (size_t q = 0; q < got->size(); ++q) {
        const std::string normalized = NormalizeSeconds((*got)[q]);
        if (pass == 0) {
          reference[i].push_back(normalized);
        } else {
          EXPECT_EQ(normalized, reference[i][q])
              << "single server " << i << " warm pass diverged at " << q;
        }
      }
    }
    single.server->Shutdown();
  }

  // One 3-tenant server, queried with the graph-addressed lines,
  // interleaved across tenants on one connection: every response must
  // be the isolated server's bytes, cold and warm.
  TestServer multi = StartServer({{tenant_names[0], graph_paths_[0]},
                                  {tenant_names[1], graph_paths_[1]},
                                  {tenant_names[2], graph_paths_[2]}},
                                 options);
  std::vector<std::string> lines;
  std::vector<std::pair<size_t, size_t>> origin;  // (tenant, query).
  for (size_t q = 0; q < 3; ++q) {
    for (size_t i = 0; i < tenant_names.size(); ++i) {
      // The default tenant is addressed implicitly — the v2 spelling.
      const std::string graph = i == 0 ? "" : tenant_names[i];
      lines.push_back(QueryLines(graph)[q]);
      origin.emplace_back(i, q);
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    auto got = RunQueryLines("127.0.0.1", multi.server->port(), lines);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), lines.size());
    for (size_t j = 0; j < got->size(); ++j) {
      const auto [tenant, query] = origin[j];
      EXPECT_EQ(NormalizeSeconds((*got)[j]), reference[tenant][query])
          << "pass " << pass << " tenant " << tenant_names[tenant]
          << " query " << query;
    }
  }
  // Each tenant built its one (L, R, seed) key exactly once; the warm
  // pass was all cache hits.
  for (const std::string& name : tenant_names) {
    auto resolved = multi.registry->Resolve(name);
    ASSERT_TRUE(resolved.ok()) << resolved.status();
    EXPECT_EQ(resolved->context->index_builds(), 1) << "tenant " << name;
  }
  multi.server->Shutdown();
}

TEST_F(TenancyTest, SharedBudgetCrossesTenantsOverTheWire) {
  // A budget that admits one real index at a time: tenant B's build
  // must evict tenant A's entry (the global LRU), and both tenants'
  // answers stay byte-identical to their unbudgeted selves.
  ServerOptions options;
  options.threads = 2;
  TestServer unbudgeted = StartServer({{kDefaultGraphName, graph_paths_[0]},
                                       {"ring", graph_paths_[1]}},
                                      options);
  auto reference_a = RunQueryLines("127.0.0.1", unbudgeted.server->port(),
                                   {QueryLines("")[0]});
  auto reference_b = RunQueryLines("127.0.0.1", unbudgeted.server->port(),
                                   {QueryLines("ring")[0]});
  ASSERT_TRUE(reference_a.ok() && reference_b.ok());
  QueryContext& ua = *unbudgeted.registry->Resolve("").value().context;
  QueryContext& ub = *unbudgeted.registry->Resolve("ring").value().context;
  ASSERT_EQ(ua.CachedIndexes().size(), 1u);
  const int64_t bytes_a = ua.CachedIndexes()[0].second->MemoryUsageBytes();
  // The same (L, R, seed) the wire select below carries.
  const int64_t estimate_b = ub.EstimatedIndexBytes(ub.MakeKey(3, 40, 42));
  unbudgeted.server->Shutdown();
  ASSERT_GT(bytes_a, 0);

  // Room to admit b's build only after evicting a's entry.
  TestServer budgeted = StartServer(
      {{kDefaultGraphName, graph_paths_[0]}, {"ring", graph_paths_[1]}},
      options, /*max_cache_bytes=*/bytes_a + estimate_b - 1);
  auto a1 = RunQueryLines("127.0.0.1", budgeted.server->port(),
                          {QueryLines("")[0]});
  auto b1 = RunQueryLines("127.0.0.1", budgeted.server->port(),
                          {QueryLines("ring")[0]});
  ASSERT_TRUE(a1.ok() && b1.ok());
  EXPECT_EQ(NormalizeSeconds(a1->front()),
            NormalizeSeconds(reference_a->front()));
  EXPECT_EQ(NormalizeSeconds(b1->front()),
            NormalizeSeconds(reference_b->front()));

  // The eviction crossed tenant lines and is visible in the per-graph
  // stats slice of the victim.
  QueryContext& a = *budgeted.registry->Resolve("").value().context;
  EXPECT_EQ(a.index_evictions(), 1);
  auto stats = RunQueryLines("127.0.0.1", budgeted.server->port(),
                             {"{\"command\": \"server_stats\"}"});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->front().find(
                "\"default\":{\"substrate\":\"uniform\""),
            std::string::npos)
      << stats->front();
  EXPECT_NE(stats->front().find("\"index_evictions\":1"), std::string::npos)
      << stats->front();
  budgeted.server->Shutdown();
}

TEST_F(TenancyTest, AdmissionRefusalOverTheWireNamesTheTenant) {
  ServerOptions options;
  options.threads = 1;
  TestServer ts = StartServer({{kDefaultGraphName, graph_paths_[0]},
                               {"busy", graph_paths_[1]}},
                              options, /*max_cache_bytes=*/100);
  auto refused = RunQueryLines("127.0.0.1", ts.server->port(),
                               {QueryLines("busy")[0]});
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_NE(refused->front().find("ResourceExhausted"), std::string::npos)
      << refused->front();
  EXPECT_NE(refused->front().find("(graph \\\"busy\\\")"), std::string::npos)
      << refused->front();
  ts.server->Shutdown();
}

TEST_F(TenancyTest, StatsGrowANamedSectionOnlyWhenMultiTenant) {
  ServerOptions options;
  options.threads = 1;

  // Single tenant: server_stats is the v2 shape — no "graphs" key.
  TestServer single =
      StartServer({{kDefaultGraphName, graph_paths_[0]}}, options);
  auto v2 = RunQueryLines("127.0.0.1", single.server->port(),
                          {"{\"command\": \"server_stats\"}"});
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(v2->front().find("\"graphs\""), std::string::npos)
      << v2->front();
  // ...unless a filter asks for the per-graph slice explicitly.
  auto filtered = RunQueryLines(
      "127.0.0.1", single.server->port(),
      {"{\"command\": \"server_stats\", \"graph\": \"default\"}"});
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_NE(filtered->front().find("\"graphs\":{\"default\":"),
            std::string::npos)
      << filtered->front();
  single.server->Shutdown();

  // Multi tenant: the section lists every graph; the filter narrows it.
  TestServer multi = StartServer({{kDefaultGraphName, graph_paths_[0]},
                                  {"ring", graph_paths_[1]}},
                                 options);
  auto all = RunQueryLines("127.0.0.1", multi.server->port(),
                           {"{\"command\": \"server_stats\"}"});
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_NE(all->front().find("\"graphs\":{\"default\":"),
            std::string::npos)
      << all->front();
  EXPECT_NE(all->front().find("\"ring\":{"), std::string::npos)
      << all->front();
  auto ring_only = RunQueryLines(
      "127.0.0.1", multi.server->port(),
      {"{\"command\": \"server_stats\", \"graph\": \"ring\"}"});
  ASSERT_TRUE(ring_only.ok()) << ring_only.status();
  EXPECT_NE(ring_only->front().find("\"graphs\":{\"ring\":"),
            std::string::npos)
      << ring_only->front();
  EXPECT_EQ(ring_only->front().find("\"default\":{"), std::string::npos)
      << ring_only->front();
  // Unknown filter: typed NotFound, same wording as a routed request.
  auto unknown = RunQueryLines(
      "127.0.0.1", multi.server->port(),
      {"{\"command\": \"server_stats\", \"graph\": \"nope\"}"});
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_NE(unknown->front().find("NotFound"), std::string::npos)
      << unknown->front();
  multi.server->Shutdown();
}

TEST_F(TenancyTest, CliServeWarmStartsEveryTenantFromItsSubdirectory) {
  const std::string cache_dir = stem_ + "_cache";
  std::filesystem::remove_all(cache_dir);
  const std::string script_path = stem_ + "_script.jsonl";
  const std::string port_path = stem_ + "_port.txt";
  {
    std::ofstream script(script_path, std::ios::trunc);
    script << QueryLines("")[0] << "\n";
    script << QueryLines("ring")[0] << "\n";
    script << "{\"command\": \"shutdown\"}\n";
    ASSERT_TRUE(script.good());
  }

  auto serve_once = [&]() -> std::pair<Status, std::string> {
    std::remove(port_path.c_str());
    std::pair<Status, std::string> serve_result;
    std::thread serve_thread([&] {
      serve_result = RunCli({"serve", "--graph=" + graph_paths_[0],
                             "--graph=ring=" + graph_paths_[1], "--port=0",
                             "--port_file=" + port_path, "--threads=2",
                             "--cache_dir=" + cache_dir});
    });
    int port = 0;
    for (int i = 0; i < 100 && port == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::ifstream port_file(port_path);
      port_file >> port;
    }
    EXPECT_GT(port, 0) << "server never wrote --port_file";
    auto [client_status, client_out] =
        RunCli({"client", script_path, "--port=" + std::to_string(port)});
    serve_thread.join();
    EXPECT_TRUE(client_status.ok()) << client_status;
    return serve_result;
  };

  // Cold: one build per tenant, each checkpointed into its own branch
  // of the cache tree (default flat at the root, ring under ring/).
  auto [cold_status, cold_out] = serve_once();
  ASSERT_TRUE(cold_status.ok()) << cold_status;
  EXPECT_NE(cold_out.find("index builds=2"), std::string::npos) << cold_out;
  EXPECT_NE(cold_out.find("checkpoints=2"), std::string::npos) << cold_out;
  auto tree = ListSnapshotTree(cache_dir);
  ASSERT_TRUE(tree.ok()) << tree.status();
  ASSERT_EQ(tree->size(), 2u);
  EXPECT_EQ((*tree)[0].graph, "default");
  EXPECT_EQ((*tree)[1].graph, "ring");

  // Warm restart: both tenants recover their snapshot, nobody rebuilds.
  auto [warm_status, warm_out] = serve_once();
  ASSERT_TRUE(warm_status.ok()) << warm_status;
  EXPECT_NE(warm_out.find("snapshots recovered=2"), std::string::npos)
      << warm_out;
  EXPECT_NE(warm_out.find("index builds=0"), std::string::npos) << warm_out;
  EXPECT_NE(warm_out.find("index recovered=2"), std::string::npos)
      << warm_out;

  // `cache ls` walks the tree and grows the graph dimension; --graph
  // scopes it to one tenant.
  auto [ls_status, ls_out] =
      RunCli({"cache", "ls", "--cache_dir=" + cache_dir, "--format=json"});
  ASSERT_TRUE(ls_status.ok()) << ls_status;
  EXPECT_NE(ls_out.find("\"graph\":\"default\""), std::string::npos)
      << ls_out;
  EXPECT_NE(ls_out.find("\"graph\":\"ring\""), std::string::npos) << ls_out;
  auto [ring_status, ring_out] =
      RunCli({"cache", "ls", "--cache_dir=" + cache_dir, "--graph=ring",
              "--format=json"});
  ASSERT_TRUE(ring_status.ok()) << ring_status;
  EXPECT_NE(ring_out.find("\"graph\":\"ring\""), std::string::npos)
      << ring_out;
  EXPECT_EQ(ring_out.find("\"graph\":\"default\""), std::string::npos)
      << ring_out;
  // `cache verify` checks every tenant's snapshots in one sweep.
  auto [verify_status, verify_out] =
      RunCli({"cache", "verify", "--cache_dir=" + cache_dir});
  EXPECT_TRUE(verify_status.ok()) << verify_status;
  EXPECT_NE(verify_out.find("verified 2 snapshot(s), 0 failed"),
            std::string::npos)
      << verify_out;

  std::filesystem::remove_all(cache_dir);
  std::remove(script_path.c_str());
  std::remove(port_path.c_str());
}

}  // namespace
}  // namespace rwdom
