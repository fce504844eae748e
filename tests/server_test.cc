// End-to-end tests of `rwdom serve` / `rwdom client`: the acceptance
// pin that 4 and 64 concurrent clients x 3 queries each against one
// server produce responses bit-identical to cold CLI runs, with one
// graph load and exactly one index build per distinct (L, R, seed) key
// — plus protocol semantics (errors keep connections open, admin
// shutdown, connection cap, CLI wiring, warm start from --cache_dir).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cli/cli.h"
#include "cli/query_line.h"
#include "server/client.h"
#include "server/server.h"
#include "service/graph_registry.h"
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

// Wall-clock timings legitimately differ between cold and served runs;
// everything else must be bit-identical.
std::string NormalizeSeconds(std::string text) {
  return std::regex_replace(
      std::move(text), std::regex(R"("seconds":[-+0-9.eE]+)"),
      "\"seconds\":<T>");
}

// The acceptance workload: select + evaluate + knn, one (L, R, seed).
const char* const kAcceptanceLines[] = {
    "{\"command\": \"select\", \"flags\": {\"problem\": \"F2\", "
    "\"method\": \"index-celf\", \"k\": 2, \"L\": 3, \"R\": 40, "
    "\"seed\": 42}}",
    "{\"command\": \"evaluate\", \"flags\": {\"seeds\": \"0,4\", "
    "\"L\": 3, \"R\": 200, \"seed\": 42}}",
    "{\"command\": \"knn\", \"flags\": {\"query\": 0, \"k\": 3, "
    "\"L\": 3, \"R\": 40, \"seed\": 42, \"mode\": \"sampled\"}}",
};

class ServerTest : public testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrent runs of this binary (per-case discovery
    // plus the *_suite alias under `ctest -j`) off each other's files.
    const std::string stem =
        testing::TempDir() + "/rwdom_server_" + std::to_string(::getpid()) +
        "_" + testing::UnitTest::GetInstance()->current_test_info()->name();
    graph_path_ = stem + "_graph.txt";
    script_path_ = stem + "_script.jsonl";
    port_path_ = stem + "_port.txt";
    std::ofstream file(graph_path_, std::ios::trunc);
    file << "0 1\n0 2\n0 3\n0 4\n4 5\n";
    ASSERT_TRUE(file.good());
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(script_path_.c_str());
    std::remove(port_path_.c_str());
    SetNumThreads(0);  // Restore the ambient default for other tests.
  }

  // An in-process server over the test graph, wired exactly like
  // `rwdom serve`: the line executor is the shared query-line path.
  struct TestServer {
    std::unique_ptr<GraphRegistry> registry;
    std::unique_ptr<QueryServer> server;
    QueryContext* context = nullptr;
  };

  TestServer StartServer(int threads, int max_connections = 64) {
    TestServer result;
    auto loaded = LoadSubstrate(graph_path_, {});
    RWDOM_CHECK(loaded.ok()) << loaded.status();
    result.registry = std::make_unique<GraphRegistry>();
    Status added = result.registry->Add(
        kDefaultGraphName,
        std::make_unique<QueryContext>(std::move(*loaded)));
    RWDOM_CHECK(added.ok()) << added;
    result.context = result.registry->default_context();
    ServerOptions options;
    options.port = 0;
    options.threads = threads;
    options.max_connections = max_connections;
    result.server = std::make_unique<QueryServer>(
        result.registry.get(), ExecuteRequestToJsonLine, options);
    Status started = result.server->Start();
    RWDOM_CHECK(started.ok()) << started;
    return result;
  }

  std::string graph_path_;
  std::string script_path_;
  std::string port_path_;
};

TEST_F(ServerTest, MultiClientSmokeMatchesColdRunsBitIdentically) {
  // Cold reference: each query as its own one-shot CLI invocation.
  std::vector<std::string> cold;
  const std::vector<std::vector<std::string>> cold_runs = {
      {"select", "--problem=F2", "--method=index-celf", "--k=2", "--L=3",
       "--R=40", "--seed=42", "--graph=" + graph_path_, "--format=json"},
      {"evaluate", "--seeds=0,4", "--L=3", "--R=200", "--seed=42",
       "--graph=" + graph_path_, "--format=json"},
      {"knn", "--query=0", "--k=3", "--L=3", "--R=40", "--seed=42",
       "--mode=sampled", "--graph=" + graph_path_, "--format=json"},
  };
  for (const auto& run : cold_runs) {
    auto [status, out] = RunCli(run);
    ASSERT_TRUE(status.ok()) << status;
    cold.push_back(NormalizeSeconds(out));
  }

  const std::vector<std::string> lines(std::begin(kAcceptanceLines),
                                       std::end(kAcceptanceLines));

  // The acceptance pin: 4 concurrent clients x 3 queries each against
  // 4 shards, then 64 clients (16 connections per shard) against a
  // fresh server.
  for (const int num_clients : {4, 64}) {
    TestServer ts = StartServer(/*threads=*/4,
                                /*max_connections=*/num_clients + 1);
    std::vector<std::vector<std::string>> responses(num_clients);
    std::vector<std::thread> clients;
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        auto result = RunQueryLines("127.0.0.1", ts.server->port(), lines);
        ASSERT_TRUE(result.ok()) << result.status();
        responses[c] = std::move(*result);
      });
    }
    for (std::thread& client : clients) client.join();

    for (int c = 0; c < num_clients; ++c) {
      ASSERT_EQ(responses[c].size(), cold.size())
          << num_clients << " clients, client " << c;
      for (size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(NormalizeSeconds(responses[c][i] + "\n"), cold[i])
            << num_clients << " clients, client " << c << " query " << i;
      }
    }

    // One graph load, exactly one index build per distinct key (the
    // workload uses a single (L=3, R=40, seed=42) key across all
    // clients).
    auto stats = RunQueryLines("127.0.0.1", ts.server->port(),
                               {"{\"command\": \"server_stats\"}"});
    ASSERT_TRUE(stats.ok()) << stats.status();
    const std::string& line = stats->front();
    const std::string queries_ok =
        "\"queries_ok\":" + std::to_string(num_clients * 3 + 1);
    EXPECT_NE(line.find("\"graph_loads\":1"), std::string::npos) << line;
    EXPECT_NE(line.find("\"index_builds\":1"), std::string::npos) << line;
    EXPECT_NE(line.find(queries_ok), std::string::npos) << line;
    EXPECT_NE(line.find("\"queries_error\":0"), std::string::npos) << line;
    EXPECT_EQ(ts.context->index_builds(), 1) << num_clients << " clients";

    ts.server->Shutdown();
  }
}

TEST_F(ServerTest, GreetingAnnouncesProtocolVersionAndCapabilities) {
  TestServer ts = StartServer(/*threads=*/1);
  auto client = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok()) << client.status();

  // The greeting is one JSON line, sent before any request: capability
  // detection without a round trip.
  const std::string& greeting = client->greeting();
  EXPECT_NE(greeting.find("\"protocol_version\":3"), std::string::npos)
      << greeting;
  for (const char* capability :
       {"jsonl", "batch_commands", "multi_graph", "server_stats",
        "shutdown"}) {
    EXPECT_NE(greeting.find(capability), std::string::npos)
        << capability << " missing from " << greeting;
  }

  // server_stats repeats the same contract plus the substrate identity.
  auto stats = client->Roundtrip("{\"command\": \"server_stats\"}");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("\"protocol_version\":3"), std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"capabilities\":["), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"substrate_fingerprint\":\""), std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"index_recovered\":0"), std::string::npos)
      << *stats;

  ts.server->Shutdown();
}

TEST_F(ServerTest, EvenRefusedConnectionsGetTheGreeting) {
  TestServer ts = StartServer(/*threads=*/1, /*max_connections=*/1);
  auto first = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(first.ok()) << first.status();
  // The second connection is over the cap, but Connect still succeeds —
  // the greeting always arrives before the refusal, so clients never
  // have to guess whether a line is greeting or error.
  auto second = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_NE(second->greeting().find("\"protocol_version\""),
            std::string::npos)
      << second->greeting();
  ts.server->Shutdown();
}

TEST_F(ServerTest, ErrorResponsesKeepTheConnectionOpen) {
  TestServer ts = StartServer(/*threads=*/1);
  auto client = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok()) << client.status();

  // Unknown command: an {"error": ...} line with the registry's
  // suggestion, identical wording to a batch-script failure.
  auto bad = client->Roundtrip("{\"command\": \"selct\"}");
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_NE(bad->find("\"error\""), std::string::npos) << *bad;
  EXPECT_NE(bad->find("NotFound"), std::string::npos) << *bad;
  EXPECT_NE(bad->find("did you mean `select`?"), std::string::npos) << *bad;

  // Substrate/global flags are fixed by the server, like batch lines.
  auto graph_flag = client->Roundtrip(
      "{\"command\": \"stats\", \"flags\": {\"graph\": \"x\"}}");
  ASSERT_TRUE(graph_flag.ok()) << graph_flag.status();
  EXPECT_NE(graph_flag->find("fixed by the batch invocation"),
            std::string::npos)
      << *graph_flag;
  auto threads_flag = client->Roundtrip(
      "{\"command\": \"stats\", \"flags\": {\"threads\": 2}}");
  ASSERT_TRUE(threads_flag.ok()) << threads_flag.status();
  EXPECT_NE(threads_flag->find("\"error\""), std::string::npos)
      << *threads_flag;

  // Unparseable JSON is an error response, not a dropped connection.
  auto garbage = client->Roundtrip("not json at all");
  ASSERT_TRUE(garbage.ok()) << garbage.status();
  EXPECT_NE(garbage->find("\"error\""), std::string::npos) << *garbage;

  // A NaN flag is a typed error naming the flag, not a failed CHECK that
  // takes the server down (NaN compares false against any range bound).
  auto nan_alpha = client->Roundtrip(
      "{\"command\": \"cover\", \"flags\": {\"alpha\": \"nan\"}}");
  ASSERT_TRUE(nan_alpha.ok()) << nan_alpha.status();
  EXPECT_NE(nan_alpha->find("InvalidArgument"), std::string::npos)
      << *nan_alpha;
  EXPECT_NE(nan_alpha->find("--alpha"), std::string::npos) << *nan_alpha;

  // The same connection still answers a valid query afterwards.
  auto good = client->Roundtrip(
      "{\"command\": \"stats\", \"flags\": {}}");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_NE(good->find("\"stats\""), std::string::npos) << *good;

  ts.server->Shutdown();
}

TEST_F(ServerTest, ShutdownRequestStopsTheServerGracefully) {
  TestServer ts = StartServer(/*threads=*/2);
  const int port = ts.server->port();
  auto response = RunQueryLines("127.0.0.1", port,
                                {"{\"command\": \"shutdown\"}"});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->front(),
            "{\"ok\":true,\"shutting_down\":true}");
  // Wait returns once every thread drained; new connections then fail.
  ts.server->Wait();
  auto refused = QueryClient::Connect("127.0.0.1", port);
  EXPECT_FALSE(refused.ok());
}

TEST_F(ServerTest, RefusesConnectionsBeyondMaxConnections) {
  TestServer ts = StartServer(/*threads=*/1, /*max_connections=*/1);
  auto first = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(first.ok()) << first.status();
  // Prove the first connection is active before opening the second.
  auto stats = first->Roundtrip("{\"command\": \"server_stats\"}");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("\"active_connections\":1"), std::string::npos)
      << *stats;

  auto second = QueryClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(second.ok()) << second.status();
  auto refused = second->Roundtrip("{\"command\": \"server_stats\"}");
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_NE(refused->find("\"error\""), std::string::npos) << *refused;
  EXPECT_NE(refused->find("Unavailable"), std::string::npos) << *refused;
  EXPECT_NE(refused->find("max_connections"), std::string::npos) << *refused;

  ts.server->Shutdown();
}

TEST_F(ServerTest, CliServeAndClientRunEndToEnd) {
  {
    std::ofstream script(script_path_, std::ios::trunc);
    script << "# serve smoke\n";
    for (const char* line : kAcceptanceLines) script << line << "\n";
    script << "{\"command\": \"shutdown\"}\n";
    ASSERT_TRUE(script.good());
  }

  // `rwdom serve` blocks until shutdown, so it runs on its own thread;
  // --port_file is the readiness handshake.
  std::pair<Status, std::string> serve_result;
  std::thread serve_thread([&] {
    serve_result = RunCli({"serve", "--graph=" + graph_path_, "--port=0",
                           "--port_file=" + port_path_, "--threads=2"});
  });

  int port = 0;
  for (int i = 0; i < 100 && port == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream port_file(port_path_);
    port_file >> port;
  }
  ASSERT_GT(port, 0) << "server never wrote --port_file";

  auto [client_status, client_out] =
      RunCli({"client", script_path_, "--port=" + std::to_string(port)});
  serve_thread.join();

  ASSERT_TRUE(client_status.ok()) << client_status;
  std::istringstream lines(client_out);
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 4u);  // 3 queries + shutdown ack.
  EXPECT_NE(responses[0].find("\"command\":\"select\""), std::string::npos);
  EXPECT_EQ(responses[3], "{\"ok\":true,\"shutting_down\":true}");

  ASSERT_TRUE(serve_result.first.ok()) << serve_result.first;
  EXPECT_NE(serve_result.second.find("serving uniform substrate"),
            std::string::npos)
      << serve_result.second;
  EXPECT_NE(serve_result.second.find("index builds=1"), std::string::npos)
      << serve_result.second;
  EXPECT_NE(serve_result.second.find("graph loads=1"), std::string::npos)
      << serve_result.second;
}

TEST_F(ServerTest, CliServeWarmStartsFromCacheDir) {
  const std::string cache_dir = graph_path_ + "_cache";
  std::filesystem::remove_all(cache_dir);
  {
    std::ofstream script(script_path_, std::ios::trunc);
    script << kAcceptanceLines[0] << "\n";  // One index-building select.
    script << "{\"command\": \"shutdown\"}\n";
    ASSERT_TRUE(script.good());
  }

  // One boot: the server's status and summary, then the client's answers.
  auto serve_once = [&]() -> std::tuple<Status, std::string, std::string> {
    std::remove(port_path_.c_str());
    std::pair<Status, std::string> serve_result;
    std::thread serve_thread([&] {
      serve_result =
          RunCli({"serve", "--graph=" + graph_path_, "--port=0",
                  "--port_file=" + port_path_, "--threads=2",
                  "--cache_dir=" + cache_dir});
    });
    int port = 0;
    for (int i = 0; i < 100 && port == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::ifstream port_file(port_path_);
      port_file >> port;
    }
    EXPECT_GT(port, 0) << "server never wrote --port_file";
    auto [client_status, client_out] =
        RunCli({"client", script_path_, "--port=" + std::to_string(port)});
    serve_thread.join();
    EXPECT_TRUE(client_status.ok()) << client_status;
    return {serve_result.first, serve_result.second, client_out};
  };

  // Cold run: one build, one checkpoint into the cache dir.
  auto [cold_status, cold_out, cold_answers] = serve_once();
  ASSERT_TRUE(cold_status.ok()) << cold_status;
  EXPECT_NE(cold_out.find("index builds=1"), std::string::npos) << cold_out;
  EXPECT_NE(cold_out.find("checkpoints=1"), std::string::npos) << cold_out;
  EXPECT_NE(cold_answers.find("\"command\":\"select\""), std::string::npos)
      << cold_answers;

  // Warm restart over the same cache dir: the snapshot is recovered at
  // boot, and the same select never builds yet answers with the cold
  // boot's bytes.
  auto [warm_status, warm_out, warm_answers] = serve_once();
  ASSERT_TRUE(warm_status.ok()) << warm_status;
  EXPECT_NE(warm_out.find("snapshots recovered=1"), std::string::npos)
      << warm_out;
  EXPECT_NE(warm_out.find("index builds=0"), std::string::npos) << warm_out;
  EXPECT_NE(warm_out.find("index recovered=1"), std::string::npos)
      << warm_out;
  EXPECT_EQ(NormalizeSeconds(warm_answers), NormalizeSeconds(cold_answers));

  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace rwdom
