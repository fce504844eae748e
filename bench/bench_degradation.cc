// Graceful degradation under stress: the same query stream served (a)
// by a well-provisioned server, (b) by a deliberately starved server
// (one shard, queue depth one) with retrying clients riding out the
// shedding, and (c) under a deterministic 10% socket-send fault
// schedule with reconnecting clients.
//
// The point is not the absolute numbers — overload throughput depends
// on backoff sleeps — but the two gates every phase shares:
//   * every answer that does arrive is byte-identical (modulo
//     wall-clock fields) to a cold in-process reference, and
//   * no client ever loses a query: shed and faulted requests are
//     retried to completion, so the delivered-query count is exact.
// The driver exits non-zero on any divergence or lost query, making
// this the degradation-correctness gate in CI. JSON output:
// BENCH_degradation.json via --json_dir (timing keys informational,
// query counts exact).
#include <atomic>
#include <cstdio>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "cli/query_line.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "server/client.h"
#include "server/server.h"
#include "service/graph_registry.h"
#include "service/query_context.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "wgraph/substrate.h"

namespace rwdom {
namespace {

std::string NormalizeSeconds(std::string text) {
  return std::regex_replace(
      std::move(text), std::regex(R"("seconds":[-+0-9.eE]+)"),
      "\"seconds\":<T>");
}

struct Row {
  std::string phase;
  int clients = 0;
  int64_t queries = 0;  ///< Delivered answers — exact, gated in CI.
  int64_t retries = 0;  ///< Backoff cycles / reconnects (informational).
  double seconds = 0.0;
  double qps = 0.0;
};

int Run(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintBanner("degradation",
              "throughput and byte-identity under overload shedding and "
              "injected socket faults",
              args);

  const NodeId n = args.full ? 20000 : 2000;
  const int64_t m = args.full ? 100000 : 10000;
  const int32_t length = 6;
  const int32_t replicates = args.full ? 50 : 20;
  const int kClients = 4;
  const int kQueriesPerClient = args.full ? 40 : 16;

  Graph graph = GenerateErdosRenyiGnm(n, m, args.seed).value();
  std::printf("graph: ER n=%d m=%lld; %d clients x %d queries/client\n\n",
              n, static_cast<long long>(m), kClients, kQueriesPerClient);

  // Serving configuration: one compute thread per query; concurrency
  // comes from the server's shards (or lack of them, in phase B).
  SetNumThreads(1);

  // The per-client stream: index-backed selects (cache hits after the
  // first build) interleaved with sampled knn (fresh walks each time).
  std::vector<std::string> lines;
  for (int i = 0; i < kQueriesPerClient; ++i) {
    if (i % 2 == 0) {
      lines.push_back(StrFormat(
          "{\"command\": \"select\", \"flags\": {\"problem\": \"F2\", "
          "\"method\": \"index-celf\", \"k\": 5, \"L\": %d, \"R\": %d, "
          "\"seed\": %llu}}",
          length, replicates, static_cast<unsigned long long>(args.seed)));
    } else {
      lines.push_back(StrFormat(
          "{\"command\": \"knn\", \"flags\": {\"query\": %d, \"k\": 5, "
          "\"L\": %d, \"R\": %d, \"seed\": %llu, \"mode\": \"sampled\"}}",
          i % n, length, replicates,
          static_cast<unsigned long long>(args.seed)));
    }
  }

  // Cold reference: the same lines through a fresh in-process context —
  // the bytes every phase's answers must reproduce.
  std::vector<std::string> reference;
  {
    QueryContext context{GraphSubstrate(Graph(graph))};
    for (const std::string& line : lines) {
      std::ostringstream out;
      Status status =
          ExecuteQueryLine(line, context, OutputFormat::kJson, out);
      RWDOM_CHECK(status.ok()) << status;
      std::string response = out.str();
      while (!response.empty() && response.back() == '\n') {
        response.pop_back();
      }
      reference.push_back(NormalizeSeconds(response));
    }
  }

  bool deterministic = true;
  auto check = [&](const std::string& phase, size_t query,
                   const std::string& response) {
    const std::string normalized = NormalizeSeconds(response);
    if (normalized != reference[query % reference.size()]) {
      deterministic = false;
      std::fprintf(stderr, "MISMATCH phase=%s query=%zu:\n  want: %s\n  "
                           "got:  %s\n",
                   phase.c_str(), query,
                   reference[query % reference.size()].c_str(),
                   normalized.c_str());
    }
  };

  auto make_registry = [&]() {
    auto registry = std::make_unique<GraphRegistry>();
    Status added = registry->Add(
        kDefaultGraphName,
        std::make_unique<QueryContext>(GraphSubstrate(Graph(graph))));
    RWDOM_CHECK(added.ok()) << added;
    return registry;
  };
  auto make_server = [&](GraphRegistry* registry, ServerOptions options) {
    options.port = 0;
    return std::make_unique<QueryServer>(
        registry, ExecuteRequestToJsonLine, options);
  };

  std::vector<Row> rows;

  // Phase A: well provisioned — a shard for every client. The
  // healthy-path yardstick the degraded phases are read against.
  {
    auto registry = make_registry();
    ServerOptions options;
    options.threads = kClients;
    auto server = make_server(registry.get(), options);
    Status started = server->Start();
    RWDOM_CHECK(started.ok()) << started;

    std::vector<std::vector<std::string>> responses(kClients);
    WallTimer timer;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto result = RunQueryLines("127.0.0.1", server->port(), lines);
        RWDOM_CHECK(result.ok()) << "client " << c << ": "
                                 << result.status();
        responses[c] = std::move(*result);
      });
    }
    for (std::thread& client : clients) client.join();
    const double seconds = timer.Seconds();
    server->Shutdown();

    for (int c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < responses[c].size(); ++i) {
        check("baseline", i, responses[c][i]);
      }
    }
    Row row;
    row.phase = "baseline";
    row.clients = kClients;
    row.queries = static_cast<int64_t>(kClients) * kQueriesPerClient;
    row.seconds = seconds;
    row.qps = seconds > 0.0 ? row.queries / seconds : 0.0;
    rows.push_back(row);
  }

  // Phase B: starved — one shard, queue depth one, so most connects are
  // shed with a retry hint. Retrying clients must still deliver every
  // query, and every delivered byte must match the cold reference.
  {
    const std::string phase = "overload_shed_retry";
    auto registry = make_registry();
    ServerOptions options;
    options.threads = 1;
    options.max_queue_depth = 1;
    options.retry_after_ms = 2;
    auto server = make_server(registry.get(), options);
    Status started = server->Start();
    RWDOM_CHECK(started.ok()) << started;

    std::atomic<int64_t> retries{0};
    std::atomic<int64_t> delivered{0};
    WallTimer timer;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        RetryPolicy policy;
        policy.max_retries = 200;  // Generous: exhaustion fails the bench.
        policy.base_ms = 1;
        policy.max_backoff_ms = 20;
        policy.jitter_seed = args.seed + static_cast<uint64_t>(c);
        // Scoped so destruction closes the connection and frees a slot
        // under the shed threshold for the next client.
        RetryingClient client("127.0.0.1", server->port(), policy);
        for (size_t i = 0; i < lines.size(); ++i) {
          auto response = client.Roundtrip(lines[i]);
          RWDOM_CHECK(response.ok()) << "client " << c << ": "
                                     << response.status();
          check(phase, i, *response);
          delivered.fetch_add(1);
        }
        retries.fetch_add(client.retries_performed());
      });
    }
    for (std::thread& client : clients) client.join();
    const double seconds = timer.Seconds();
    const ServerStats stats = server->stats();
    server->Shutdown();

    Row row;
    row.phase = phase;
    row.clients = kClients;
    row.queries = delivered.load();
    row.retries = retries.load();
    row.seconds = seconds;
    row.qps = seconds > 0.0 ? row.queries / seconds : 0.0;
    rows.push_back(row);
    std::printf("%s: %lld connections shed by the server\n", phase.c_str(),
                static_cast<long long>(stats.requests_shed));
    if (row.queries !=
        static_cast<int64_t>(kClients) * kQueriesPerClient) {
      deterministic = false;
      std::fprintf(stderr, "%s lost queries: %lld of %lld\n", phase.c_str(),
                   static_cast<long long>(row.queries),
                   static_cast<long long>(kClients * kQueriesPerClient));
    }
  }

  // Phase C: every 10th send (greeting, request or response — client and
  // server share the process-wide fault site) fails with EPIPE. One
  // client reconnects through the carnage until every query is answered;
  // the answers must still be the cold bytes (the event loop arms the
  // fault site once per queued response).
  {
    const std::string phase = "fault_10pct_sends";
    auto registry = make_registry();
    ServerOptions options;
    options.threads = 2;
    auto server = make_server(registry.get(), options);
    Status started = server->Start();
    RWDOM_CHECK(started.ok()) << started;

    Status armed = ArmFaultsFromSpec("socket.send:%10:EPIPE");
    RWDOM_CHECK(armed.ok()) << armed;

    const int64_t target =
        static_cast<int64_t>(kClients) * kQueriesPerClient;
    int64_t delivered = 0;
    int64_t reconnects = 0;
    WallTimer timer;
    size_t next_query = 0;
    // A fresh connection per slice of queries; any transport error just
    // costs the connection, never the query (it is re-sent — the stream
    // is read-only, so replay is safe).
    while (delivered < target && reconnects < 50 * target) {
      auto client = QueryClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        ++reconnects;
        continue;
      }
      while (delivered < target) {
        auto response = client->Roundtrip(lines[next_query]);
        if (!response.ok()) {
          ++reconnects;
          break;  // Connection is dead; re-send this query on a new one.
        }
        check(phase, next_query, *response);
        next_query = (next_query + 1) % lines.size();
        ++delivered;
      }
    }
    const double seconds = timer.Seconds();
    ClearFaults();
    server->Shutdown();

    Row row;
    row.phase = phase;
    row.clients = 1;
    row.queries = delivered;
    row.retries = reconnects;
    row.seconds = seconds;
    row.qps = seconds > 0.0 ? row.queries / seconds : 0.0;
    rows.push_back(row);
    if (delivered != target) {
      deterministic = false;
      std::fprintf(stderr, "%s lost queries: %lld of %lld\n", phase.c_str(),
                   static_cast<long long>(delivered),
                   static_cast<long long>(target));
    }
    if (reconnects == 0) {
      deterministic = false;
      std::fprintf(stderr, "%s saw no failures — schedule never fired\n",
                   phase.c_str());
    }
  }
  SetNumThreads(0);

  TablePrinter table({"phase", "clients", "queries", "retries", "seconds",
                      "queries/sec"});
  for (const Row& row : rows) {
    table.AddRow({row.phase, std::to_string(row.clients),
                  std::to_string(row.queries), std::to_string(row.retries),
                  StrFormat("%.3f", row.seconds),
                  StrFormat("%.0f", row.qps)});
  }
  table.Print();
  std::printf("\nanswers byte-identical to the cold reference in every "
              "phase: %s\n",
              deterministic ? "yes" : "NO — BUG");

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("degradation");
  json.Key("graph").BeginObject();
  json.Key("model").String("er");
  json.Key("nodes").Int(n);
  json.Key("edges").Int(m);
  json.EndObject();
  json.Key("L").Int(length);
  json.Key("R").Int(replicates);
  json.Key("seed").Int(static_cast<int64_t>(args.seed));
  json.Key("queries_per_client").Int(kQueriesPerClient);
  json.Key("deterministic").Bool(deterministic);
  json.Key("series").BeginArray();
  for (const Row& row : rows) {
    json.BeginObject();
    json.Key("phase").String(row.phase);
    json.Key("clients").Int(row.clients);
    json.Key("queries").Int(row.queries);
    // Retry counts depend on scheduling; informational by name.
    json.Key("retries_per_second")
        .Number(row.seconds > 0.0 ? row.retries / row.seconds : 0.0);
    json.Key("seconds").Number(row.seconds);
    json.Key("queries_per_second").Number(row.qps);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  MaybeDumpJson(args, "degradation", json.ToString());

  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace rwdom

int main(int argc, char** argv) { return rwdom::Run(argc, argv); }
