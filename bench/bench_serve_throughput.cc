// Serving throughput: queries/sec and per-request latency through a
// live `rwdom serve`-style QueryServer as the concurrent-connection
// count grows, at a fixed serving width of 4 event-loop shards.
//
// Protocol matches production exactly: the JSONL query-line path over
// real sockets, one server per sweep point, a fresh context per sweep
// (so each sweep pays exactly one index build and then serves cache
// hits). The compute pool is pinned to 1 thread — the serving
// configuration: inter-query parallelism via shards, no
// intra-query parallelism — so the sweep isolates the server layer.
//
// Every client sends the same query-sequence prefix; the driver
// verifies all responses (modulo wall-clock fields) are identical
// across clients and connection counts, and exits non-zero
// on any divergence — the concurrent-serving determinism gate. The
// qps/latency numbers are informational (tracked, not gated). JSON
// output: BENCH_serve_throughput.json via --json_dir.
#include <algorithm>
#include <cstdio>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/query_line.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "server/server.h"
#include "service/graph_registry.h"
#include "service/query_context.h"
#include "util/json.h"
#include "util/logging.h"
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

double Percentile(std::vector<double> sorted_ascending, double fraction) {
  if (sorted_ascending.empty()) return 0.0;
  const size_t index = std::min(
      sorted_ascending.size() - 1,
      static_cast<size_t>(fraction *
                          static_cast<double>(sorted_ascending.size())));
  return sorted_ascending[index];
}

/// One client: sequential request/response roundtrips with per-request
/// wall timing (pipelining is covered by server_pipelining_test; here
/// each latency sample must isolate exactly one request).
struct ClientRun {
  std::vector<std::string> responses;
  std::vector<double> latencies_seconds;
  Status status = Status::OK();
};

ClientRun RunTimedClient(int port, const std::vector<std::string>& lines) {
  ClientRun run;
  auto connection = TcpConnect("127.0.0.1", port);
  if (!connection.ok()) {
    run.status = connection.status();
    return run;
  }
  LineReader reader(connection->get());
  std::string greeting;
  auto outcome = reader.ReadLine(&greeting);
  if (!outcome.ok() || *outcome != LineReader::Outcome::kLine) {
    run.status = Status::IoError("no greeting");
    return run;
  }
  for (const std::string& line : lines) {
    WallTimer timer;
    Status sent = SendAll(connection->get(), line + "\n");
    if (!sent.ok()) {
      run.status = sent;
      return run;
    }
    std::string response;
    outcome = reader.ReadLine(&response);
    if (!outcome.ok() || *outcome != LineReader::Outcome::kLine) {
      run.status = Status::IoError("connection closed mid-stream");
      return run;
    }
    run.latencies_seconds.push_back(timer.Seconds());
    run.responses.push_back(std::move(response));
  }
  return run;
}

int Run(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintBanner("serve_throughput",
              "queries/sec + latency through the TCP query server vs "
              "connection count",
              args);

  const NodeId n = args.full ? 20000 : 2000;
  const int64_t m = args.full ? 100000 : 10000;
  const int32_t length = 6;
  const int32_t replicates = args.full ? 50 : 20;
  const int kServerThreads = 4;
  // The longest per-client sequence; smaller connection counts run
  // more queries per client so every sweep does comparable total work.
  const int kBaseQueries = args.full ? 60 : 24;

  Graph graph = GenerateErdosRenyiGnm(n, m, args.seed).value();
  std::printf("graph: ER n=%d m=%lld; server threads=%d\n\n", n,
              static_cast<long long>(m), kServerThreads);

  // Serving configuration: one compute thread per query, concurrency
  // across queries comes from the server's shards.
  SetNumThreads(1);

  // A mixed request stream on one (L, R, seed) key: index-backed
  // selects (cache hits after the first build), sampled metrics and
  // sampled knn (fresh walks each time).
  std::vector<std::string> lines;
  for (int i = 0; i < kBaseQueries; ++i) {
    switch (i % 3) {
      case 0:
        lines.push_back(StrFormat(
            "{\"command\": \"select\", \"flags\": {\"problem\": \"F2\", "
            "\"method\": \"index-celf\", \"k\": 5, \"L\": %d, \"R\": %d, "
            "\"seed\": %llu}}",
            length, replicates,
            static_cast<unsigned long long>(args.seed)));
        break;
      case 1:
        lines.push_back(StrFormat(
            "{\"command\": \"evaluate\", \"flags\": {\"seeds\": "
            "\"0,1,2\", \"L\": %d, \"R\": 100, \"seed\": %llu}}",
            length, static_cast<unsigned long long>(args.seed)));
        break;
      default:
        lines.push_back(StrFormat(
            "{\"command\": \"knn\", \"flags\": {\"query\": %d, \"k\": 5, "
            "\"L\": %d, \"R\": %d, \"seed\": %llu, \"mode\": "
            "\"sampled\"}}",
            i % n, length, replicates,
            static_cast<unsigned long long>(args.seed)));
    }
  }

  struct Row {
    int connections = 0;
    int queries_per_client = 0;
    double seconds = 0.0;
    double qps = 0.0;
    double p50_seconds = 0.0;
    double p99_seconds = 0.0;
    int64_t index_builds = 0;
    int64_t index_hits = 0;
  };
  std::vector<Row> rows;
  std::vector<std::string> reference;  // Normalized responses, sweep 1.
  bool deterministic = true;

  const std::vector<int> connection_counts = {4, 16, 64};
  for (int connections : connection_counts) {
    // Comparable total work per sweep: ~kBaseQueries * 4 queries,
    // spread over however many connections this sweep opens.
    const int queries_per_client =
        std::max(2, kBaseQueries * 4 / connections);
    const std::vector<std::string> client_lines(
        lines.begin(),
        lines.begin() + std::min<size_t>(lines.size(),
                                         static_cast<size_t>(
                                             queries_per_client)));

    GraphRegistry registry;
    Status added = registry.Add(
        kDefaultGraphName, std::make_unique<QueryContext>(
                               GraphSubstrate(Graph(graph))));
    RWDOM_CHECK(added.ok()) << added;
    QueryContext& context = *registry.default_context();
    ServerOptions options;
    options.port = 0;
    options.threads = kServerThreads;
    options.max_connections = connections + 1;
    QueryServer server(&registry, ExecuteRequestToJsonLine, options);
    Status started = server.Start();
    RWDOM_CHECK(started.ok()) << started;

    std::vector<ClientRun> runs(connections);
    WallTimer timer;
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        runs[c] = RunTimedClient(server.port(), client_lines);
      });
    }
    for (std::thread& client : clients) client.join();
    const double seconds = timer.Seconds();
    server.Shutdown();

    // Determinism gate: every client, every connection count — same
    // bytes per query index.
    std::vector<double> latencies;
    for (int c = 0; c < connections; ++c) {
      RWDOM_CHECK(runs[c].status.ok())
          << "client " << c << ": " << runs[c].status;
      latencies.insert(latencies.end(),
                       runs[c].latencies_seconds.begin(),
                       runs[c].latencies_seconds.end());
      for (size_t i = 0; i < runs[c].responses.size(); ++i) {
        const std::string normalized =
            NormalizeSeconds(runs[c].responses[i]);
        if (i == reference.size()) {
          reference.push_back(normalized);
        } else if (normalized != reference[i]) {
          deterministic = false;
          std::fprintf(stderr,
                       "MISMATCH connections=%d client=%d "
                       "query=%zu:\n  want: %s\n  got:  %s\n",
                       connections, c, i,
                       reference[i].c_str(), normalized.c_str());
        }
      }
    }
    std::sort(latencies.begin(), latencies.end());

    Row row;
    row.connections = connections;
    row.queries_per_client = queries_per_client;
    row.seconds = seconds;
    const double total =
        static_cast<double>(connections) * queries_per_client;
    row.qps = seconds > 0.0 ? total / seconds : 0.0;
    row.p50_seconds = Percentile(latencies, 0.50);
    row.p99_seconds = Percentile(latencies, 0.99);
    row.index_builds = context.index_builds();
    row.index_hits = context.index_hits();
    // One (L, R, seed) key across every client: the single-flight
    // cache must build exactly once however many shards collide.
    if (row.index_builds != 1) {
      deterministic = false;
      std::fprintf(stderr,
                   "connections=%d: expected 1 index build, got %lld\n",
                   connections,
                   static_cast<long long>(row.index_builds));
    }
    rows.push_back(row);
  }
  SetNumThreads(0);

  TablePrinter table({"connections", "q/client", "seconds",
                      "queries/sec", "p50 ms", "p99 ms", "idx builds",
                      "idx hits"});
  for (const Row& row : rows) {
    table.AddRow({std::to_string(row.connections),
                  std::to_string(row.queries_per_client),
                  StrFormat("%.3f", row.seconds),
                  StrFormat("%.0f", row.qps),
                  StrFormat("%.2f", row.p50_seconds * 1e3),
                  StrFormat("%.2f", row.p99_seconds * 1e3),
                  std::to_string(row.index_builds),
                  std::to_string(row.index_hits)});
  }
  table.Print();
  std::printf("\nresponses identical across clients and connection "
              "counts: %s\n",
              deterministic ? "yes" : "NO — BUG");

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("serve_throughput");
  json.Key("graph").BeginObject();
  json.Key("model").String("er");
  json.Key("nodes").Int(n);
  json.Key("edges").Int(m);
  json.EndObject();
  json.Key("L").Int(length);
  json.Key("R").Int(replicates);
  json.Key("seed").Int(static_cast<int64_t>(args.seed));
  json.Key("server_threads").Int(kServerThreads);
  json.Key("deterministic").Bool(deterministic);
  json.Key("series").BeginArray();
  for (const Row& row : rows) {
    json.BeginObject();
    json.Key("connections").Int(row.connections);
    json.Key("queries_per_client").Int(row.queries_per_client);
    json.Key("seconds").Number(row.seconds);
    json.Key("queries_per_second").Number(row.qps);
    json.Key("p50_latency_seconds").Number(row.p50_seconds);
    json.Key("p99_latency_seconds").Number(row.p99_seconds);
    json.Key("index_builds").Int(row.index_builds);
    json.Key("index_hits").Int(row.index_hits);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  MaybeDumpJson(args, "serve_throughput", json.ToString());

  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace rwdom

int main(int argc, char** argv) { return rwdom::Run(argc, argv); }
