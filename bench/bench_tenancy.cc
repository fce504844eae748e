// Multi-graph tenancy cost: queries/sec through one QueryServer
// hosting 1 vs 4 tenants, plus the router-hop overhead of fronting a
// 2-backend fleet with `rwdom route`'s consistent-hash proxy.
//
// Every sweep replays the same per-tenant query stream, and the driver
// verifies each tenant's responses — served multi-tenant, served
// direct, or served through the router — are byte-identical (modulo
// wall-clock fields) to a single-graph reference server's. That is the
// tenancy isolation gate: adding tenants or a routing hop must never
// change a single response byte. Exits non-zero on any divergence.
// The qps/overhead numbers are informational (tracked, not gated);
// index_builds is gated — one build per tenant context, exactly.
// JSON output: BENCH_tenancy.json via --json_dir.
#include <cstdio>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/query_line.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "server/client.h"
#include "server/router.h"
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

// The per-tenant stream: index-backed selects (cache hits after the
// first build) interleaved with sampled evaluate/knn, addressed to
// `graph` via the protocol v3 member ("" = the implicit default).
std::vector<std::string> QueryLines(const std::string& graph, int count,
                                    int32_t length, int32_t replicates,
                                    uint64_t seed) {
  const std::string suffix =
      graph.empty() ? "}" : ", \"graph\": \"" + graph + "\"}";
  std::vector<std::string> lines;
  for (int i = 0; i < count; ++i) {
    switch (i % 3) {
      case 0:
        lines.push_back(StrFormat(
            "{\"command\": \"select\", \"flags\": {\"problem\": \"F2\", "
            "\"method\": \"index-celf\", \"k\": 5, \"L\": %d, \"R\": %d, "
            "\"seed\": %llu}%s",
            length, replicates, static_cast<unsigned long long>(seed),
            suffix.c_str()));
        break;
      case 1:
        lines.push_back(StrFormat(
            "{\"command\": \"evaluate\", \"flags\": {\"seeds\": "
            "\"0,1,2\", \"L\": %d, \"R\": 100, \"seed\": %llu}%s",
            length, static_cast<unsigned long long>(seed),
            suffix.c_str()));
        break;
      default:
        lines.push_back(StrFormat(
            "{\"command\": \"knn\", \"flags\": {\"query\": %d, \"k\": 5, "
            "\"L\": %d, \"R\": %d, \"seed\": %llu, \"mode\": "
            "\"sampled\"}%s",
            i, length, replicates, static_cast<unsigned long long>(seed),
            suffix.c_str()));
    }
  }
  return lines;
}

std::unique_ptr<GraphRegistry> MakeRegistry(
    const Graph& graph, const std::vector<std::string>& tenants) {
  auto registry = std::make_unique<GraphRegistry>();
  for (const std::string& name : tenants) {
    Status added = registry->Add(
        name,
        std::make_unique<QueryContext>(GraphSubstrate(Graph(graph))));
    RWDOM_CHECK(added.ok()) << added;
  }
  return registry;
}

// One concurrent client per line vector; returns wall seconds and the
// responses, per client, in request order.
struct SweepResult {
  double seconds = 0.0;
  std::vector<std::vector<std::string>> responses;
};

SweepResult RunSweep(int port,
                     const std::vector<std::vector<std::string>>& clients) {
  SweepResult result;
  result.responses.resize(clients.size());
  std::vector<std::thread> threads;
  WallTimer timer;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      auto got = RunQueryLines("127.0.0.1", port, clients[c]);
      RWDOM_CHECK(got.ok()) << "client " << c << ": " << got.status();
      result.responses[c] = std::move(*got);
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.seconds = timer.Seconds();
  return result;
}

int Run(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintBanner("tenancy",
              "1 vs 4 tenants through one server + the router hop over "
              "a 2-backend fleet, with a byte-identity gate",
              args);

  const NodeId n = args.full ? 20000 : 2000;
  const int64_t m = args.full ? 100000 : 10000;
  const int32_t length = 6;
  const int32_t replicates = args.full ? 50 : 20;
  const int kQueriesPerClient = args.full ? 30 : 12;
  const std::vector<std::string> kTenants = {std::string(kDefaultGraphName),
                                             "t1", "t2", "t3"};

  Graph graph = GenerateErdosRenyiGnm(n, m, args.seed).value();
  std::printf("graph: ER n=%d m=%lld; %zu tenants, %d queries/client\n\n",
              n, static_cast<long long>(m), kTenants.size(),
              kQueriesPerClient);

  // The serving configuration: no intra-query parallelism, concurrency
  // comes from the server's shards.
  SetNumThreads(1);
  ServerOptions options;
  options.port = 0;
  options.threads = 4;

  bool deterministic = true;
  // The reference bytes: one single-graph server answering the keyless
  // v2 stream (normalized once, compared against every other sweep).
  const std::vector<std::string> keyless =
      QueryLines("", kQueriesPerClient, length, replicates, args.seed);
  std::vector<std::string> reference;
  const auto check = [&](const std::vector<std::string>& responses,
                         const char* sweep, size_t client) {
    for (size_t q = 0; q < responses.size(); ++q) {
      const std::string normalized = NormalizeSeconds(responses[q]);
      if (q == reference.size()) {
        reference.push_back(normalized);
      } else if (normalized != reference[q]) {
        deterministic = false;
        std::fprintf(stderr,
                     "MISMATCH sweep=%s client=%zu query=%zu:\n"
                     "  want: %s\n  got:  %s\n",
                     sweep, client, q, reference[q].c_str(),
                     normalized.c_str());
      }
    }
  };

  struct Row {
    std::string sweep;
    int tenants = 0;
    int clients = 0;
    double seconds = 0.0;
    double qps = 0.0;
    int64_t index_builds = 0;
  };
  std::vector<Row> rows;
  const auto add_row = [&](std::string sweep, int tenants,
                           const SweepResult& result,
                           int64_t index_builds) {
    Row row;
    row.sweep = std::move(sweep);
    row.tenants = tenants;
    row.clients = static_cast<int>(result.responses.size());
    row.seconds = result.seconds;
    const double total =
        static_cast<double>(row.clients) * kQueriesPerClient;
    row.qps = result.seconds > 0.0 ? total / result.seconds : 0.0;
    row.index_builds = index_builds;
    rows.push_back(row);
  };
  const auto total_builds = [](const GraphRegistry& registry) {
    int64_t builds = 0;
    for (const ResolvedGraph& graph : registry.Graphs()) {
      builds += graph.context->index_builds();
    }
    return builds;
  };

  // ---- Sweep 1: one tenant, four clients on the keyless stream. ----
  {
    auto registry = MakeRegistry(graph, {kTenants[0]});
    QueryServer server(registry.get(), ExecuteRequestToJsonLine, options);
    RWDOM_CHECK(server.Start().ok());
    SweepResult result = RunSweep(
        server.port(),
        std::vector<std::vector<std::string>>(kTenants.size(), keyless));
    server.Shutdown();
    for (size_t c = 0; c < result.responses.size(); ++c) {
      check(result.responses[c], "1-tenant", c);
    }
    add_row("tenants", 1, result, total_builds(*registry));
  }

  // ---- Sweep 2: four tenants, one client per tenant. Each tenant's
  // bytes must be the single-graph reference — tenants are isolated
  // namespaces over the same engine, not a new code path. ----
  {
    auto registry = MakeRegistry(graph, kTenants);
    QueryServer server(registry.get(), ExecuteRequestToJsonLine, options);
    RWDOM_CHECK(server.Start().ok());
    std::vector<std::vector<std::string>> clients;
    for (const std::string& tenant : kTenants) {
      clients.push_back(QueryLines(tenant == kDefaultGraphName ? "" : tenant,
                                   kQueriesPerClient, length, replicates,
                                   args.seed));
    }
    SweepResult result = RunSweep(server.port(), clients);
    server.Shutdown();
    for (size_t c = 0; c < result.responses.size(); ++c) {
      check(result.responses[c], "4-tenant", c);
    }
    add_row("tenants", 4, result, total_builds(*registry));
  }

  // ---- Sweep 3 + 4: the same 4-tenant stream direct to one backend,
  // then through a router fronting two such backends. The router adds
  // a hop, never a byte. ----
  double direct_seconds = 0.0;
  {
    auto registry_a = MakeRegistry(graph, kTenants);
    auto registry_b = MakeRegistry(graph, kTenants);
    QueryServer backend_a(registry_a.get(), ExecuteRequestToJsonLine,
                          options);
    QueryServer backend_b(registry_b.get(), ExecuteRequestToJsonLine,
                          options);
    RWDOM_CHECK(backend_a.Start().ok());
    RWDOM_CHECK(backend_b.Start().ok());

    std::vector<std::vector<std::string>> clients;
    for (const std::string& tenant : kTenants) {
      clients.push_back(QueryLines(tenant == kDefaultGraphName ? "" : tenant,
                                   kQueriesPerClient, length, replicates,
                                   args.seed));
    }
    SweepResult direct = RunSweep(backend_a.port(), clients);
    direct_seconds = direct.seconds;
    for (size_t c = 0; c < direct.responses.size(); ++c) {
      check(direct.responses[c], "direct", c);
    }
    add_row("router", 4, direct, 0);
    rows.back().sweep = "direct";

    QueryRouter router(
        {"127.0.0.1:" + std::to_string(backend_a.port()),
         "127.0.0.1:" + std::to_string(backend_b.port())},
        RouterOptions{});
    RWDOM_CHECK(router.Start().ok());
    SweepResult routed = RunSweep(router.port(), clients);
    for (size_t c = 0; c < routed.responses.size(); ++c) {
      check(routed.responses[c], "routed", c);
    }
    add_row("routed", 4, routed, 0);
    router.Shutdown();
    backend_a.Shutdown();
    backend_b.Shutdown();
  }
  SetNumThreads(0);

  TablePrinter table({"sweep", "tenants", "clients", "seconds",
                      "queries/sec", "idx builds"});
  for (const Row& row : rows) {
    table.AddRow({row.sweep, std::to_string(row.tenants),
                  std::to_string(row.clients),
                  StrFormat("%.3f", row.seconds),
                  StrFormat("%.0f", row.qps),
                  std::to_string(row.index_builds)});
  }
  table.Print();
  const double router_overhead =
      direct_seconds > 0.0 ? rows.back().seconds / direct_seconds : 0.0;
  std::printf("\nrouter hop overhead: %.2fx wall time\n", router_overhead);
  std::printf("responses byte-identical across tenancy, direct and "
              "routed sweeps: %s\n",
              deterministic ? "yes" : "NO — BUG");

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("tenancy");
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
  json.Key("router_overhead_x").Number(router_overhead);
  json.Key("series").BeginArray();
  for (const Row& row : rows) {
    json.BeginObject();
    json.Key("sweep").String(row.sweep);
    json.Key("tenants").Int(row.tenants);
    json.Key("clients").Int(row.clients);
    json.Key("seconds").Number(row.seconds);
    json.Key("queries_per_second").Number(row.qps);
    json.Key("index_builds").Int(row.index_builds);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  MaybeDumpJson(args, "tenancy", json.ToString());

  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace rwdom

int main(int argc, char** argv) { return rwdom::Run(argc, argv); }
