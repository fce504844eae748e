// `rwdom serve`: a long-lived TCP query server over warm
// QueryContexts — the build-once/query-many economics of `rwdom batch`,
// made available to many concurrent clients. Substrates are loaded
// once at startup; every connection speaks the JSONL batch-script
// protocol and gets responses bit-identical to cold
// `rwdom <command> --format=json` runs. SIGINT/SIGTERM or a
// {"command": "shutdown"} request shut down gracefully (in-flight
// requests finish and are answered).
//
// Multi-graph tenancy (protocol v3): besides the default substrate
// (--graph=FILE | --dataset=NAME), repeatable
// `--graph NAME=PATH[,weighted][,directed]` flags register named
// tenants; request lines pick theirs with `"graph": "NAME"`. All
// tenants share one --max_cache_bytes budget (global LRU), and with
// --cache_dir each named tenant persists under its own subdirectory
// (the default tenant keeps the v2 flat layout).
#include <csignal>

#include <atomic>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "cli/command_registry.h"
#include "cli/flag_parsing.h"
#include "cli/query_line.h"
#include "persist/artifact_cache.h"
#include "server/server.h"
#include "service/graph_registry.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace rwdom {
namespace {

/// One `--graph NAME=PATH[,weighted][,directed]` tenant spec.
struct TenantSpec {
  std::string name;
  std::string path;
  SubstrateOptions options;
};

Result<TenantSpec> ParseTenantSpec(const std::string& value) {
  const size_t eq = value.find('=');
  TenantSpec spec;
  spec.name = value.substr(0, eq);
  if (!IsValidGraphName(spec.name)) {
    return Status::InvalidArgument(
        "invalid graph name \"" + spec.name + "\" in --graph=" + value +
        " (use [A-Za-z0-9_.-]+)");
  }
  std::string rest = value.substr(eq + 1);
  size_t start = 0;
  bool first = true;
  while (start <= rest.size()) {
    size_t comma = rest.find(',', start);
    if (comma == std::string::npos) comma = rest.size();
    const std::string token = rest.substr(start, comma - start);
    if (first) {
      spec.path = token;
      first = false;
    } else if (token == "weighted") {
      spec.options.weights = SubstrateWeights::kForce;
    } else if (token == "directed") {
      spec.options.directed = true;
    } else {
      return Status::InvalidArgument(
          "unknown tenant option \"" + token + "\" in --graph=" + value +
          " (use weighted and/or directed)");
    }
    start = comma + 1;
  }
  if (spec.path.empty()) {
    return Status::InvalidArgument("tenant spec needs a path: --graph=" +
                                   value);
  }
  return spec;
}

// SIGINT/SIGTERM route through NotifyShutdown, the only QueryServer
// entry point that is async-signal-safe (it just writes one byte to the
// server's wake pipe).
std::atomic<QueryServer*> g_signal_server{nullptr};

void HandleShutdownSignal(int /*signo*/) {
  QueryServer* server = g_signal_server.load();
  if (server != nullptr) server->NotifyShutdown();
}

class ScopedShutdownSignals {
 public:
  explicit ScopedShutdownSignals(QueryServer* server) {
    g_signal_server.store(server);
    struct sigaction action = {};
    action.sa_handler = HandleShutdownSignal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, &previous_int_);
    sigaction(SIGTERM, &action, &previous_term_);
  }
  ~ScopedShutdownSignals() {
    sigaction(SIGINT, &previous_int_, nullptr);
    sigaction(SIGTERM, &previous_term_, nullptr);
    g_signal_server.store(nullptr);
  }

 private:
  struct sigaction previous_int_ = {};
  struct sigaction previous_term_ = {};
};

Status RunServe(const CommandEnv& env) {
  ServerOptions options;
  RWDOM_ASSIGN_OR_RETURN(int64_t port,
                         IntFlagOr(env.invocation, "port", 7117));
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in [0, 65535]");
  }
  options.port = static_cast<int>(port);
  options.host = FlagOr(env.invocation, "bind", "127.0.0.1");
  RWDOM_ASSIGN_OR_RETURN(int64_t max_connections,
                         IntFlagOr(env.invocation, "max_connections", 64));
  if (max_connections < 1 || max_connections > 65536) {
    return Status::InvalidArgument(
        "--max_connections must be in [1, 65536]");
  }
  options.max_connections = static_cast<int>(max_connections);
  // The global --threads (or RWDOM_THREADS) doubles as the serving
  // width — the event-loop shard count: one knob for "how parallel is
  // this process". Within a dispatch, nested compute parallelism shares
  // the one process-wide pool.
  options.threads = NumThreads();
  RWDOM_ASSIGN_OR_RETURN(int64_t request_timeout_ms,
                         IntFlagOr(env.invocation, "request_timeout_ms", 0));
  if (request_timeout_ms < 0) {
    return Status::InvalidArgument("--request_timeout_ms must be >= 0");
  }
  options.request_timeout_ms = static_cast<int>(request_timeout_ms);
  RWDOM_ASSIGN_OR_RETURN(
      int64_t write_timeout_ms,
      IntFlagOr(env.invocation, "write_timeout_ms", 30'000));
  if (write_timeout_ms < 0) {
    return Status::InvalidArgument("--write_timeout_ms must be >= 0");
  }
  options.write_timeout_ms = static_cast<int>(write_timeout_ms);
  RWDOM_ASSIGN_OR_RETURN(
      int64_t max_request_bytes,
      IntFlagOr(env.invocation, "max_request_bytes",
                static_cast<int64_t>(LineReader::kDefaultMaxLineBytes)));
  if (max_request_bytes < 64) {
    return Status::InvalidArgument("--max_request_bytes must be >= 64");
  }
  options.max_request_bytes = static_cast<size_t>(max_request_bytes);
  RWDOM_ASSIGN_OR_RETURN(int64_t max_queue_depth,
                         IntFlagOr(env.invocation, "max_queue_depth", 0));
  if (max_queue_depth < 0) {
    return Status::InvalidArgument("--max_queue_depth must be >= 0");
  }
  options.max_queue_depth = static_cast<int>(max_queue_depth);
  RWDOM_ASSIGN_OR_RETURN(int64_t retry_after_ms,
                         IntFlagOr(env.invocation, "retry_after_ms", 250));
  if (retry_after_ms < 0) {
    return Status::InvalidArgument("--retry_after_ms must be >= 0");
  }
  options.retry_after_ms = static_cast<int>(retry_after_ms);
  RWDOM_ASSIGN_OR_RETURN(
      int64_t write_buffer_bytes,
      IntFlagOr(env.invocation, "write_buffer_bytes",
                static_cast<int64_t>(options.write_buffer_bytes)));
  if (write_buffer_bytes < 1024) {
    return Status::InvalidArgument("--write_buffer_bytes must be >= 1024");
  }
  options.write_buffer_bytes = static_cast<size_t>(write_buffer_bytes);
  RWDOM_ASSIGN_OR_RETURN(int64_t max_cache_bytes,
                         IntFlagOr(env.invocation, "max_cache_bytes", 0));
  if (max_cache_bytes < 0) {
    return Status::InvalidArgument("--max_cache_bytes must be >= 0");
  }
  const std::string port_file = FlagOr(env.invocation, "port_file", "");
  const std::string cache_dir = FlagOr(env.invocation, "cache_dir", "");
  if (!cache_dir.empty()) options.capabilities.push_back("cache");

  // Partition the repeated --graph occurrences: values with '=' are
  // named tenant specs (NAME=PATH[,weighted][,directed]); a plain value
  // is the v2 spelling of the default tenant's edge list.
  std::vector<TenantSpec> tenant_specs;
  std::string default_graph_file;
  for (const std::string& value :
       RepeatedFlagValues(env.invocation, "graph")) {
    if (value.find('=') != std::string::npos) {
      RWDOM_ASSIGN_OR_RETURN(TenantSpec spec, ParseTenantSpec(value));
      tenant_specs.push_back(std::move(spec));
    } else {
      default_graph_file = value;
    }
  }
  // The default tenant resolves through the unchanged substrate path
  // (--graph=FILE | --dataset=NAME), with the tenant specs stripped so
  // they cannot masquerade as an edge-list path.
  CliInvocation default_invocation = env.invocation;
  if (default_graph_file.empty()) {
    default_invocation.flags.erase("graph");
  } else {
    default_invocation.flags["graph"] = default_graph_file;
  }
  if (default_invocation.flags.count("graph") == 0 &&
      default_invocation.flags.count("dataset") == 0) {
    return Status::InvalidArgument(
        "serve needs a default substrate (--graph=FILE or --dataset=NAME) "
        "besides named --graph NAME=PATH tenants");
  }
  RWDOM_ASSIGN_OR_RETURN(LoadedSubstrate loaded,
                         ResolveSubstrate(default_invocation));

  GraphRegistry registry;
  // Budget set before any tenant loads or recovery, so every adoption
  // and build respects the fleet-wide cap from byte one.
  registry.set_max_cache_bytes(max_cache_bytes);
  RWDOM_RETURN_IF_ERROR(registry.Add(
      kDefaultGraphName, std::make_unique<QueryContext>(std::move(loaded))));
  for (const TenantSpec& spec : tenant_specs) {
    RWDOM_ASSIGN_OR_RETURN(LoadedSubstrate tenant_loaded,
                           LoadSubstrate(spec.path, spec.options));
    RWDOM_RETURN_IF_ERROR(registry.Add(
        spec.name,
        std::make_unique<QueryContext>(std::move(tenant_loaded))));
  }

  // Declared after the registry and before the server, so destruction
  // runs server (shards join, no more builds) -> caches (writers
  // drain) -> contexts — every order-sensitive handoff is scoped. The
  // default tenant keeps the v2 flat layout at the cache_dir root;
  // named tenants get their own subdirectory.
  std::vector<std::unique_ptr<ArtifactCache>> caches;
  int64_t recovered = 0;
  if (!cache_dir.empty()) {
    for (const ResolvedGraph& graph : registry.Graphs()) {
      const std::string tenant_dir = *graph.name == kDefaultGraphName
                                         ? cache_dir
                                         : cache_dir + "/" + *graph.name;
      caches.push_back(std::make_unique<ArtifactCache>(tenant_dir));
      // Warm start: adopt every compatible snapshot before the listener
      // is up, so even the first query finds the index without building.
      RWDOM_ASSIGN_OR_RETURN(int64_t adopted,
                             caches.back()->RecoverInto(*graph.context));
      recovered += adopted;
      caches.back()->AttachCheckpointHook(*graph.context);
    }
  }

  QueryServer server(&registry, ExecuteRequestToJsonLine, options);
  // Handlers go in before the listener is up (and before --port_file
  // announces readiness), so there is no window where a Ctrl-C is
  // dropped; NotifyShutdown is valid from construction.
  ScopedShutdownSignals signals(&server);
  RWDOM_RETURN_IF_ERROR(server.Start());

  if (!port_file.empty()) {
    // Written only after the listener is live, so "the file exists"
    // means "you can connect" — the handshake scripts and tests use.
    std::ofstream file(port_file, std::ios::trunc);
    if (!file) {
      server.Shutdown();
      return Status::IoError("cannot write --port_file: " + port_file);
    }
    file << server.port() << "\n";
  }

  env.out << StrFormat(
      "serving %s substrate on %s:%d (io=epoll, threads=%d, "
      "max_connections=%d, protocol_version=%d)\n",
      registry.default_context()->substrate().kind().c_str(),
      options.host.c_str(), server.port(), options.threads,
      options.max_connections, kProtocolVersion);
  if (registry.multi_graph()) {
    std::string names;
    for (const std::string& name : registry.GraphNames()) {
      if (!names.empty()) names += ", ";
      names += name;
    }
    env.out << StrFormat("graphs: %s (%d tenants, shared cache budget)\n",
                         names.c_str(), static_cast<int>(registry.size()));
  }
  if (!caches.empty()) {
    int64_t rejected = 0;
    for (const ResolvedGraph& graph : registry.Graphs()) {
      rejected += graph.context->persistence().snapshots_rejected;
    }
    env.out << StrFormat(
        "cache: %s (snapshots recovered=%lld, rejected=%lld)\n",
        cache_dir.c_str(), static_cast<long long>(recovered),
        static_cast<long long>(rejected));
  }
  env.out << "protocol: one JSONL request per line (see `rwdom help "
             "serve`); Ctrl-C or {\"command\": \"shutdown\"} to stop\n";
  env.out.flush();

  server.Wait();

  // Publish queued checkpoints before the summary so its counters are
  // the final ones for this run.
  for (const auto& cache : caches) cache->Flush();
  const ServerStats stats = server.stats();
  if (env.format == OutputFormat::kJson) {
    JsonWriter json;
    json.BeginObject();
    json.Key("serve_summary").BeginObject();
    json.Key("substrate")
        .String(registry.default_context()->substrate().kind());
    json.Key("queries_ok").Int(stats.queries_ok);
    json.Key("queries_error").Int(stats.queries_error);
    json.Key("connections_accepted").Int(stats.connections_accepted);
    json.Key("connections_rejected").Int(stats.connections_rejected);
    json.Key("graph_loads").Int(stats.graph_loads);
    json.Key("index_builds").Int(stats.index_builds);
    json.Key("index_hits").Int(stats.index_hits);
    json.Key("index_recovered").Int(stats.index_recovered);
    json.Key("cached_bytes").Int(stats.cached_bytes);
    json.Key("cache_dir").String(stats.persistence.cache_dir);
    json.Key("snapshots_recovered").Int(stats.persistence.snapshots_recovered);
    json.Key("snapshots_rejected").Int(stats.persistence.snapshots_rejected);
    json.Key("checkpoints_written").Int(stats.persistence.checkpoints_written);
    json.EndObject();
    json.EndObject();
    env.out << json.ToString() << "\n";
  } else {
    // The single-graph wording is the v2 line byte for byte; multi-graph
    // runs spell out the tenant count instead of "one ... substrate".
    const std::string substrate_phrase =
        registry.multi_graph()
            ? StrFormat("%d substrates", static_cast<int>(registry.size()))
            : StrFormat(
                  "one %s substrate",
                  registry.default_context()->substrate().kind().c_str());
    env.out << StrFormat(
        "serve: %lld queries (ok=%lld, errors=%lld) over %lld connections "
        "on %s (graph loads=%lld, index builds=%lld, "
        "index hits=%lld, index recovered=%lld, cached bytes=%lld)\n",
        static_cast<long long>(stats.queries_ok + stats.queries_error),
        static_cast<long long>(stats.queries_ok),
        static_cast<long long>(stats.queries_error),
        static_cast<long long>(stats.connections_accepted),
        substrate_phrase.c_str(),
        static_cast<long long>(stats.graph_loads),
        static_cast<long long>(stats.index_builds),
        static_cast<long long>(stats.index_hits),
        static_cast<long long>(stats.index_recovered),
        static_cast<long long>(stats.cached_bytes));
    if (!stats.persistence.cache_dir.empty()) {
      env.out << StrFormat(
          "cache: %s (recovered=%lld, rejected=%lld, checkpoints=%lld)\n",
          stats.persistence.cache_dir.c_str(),
          static_cast<long long>(stats.persistence.snapshots_recovered),
          static_cast<long long>(stats.persistence.snapshots_rejected),
          static_cast<long long>(stats.persistence.checkpoints_written));
    }
  }
  return Status::OK();
}

}  // namespace

CommandDef MakeServeCommand() {
  CommandDef def;
  def.name = "serve";
  def.summary = "serve JSONL queries over TCP from warm engines";
  def.usage =
      "rwdom serve (--graph=FILE | --dataset=NAME) "
      "[--graph NAME=PATH[,weighted][,directed] ...] [--port=7117] "
      "[--max_connections=64] [--threads=N] [--cache_dir=DIR]\n       "
      "request lines (same "
      "as batch scripts): {\"command\": \"select|evaluate|knn|cover|"
      "stats\", \"flags\": {...}, \"graph\": \"NAME\"}\n       "
      "(\"graph\" optional: omitted lines hit the default substrate)\n"
      "       admin requests: {\"command\": "
      "\"server_stats\"} (optional \"graph\" filter) and {\"command\": "
      "\"shutdown\"}";
  def.flags = WithSubstrateFlags({
      {"port", "N", "TCP port to listen on; 0 picks an ephemeral port "
                    "(default 7117)"},
      {"bind", "ADDR", "bind address (default 127.0.0.1; use 0.0.0.0 to "
                       "expose beyond localhost)"},
      {"max_connections", "N",
       "open-connection cap; excess connections are refused (default 64)"},
      {"request_timeout_ms", "N",
       "per-request deadline; late requests answer a DeadlineExceeded "
       "error (default 0 = unlimited)"},
      {"write_timeout_ms", "N",
       "drop a connection whose client stops reading responses for this "
       "long (default 30000; 0 = unlimited)"},
      {"max_request_bytes", "N",
       "per-request-line byte cap; overlong lines answer InvalidArgument "
       "(default 1048576)"},
      {"max_queue_depth", "N",
       "shed new connections (Unavailable + retry_after_ms) once more "
       "than --threads + N are open (default 0 = unbounded)"},
      {"retry_after_ms", "N",
       "backoff hint carried in shed/refusal errors (default 250)"},
      {"write_buffer_bytes", "N",
       "per-connection cap on buffered response bytes; a peer that stops "
       "draining past it is paused (backpressure) (default 262144)"},
      {"max_cache_bytes", "N",
       "index-cache memory budget, global across every served graph: "
       "LRU-evict fleet-wide under pressure, refuse builds that can "
       "never fit (default 0 = unlimited)"},
      {"port_file", "FILE", "write the bound port here once listening "
                            "(handshake for scripts/tests)"},
      {"cache_dir", "DIR",
       "persistent index cache: recover matching snapshots at boot "
       "(warm start) and checkpoint new builds in the background"},
  });
  def.handler = RunServe;
  return def;
}

}  // namespace rwdom
