// The long-lived TCP query server behind `rwdom serve`: many clients,
// one warm GraphRegistry of named tenants.
//
// Protocol: each connection is a bidirectional stream of '\n'-framed
// JSONL lines. Requests use the exact batch-script format,
//
//   {"command": "select", "flags": {"problem": "F2", "k": 5, "L": 4}}
//
// optionally naming a tenant with `"graph": "name"` (protocol v3;
// omitted = the default graph), and every request line yields exactly
// one JSON response line — the same line a cold
// `rwdom <command> --format=json` run prints against that substrate
// (the line executor is injected from the CLI layer, so the
// flag-parsing path is shared byte for byte). Failed requests answer
// {"error": {"code": ..., "message": ...}} and keep the connection
// open. Two admin requests are handled by the server itself:
//
//   {"command": "server_stats"}  -> cache/traffic counters; an optional
//                                   "graph" member filters the
//                                   per-graph section to one tenant
//   {"command": "shutdown"}      -> acknowledge, then graceful shutdown
//
// Concurrency: connections are accepted, greeted, refused, shed and
// served by a ConnectionFront (server/event_loop.h): `threads`
// non-blocking event-loop shards with request pipelining and
// per-connection backpressure. Every shard dispatches into the one
// GraphRegistry, whose per-tenant shared_mutex + single-flight caches
// make concurrent index builds safe and deduplicated — concurrent
// responses are bit-identical to cold CLI runs.
//
// Shutdown: NotifyShutdown() is async-signal-safe (a SIGINT handler may
// call it); in-flight requests finish and get their response, idle
// connections are closed, then every thread is joined.
#ifndef RWDOM_SERVER_SERVER_H_
#define RWDOM_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "server/event_loop.h"
#include "server/protocol.h"
#include "service/graph_registry.h"
#include "service/query_context.h"
#include "service/wire.h"
#include "util/clock.h"
#include "util/socket.h"
#include "util/status.h"

namespace rwdom {

struct ServerOptions {
  /// Bind address; the loopback default keeps a dev box private —
  /// deployments behind a proxy bind "0.0.0.0" explicitly.
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 picks an ephemeral port (see QueryServer::port()).
  int threads = 4;           ///< Event-loop shards (concurrent dispatches).
  int max_connections = 64;  ///< Open-connection cap; excess are refused
                             ///< with an {"error": ...} line.
  /// Per-request wall-clock budget, checked at dispatch boundaries via
  /// `clock`: a request found past its deadline answers a
  /// DeadlineExceeded error line (connection stays open). 0 = no limit.
  int request_timeout_ms = 0;
  /// Budget for a peer that stops draining its responses; past it the
  /// connection is dropped (write_timeouts counter). 0 = no limit.
  int write_timeout_ms = 30'000;
  /// Per-request-line byte cap; overlong lines answer InvalidArgument
  /// and the stream resyncs at the next newline.
  size_t max_request_bytes = LineReader::kDefaultMaxLineBytes;
  /// Once more than `threads` + this many connections are open, new
  /// ones are shed: an Unavailable error line carrying retry_after_ms,
  /// then close. 0 = unbounded.
  int max_queue_depth = 0;
  /// The backoff hint sent in shed/refusal error bodies.
  int retry_after_ms = 250;
  /// Per-connection cap on buffered, unsent response bytes. Crossing it
  /// pauses reads from that connection (backpressure) until the peer
  /// drains below half the cap.
  size_t write_buffer_bytes = kDefaultWriteBufferBytes;
  /// Deadline clock; nullptr means the real monotonic clock. Tests
  /// inject a FakeClock to expire deadlines deterministically.
  const Clock* clock = nullptr;
  /// Capability tags announced in the greeting and in `server_stats`.
  /// Callers with extra features (e.g. `serve --cache_dir`) append to
  /// the base list before constructing the server.
  std::vector<std::string> capabilities = BaseCapabilities();
};

/// One tenant's slice of the cache/traffic counters, the per-graph
/// section of the `server_stats` response.
struct GraphServeStats {
  std::string name;
  std::string substrate;  ///< Substrate kind ("graph" / "weighted_graph").
  uint64_t substrate_fingerprint = 0;
  int64_t cached_index_bytes = 0;
  int64_t index_hits = 0;
  int64_t metric_memo_hits = 0;    ///< Select metric passes memoized.
  int64_t metric_memo_misses = 0;  ///< Select metric passes computed.
  int64_t index_builds = 0;
  int64_t index_evictions = 0;
  int64_t admission_rejections = 0;
  int64_t requests = 0;  ///< Non-admin requests dispatched to this graph.
};

/// Traffic + cache counters, the `server_stats` endpoint's numbers.
/// Cache counters aggregate over every served graph (the budget is
/// fleet-wide); `graphs` carries the per-tenant breakdown.
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_rejected = 0;
  int64_t active_connections = 0;  ///< Open right now.
  int64_t queries_ok = 0;
  int64_t queries_error = 0;
  // Overload / robustness counters.
  int64_t requests_shed = 0;       ///< Connections shed at the queue cap.
  int64_t deadline_exceeded = 0;   ///< Requests past --request_timeout_ms.
  int64_t oversized_requests = 0;  ///< Lines over --max_request_bytes.
  int64_t write_timeouts = 0;      ///< Responses dropped on stalled peers.
  /// Connections whose reads were paused at the write-buffer cap. Normal
  /// flow control, not degradation: it does not move the health latch.
  int64_t backpressure_pauses = 0;
  int64_t index_evictions = 0;     ///< Cache entries evicted under budget.
  int64_t admission_rejections = 0;  ///< Builds refused by the budget.
  /// "ok", or "degraded" when any overload/failure counter moved since
  /// the previous stats() snapshot (a read-and-reset latch: one healthy
  /// interval returns the report to "ok").
  std::string health = "ok";
  // Warm-context amortization receipt (graph loads == the number of
  // served graphs by construction: every substrate is loaded once,
  // before the server starts).
  int64_t graph_loads = 1;
  int64_t index_builds = 0;
  int64_t index_hits = 0;
  int64_t metric_memo_hits = 0;
  int64_t metric_memo_misses = 0;
  int64_t index_recovered = 0;  ///< Indexes adopted from disk snapshots.
  int64_t cached_bytes = 0;
  /// What the cached indexes would occupy in the former raw-CSR layout
  /// (graph excluded) — together with cached_index_bytes it yields the
  /// live compression ratio.
  int64_t cached_index_bytes = 0;
  int64_t cached_index_raw_bytes = 0;
  /// Persistence block, counters summed over every tenant's
  /// QueryContext::persistence(); cache_dir is the default tenant's
  /// (all zeros / empty when the server runs without --cache_dir).
  PersistenceInfo persistence;
  /// Per-tenant breakdown, one entry per served graph in name order.
  std::vector<GraphServeStats> graphs;
};

class QueryServer {
 public:
  /// Executes one validated request envelope against the resolved
  /// tenant's context and fills `response` with exactly one JSON line
  /// (no trailing newline). Injected from the CLI layer
  /// (cli/query_line.h) so the server speaks the identical flag-parsing
  /// path as batch scripts and one-shot commands. Must be thread-safe:
  /// shards call it concurrently against shared contexts.
  using LineExecutor = std::function<Status(
      const ParsedRequest& request, QueryContext& context,
      std::string* response)>;

  /// The registry must be fully built (every tenant Added) before
  /// construction and outlive the server; a default tenant is required.
  QueryServer(GraphRegistry* registry, LineExecutor executor,
              ServerOptions options);

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens and spawns the accept + shard threads. Call once.
  Status Start();

  /// The actually bound port (== options.port unless that was 0).
  int port() const { return front_.port(); }

  /// Begins a graceful shutdown. Async-signal-safe: only writes one
  /// byte to an internal pipe, so SIGINT handlers may call it.
  void NotifyShutdown() { front_.NotifyShutdown(); }

  /// NotifyShutdown + wait for every thread to finish. Idempotent.
  void Shutdown() { front_.Shutdown(); }

  /// Blocks until the server shut down (admin request, NotifyShutdown,
  /// or a fatal accept error) and every thread is joined.
  void Wait() { front_.Wait(); }

  ServerStats stats() const;

 private:
  /// One request line -> one response line (admin or via executor_).
  /// The request's --request_timeout_ms budget starts here; a request
  /// past it answers DeadlineExceeded instead of executing.
  std::string HandleLine(const std::string& line);
  /// `graph_filter` non-null narrows the per-graph section to one
  /// tenant; the section is emitted only then or when serving more
  /// than one graph (v2 single-graph responses stay byte-identical).
  std::string StatsResponseLine(const std::string* graph_filter) const;
  const Clock& clock() const {
    return options_.clock != nullptr ? *options_.clock : *SystemClock::Get();
  }

  GraphRegistry* const registry_;
  const LineExecutor executor_;
  const ServerOptions options_;

  std::atomic<int64_t> queries_ok_{0};
  std::atomic<int64_t> queries_error_{0};
  std::atomic<int64_t> deadline_exceeded_{0};
  std::atomic<int64_t> oversized_requests_{0};
  /// Per-graph dispatched-request counters, keyed by registered name.
  /// Fully populated at construction (the registry is immutable by
  /// then), so shards bump entries lock-free.
  std::map<std::string, std::atomic<int64_t>, std::less<>> graph_requests_;
  /// Sum of the degradation counters at the previous stats() call — the
  /// health latch's memory (mutable: reading health advances it).
  mutable std::atomic<int64_t> last_degradation_sum_{0};

  /// Declared last: destroyed (and joined) first, before anything its
  /// threads call into.
  ConnectionFront front_;
};

}  // namespace rwdom

#endif  // RWDOM_SERVER_SERVER_H_
