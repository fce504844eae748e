// The fleet front behind `rwdom route`: one JSONL endpoint that fans a
// multi-graph workload out over many `rwdom serve` backends.
//
// Placement is consistent hashing on the graph name: every backend
// contributes kVirtualNodesPerBackend points to a hash ring, and a
// request's graph (protocol v3 `"graph"` member; omitted = the default
// graph) is served by the first backend clockwise from the name's hash.
// Adding or removing one backend therefore remaps only the names that
// hashed to it — the property that makes a fleet resizable without
// re-warming every cache.
//
// Failover is deliberately asymmetric, mirroring RetryingClient's
// replay rules:
//   * a backend we cannot CONNECT to is skipped — nothing was sent, so
//     trying the next ring position is always safe (bounded by ring
//     size, counted in RouterStats::failovers);
//   * a backend that dies MID-REQUEST gets no failover — the request
//     may have executed, so the client receives a complete Unavailable
//     error line (with retry_after_ms) and its own retry policy
//     decides; the router's next attempt starts from a fresh connect
//     and takes the surviving ring positions.
//
// Admin requests (`server_stats`, `shutdown`) are not placed on the
// ring: they scatter to every backend and gather the raw per-backend
// response lines into one merged {"router": ...} object. `shutdown`
// additionally stops the router itself after responding.
//
// Request lines are forwarded byte-for-byte (after whitespace
// trimming), so a response through the router is the exact line the
// backend produced — the byte-identity contract clients already rely
// on, now one hop removed. Connections are served by the same
// ConnectionFront as `rwdom serve` (server/event_loop.h), so clients
// may pipeline through the router too.
#ifndef RWDOM_SERVER_ROUTER_H_
#define RWDOM_SERVER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "server/client.h"
#include "server/event_loop.h"
#include "util/socket.h"
#include "util/status.h"

namespace rwdom {

/// Consistent-hash ring over backend addresses. Immutable once built;
/// safe to share across threads.
class HashRing {
 public:
  /// Points each backend contributes. 64 keeps the per-name load spread
  /// within a few percent of uniform for small fleets while the ring
  /// stays tiny (64 * backends entries).
  static constexpr int kVirtualNodesPerBackend = 64;

  explicit HashRing(std::vector<std::string> backends);

  const std::vector<std::string>& backends() const { return backends_; }

  /// Every backend, deduplicated, in clockwise ring order starting at
  /// `name`'s hash — the try-order for placing `name`. Deterministic:
  /// the same name and backend set always yield the same order.
  std::vector<const std::string*> RouteOrder(std::string_view name) const;

 private:
  std::vector<std::string> backends_;
  /// (point hash, backend index), sorted by hash.
  std::vector<std::pair<uint64_t, size_t>> points_;
};

struct RouterOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 picks an ephemeral port (see QueryRouter::port()).
  int threads = 4;
  int max_connections = 64;
  /// The backoff hint carried by Unavailable responses (mid-request
  /// backend loss, no reachable backend).
  int retry_after_ms = 250;
  int write_timeout_ms = 30'000;
  size_t max_request_bytes = LineReader::kDefaultMaxLineBytes;
};

struct RouterStats {
  int64_t connections_accepted = 0;
  int64_t connections_rejected = 0;
  int64_t active_connections = 0;
  int64_t requests_proxied = 0;  ///< Lines answered by a backend.
  int64_t requests_error = 0;    ///< Error lines the router itself sent.
  int64_t failovers = 0;         ///< Ring advances past unreachable backends.
  int64_t admin_fanouts = 0;     ///< Scatter-gathered admin requests.
};

class QueryRouter {
 public:
  /// `backends` are HOST:PORT strings; the ring is fixed for the
  /// router's lifetime. Backends may be down at construction — the ring
  /// routes around them until they return.
  QueryRouter(std::vector<std::string> backends, RouterOptions options);

  QueryRouter(const QueryRouter&) = delete;
  QueryRouter& operator=(const QueryRouter&) = delete;

  /// Probes the backends for their greetings (best effort), binds,
  /// listens and spawns the accept + shard threads. Call once.
  Status Start();

  /// The actually bound port (== options.port unless that was 0).
  int port() const { return front_.port(); }

  const HashRing& ring() const { return ring_; }

  /// Async-signal-safe shutdown poke, same contract as QueryServer.
  void NotifyShutdown() { front_.NotifyShutdown(); }

  /// NotifyShutdown + wait for every thread to finish. Idempotent.
  void Shutdown() { front_.Shutdown(); }

  /// Blocks until the router shut down and every thread is joined.
  void Wait() { front_.Wait(); }

  RouterStats stats() const;

 private:
  /// Per-connection cache of live backend connections: session affinity
  /// without locks (each map is owned by one client connection's line
  /// handler and lives as long as that connection).
  using BackendClients = std::map<std::string, QueryClient>;

  /// One request line -> one response line (routed or scatter-gathered).
  std::string RouteLine(const std::string& line, BackendClients& clients);
  std::string FanOutAdmin(const std::string& line, BackendClients& clients,
                          bool is_shutdown);

  const HashRing ring_;
  const RouterOptions options_;

  std::atomic<int64_t> requests_proxied_{0};
  std::atomic<int64_t> requests_error_{0};
  std::atomic<int64_t> failovers_{0};
  std::atomic<int64_t> admin_fanouts_{0};

  /// Declared last: destroyed (and joined) first, before anything its
  /// threads call into.
  ConnectionFront front_;
};

}  // namespace rwdom

#endif  // RWDOM_SERVER_ROUTER_H_
