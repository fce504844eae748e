// Client side of the JSONL query protocol: connect to a running
// `rwdom serve`, send request lines, read the one response line each
// produces. Used by `rwdom client`, the router and the multi-client
// smoke tests.
#ifndef RWDOM_SERVER_CLIENT_H_
#define RWDOM_SERVER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "util/socket.h"
#include "util/status.h"

namespace rwdom {

/// The parsed server greeting, for feature detection before the first
/// request. Tolerant of old servers: an unparseable or absent greeting
/// body parses as protocol_version 1 with no capabilities.
struct ServerGreeting {
  int protocol_version = 1;
  std::vector<std::string> capabilities;

  bool Has(const std::string& capability) const {
    for (const std::string& tag : capabilities) {
      if (tag == capability) return true;
    }
    return false;
  }
};

/// Parses one greeting line ({"rwdom": {"protocol_version": N,
/// "capabilities": [...]}}); never fails, see ServerGreeting.
ServerGreeting ParseServerGreeting(const std::string& greeting_line);

/// One connection to a query server. Requests are strictly
/// request/response over the connection, matching the server's
/// per-connection ordering guarantee.
class QueryClient {
 public:
  /// Connects and consumes the server's one-line greeting (protocol v2:
  /// {"rwdom": {"protocol_version": ..., "capabilities": [...]}}), so
  /// the first Roundtrip response is the first *request's* response. An
  /// EOF before the greeting is an IoError.
  static Result<QueryClient> Connect(const std::string& host, int port);

  /// The raw greeting line consumed at Connect — capability detection
  /// without an extra request.
  const std::string& greeting() const { return greeting_; }

  /// The greeting, parsed once at Connect (protocol_version,
  /// capability tags). `server_greeting().Has("multi_graph")` is how
  /// callers feature-detect protocol v3 tenancy.
  const ServerGreeting& server_greeting() const { return server_greeting_; }

  /// Sends one request line and blocks for its response line. An EOF
  /// before the response (server shut down mid-request) is an IoError.
  Result<std::string> Roundtrip(const std::string& line);

 private:
  explicit QueryClient(UniqueFd connection);

  // shared_ptr keeps QueryClient movable while LineReader holds the fd.
  std::shared_ptr<UniqueFd> connection_;
  std::shared_ptr<LineReader> reader_;
  std::string greeting_;
  ServerGreeting server_greeting_;
};

/// How a RetryingClient paces reconnect attempts. Backoff for attempt k
/// is exponential (base_ms * 2^k, capped at max_backoff_ms) with
/// deterministic jitter drawn from a SplitMix64 stream seeded by
/// jitter_seed — the same seed and the same failure sequence wait the
/// same milliseconds every run. A server-provided retry_after_ms hint
/// acts as a floor on the wait.
struct RetryPolicy {
  int max_retries = 0;       ///< Extra attempts after the first (0 = off).
  int base_ms = 100;         ///< First backoff; doubles per attempt.
  int max_backoff_ms = 5000;
  uint64_t jitter_seed = 0;
  /// Injected wait (tests pass a recorder / fast-forward). Defaults to
  /// std::this_thread::sleep_for.
  std::function<void(int /*millis*/)> sleeper;
};

/// QueryClient wrapper that transparently survives an overloaded or
/// restarting server. Retries exactly two failure shapes:
///   - connect failures (refused, greeting EOF), and
///   - complete Unavailable error responses (shed / at capacity).
/// It never retries after a partial response or a mid-request transport
/// error — the request may have executed, and replaying a non-idempotent
/// line (e.g. shutdown) would be wrong. Non-Unavailable error responses
/// are returned to the caller as-is (they are answers, not outages).
class RetryingClient {
 public:
  RetryingClient(std::string host, int port, RetryPolicy policy);

  /// Sends one line, reconnecting/backing off per the policy. Connects
  /// lazily on first use.
  Result<std::string> Roundtrip(const std::string& line);

  /// Greeting of the current connection (empty before the first
  /// successful connect).
  const std::string& greeting() const { return greeting_; }

  /// Parsed greeting of the current connection (protocol_version 1, no
  /// capabilities before the first successful connect).
  const ServerGreeting& server_greeting() const { return server_greeting_; }

  /// Total backoff-and-retry cycles performed (tests assert the shed →
  /// retry → served sequence happened).
  int64_t retries_performed() const { return retries_performed_; }

 private:
  Status EnsureConnected();
  /// Waits out attempt `attempt`'s backoff (or the server's hint if
  /// larger). Fails when the policy is out of retries.
  Status Backoff(int attempt, int server_hint_ms);

  const std::string host_;
  const int port_;
  RetryPolicy policy_;
  uint64_t jitter_state_;
  std::optional<QueryClient> client_;
  std::string greeting_;
  ServerGreeting server_greeting_;
  int64_t retries_performed_ = 0;
};

/// Sends every request line of `script` (blank lines and #-comments
/// skipped — the batch-script conventions) over one connection and
/// writes each response line to `out`. Returns the responses' count via
/// `queries` when non-null. Transport failures abort with the error;
/// per-request {"error": ...} responses are printed like any response
/// (the server keeps the connection open for them).
Status StreamQueryScript(QueryClient& client, std::istream& script,
                         std::ostream& out, int64_t* queries = nullptr);

/// StreamQueryScript over a RetryingClient: same framing, but shed
/// connections and connect failures back off and retry per the policy.
Status StreamQueryScriptWithRetry(RetryingClient& client,
                                  std::istream& script, std::ostream& out,
                                  int64_t* queries = nullptr);

/// Convenience for tests and benches: connect, send `lines`, return the
/// response lines (1:1 with the request lines).
Result<std::vector<std::string>> RunQueryLines(
    const std::string& host, int port, const std::vector<std::string>& lines);

}  // namespace rwdom

#endif  // RWDOM_SERVER_CLIENT_H_
