// The one connection-serving core behind `rwdom serve` and `rwdom
// route`: an accept thread plus N non-blocking event-loop shards. Its
// owner (QueryServer or QueryRouter) only answers lines; everything
// between the listening socket and those answers lives here.
//
//   * Accept path — one accept thread (poll on the listener + a wake
//     pipe) greets every connection, refuses past max_connections,
//     sheds past threads + max_queue_depth, and deals admitted
//     connections to the shards round-robin. Refusals go out over the
//     fresh blocking socket, before any shard sees the connection.
//   * Shards — each owns an epoll set, a wake pipe and a slice of the
//     connections; connections never migrate. Per connection: framing
//     (util/socket.h's LineDecoder), a line handler obtained from the
//     owner at adoption, and a bounded write buffer.
//   * Request pipelining — a connection may have any number of request
//     lines in flight; responses are computed and written in request
//     order (dispatch is synchronous inside the shard, so ordering is by
//     construction, not by sequence numbers).
//   * Per-connection backpressure — when a peer stops draining and its
//     write buffer crosses the cap, the shard *stops reading* from that
//     connection (EPOLLIN off) instead of buffering without bound;
//     reading resumes once the buffer drains below half the cap. A peer
//     whose buffer makes no progress for write_timeout_ms is dropped.
//   * The `socket.send` fault site is armed once per response message.
//
// Shutdown: NotifyShutdown() only pokes the accept thread's wake pipe
// (async-signal-safe). The accept thread closes the listener and stops
// every shard; a shard then stops reading everywhere, finishes writing
// what is already buffered (an in-flight response is delivered even
// mid-shutdown; further pipelined requests are cut off), closes each
// connection as it drains, and exits.
#ifndef RWDOM_SERVER_EVENT_LOOP_H_
#define RWDOM_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/socket.h"
#include "util/status.h"

namespace rwdom {

/// Default per-connection cap on buffered, unsent response bytes.
inline constexpr size_t kDefaultWriteBufferBytes = 256 * 1024;

/// One connection's request handler: a trimmed, non-empty, non-comment
/// request line -> exactly one response line (no trailing newline).
/// Called only from the connection's shard thread, so state it captures
/// for its connection needs no lock; destroyed when the connection
/// closes. Different shards call their handlers concurrently.
using LineHandler = std::function<std::string(const std::string& line)>;

struct FrontOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 picks an ephemeral port (see ConnectionFront::port).
  int threads = 4;  ///< Event-loop shards.
  int max_connections = 64;
  /// Shed new connections once more than threads + max_queue_depth are
  /// open. 0 = never shed.
  int max_queue_depth = 0;
  int retry_after_ms = 250;  ///< Backoff hint in refusal/shed lines.
  int write_timeout_ms = 30'000;  ///< Stalled-writer drop; 0 = no limit.
  size_t max_request_bytes = LineDecoder::kDefaultMaxLineBytes;
  size_t write_buffer_bytes = kDefaultWriteBufferBytes;
  /// "server" or "router": names the owner in its refusal and shed
  /// lines ("<role> at --max_connections=N") and in log lines.
  std::string role = "server";
};

/// The owner's upcalls; both may be called concurrently.
struct FrontHooks {
  /// Called on the accept thread once per admitted connection.
  std::function<LineHandler()> new_connection;
  /// An over-cap request line was discarded (the stream already
  /// resynced at its newline); the front answers it with a typed
  /// InvalidArgument line, the owner counts it.
  std::function<void()> on_oversized_line;
};

/// Connection-level counters, read by the owner's stats.
struct FrontStats {
  int64_t connections_accepted = 0;
  int64_t connections_rejected = 0;  ///< Refused at max_connections.
  int64_t active_connections = 0;
  int64_t requests_shed = 0;  ///< Shed at threads + max_queue_depth.
  int64_t write_timeouts = 0;  ///< Peers dropped for stalling.
  /// Connections whose reads were paused at the write-buffer cap.
  int64_t backpressure_pauses = 0;
};

class EventLoopShard;

class ConnectionFront {
 public:
  ConnectionFront(FrontOptions options, FrontHooks hooks);
  ~ConnectionFront();

  ConnectionFront(const ConnectionFront&) = delete;
  ConnectionFront& operator=(const ConnectionFront&) = delete;

  /// Binds, listens, and spawns the shards and the accept thread; every
  /// accepted connection is greeted with `greeting_line` first. Call
  /// once.
  Status Start(std::string greeting_line);

  /// The actually bound port (== options.port unless that was 0).
  int port() const { return port_; }

  /// Begins a graceful shutdown. Async-signal-safe: only writes one
  /// byte to the accept thread's wake pipe, so SIGINT handlers may call
  /// it; valid from construction on.
  void NotifyShutdown();

  /// Begins a graceful shutdown from any thread, a line handler's
  /// included (it never blocks). Idempotent.
  void BeginShutdown();

  /// BeginShutdown + wait for every thread to finish. Idempotent.
  void Shutdown();

  /// Blocks until the front shut down (BeginShutdown, NotifyShutdown, or
  /// a fatal accept error) and every thread is joined.
  void Wait();

  FrontStats stats() const;

 private:
  friend class EventLoopShard;

  void AcceptLoop();
  /// Sends `message` as an Unavailable line with the retry hint; the
  /// caller then closes the connection.
  void Refuse(int fd, const std::string& message) const;
  /// The line sent in place of an over-cap request line.
  std::string OversizedResponse() const;
  void Join();

  const FrontOptions options_;
  const FrontHooks hooks_;
  std::string greeting_line_;

  UniqueFd listener_;
  WakePipe wake_;
  int port_ = 0;

  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex lifecycle_mutex_;
  std::condition_variable stopped_cv_;
  bool started_ = false;
  bool stopped_ = false;
  std::mutex join_mutex_;  ///< Guards joined_; see Join().
  bool joined_ = false;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_rejected_{0};
  std::atomic<int64_t> active_connections_{0};
  std::atomic<int64_t> requests_shed_{0};
  std::atomic<int64_t> write_timeouts_{0};
  std::atomic<int64_t> backpressure_pauses_{0};

  /// Declared last, so shards (which bump the counters above) are
  /// destroyed first. unique_ptr because a shard's thread references
  /// it — shards must not move.
  std::vector<std::unique_ptr<EventLoopShard>> shards_;
  size_t next_shard_ = 0;  ///< Accept thread only.
};

}  // namespace rwdom

#endif  // RWDOM_SERVER_EVENT_LOOP_H_
