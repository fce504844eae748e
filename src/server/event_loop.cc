#include "server/event_loop.h"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "server/protocol.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rwdom {

/// One event-loop thread and the connections it owns. Connections
/// enter via Adopt (from the accept thread) and never migrate between
/// shards. Counters, options and hooks are the owning front's.
class EventLoopShard {
 public:
  explicit EventLoopShard(ConnectionFront& front)
      : front_(front), options_(front.options_) {}
  ~EventLoopShard() {
    Stop();
    Join();
  }

  EventLoopShard(const EventLoopShard&) = delete;
  EventLoopShard& operator=(const EventLoopShard&) = delete;

  /// Creates the epoll set + wake pipe and spawns the loop thread.
  Status Start();

  /// Hands a freshly accepted (already greeted) connection and its line
  /// handler to this shard. Thread-safe. A connection adopted after
  /// Stop() is closed without service.
  void Adopt(UniqueFd connection, LineHandler handler);

  /// Begins drain-and-exit (see event_loop.h). Non-blocking; idempotent.
  void Stop();

  /// Joins the loop thread. Call after Stop().
  void Join();

 private:
  struct Connection {
    UniqueFd fd;
    LineHandler handler;
    LineDecoder decoder;
    /// Pending output; [out_offset, size) is unsent. Compacted rather
    /// than erased per send so a slow drain is not quadratic.
    std::string outbuf;
    size_t out_offset = 0;
    // Current epoll interest, to skip no-op EPOLL_CTL_MODs.
    bool want_read = true;
    bool want_write = false;
    bool paused = false;     ///< Reads off at the write-buffer cap.
    bool saw_eof = false;    ///< Peer half-closed; flush, then close.
    bool close_after_flush = false;
    /// Set while outbuf is non-empty; re-armed on any write progress,
    /// so it times out stalls, not slow-but-moving drains. OS clock by
    /// necessity: epoll_wait's timeout is kernel time.
    std::chrono::steady_clock::time_point stall_since{};

    Connection(UniqueFd fd_in, LineHandler handler_in, size_t max_line_bytes)
        : fd(std::move(fd_in)),
          handler(std::move(handler_in)),
          decoder(max_line_bytes) {}
  };

  void Run();
  void AdoptPending();
  /// Full service of one readiness event: read + decode + dispatch +
  /// flush + interest re-arm; closes the connection when it dies.
  void ServiceConnection(const ReadyEvent& event);
  /// Reads until EAGAIN/EOF (or backpressure pauses the connection),
  /// dispatching decoded lines as they complete. Returns false on a
  /// hard socket error.
  bool ReadAndDecode(Connection& conn);
  /// Drains decoded lines into dispatch + the write buffer, honoring
  /// backpressure and shutdown.
  void ProcessDecoded(Connection& conn);
  /// Queues one response message (arming the socket.send fault site).
  /// Returns false on an injected fault: flush what was already
  /// queued, then close.
  bool EnqueueResponse(Connection& conn, const std::string& response);
  /// One pass of non-blocking sends. Returns false on a hard error.
  bool FlushWrites(Connection& conn);
  /// Flush + backpressure resume + close-after-flush. Returns false
  /// when the connection should close now.
  bool Flush(Connection& conn);
  void UpdateInterest(Connection& conn);
  void CloseConnection(int fd);
  /// The epoll_wait budget: -1, or the nearest write-stall deadline.
  int NextTimeoutMs() const;
  /// Drops connections whose write buffer made no progress past
  /// write_timeout_ms.
  void SweepWriteStalls();
  void EnterDrainMode();

  ConnectionFront& front_;
  const FrontOptions& options_;

  EpollSet epoll_;
  WakePipe wake_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};

  std::mutex inbox_mutex_;
  std::vector<std::pair<UniqueFd, LineHandler>> inbox_;

  std::unordered_map<int, Connection> connections_;
  bool draining_ = false;  ///< Loop-thread view of stopping_.
};

Status EventLoopShard::Start() {
  RWDOM_ASSIGN_OR_RETURN(epoll_, EpollSet::Create());
  RWDOM_ASSIGN_OR_RETURN(wake_, MakeWakePipe());
  // Non-blocking read end so DrainWakePipe can collapse queued pokes.
  RWDOM_RETURN_IF_ERROR(SetNonBlocking(wake_.read_end.get()));
  RWDOM_RETURN_IF_ERROR(
      epoll_.Add(wake_.read_end.get(), /*want_read=*/true,
                 /*want_write=*/false));
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EventLoopShard::Adopt(UniqueFd connection, LineHandler handler) {
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    inbox_.emplace_back(std::move(connection), std::move(handler));
  }
  if (wake_.write_end.valid()) PokeWakePipe(wake_.write_end.get());
}

void EventLoopShard::Stop() {
  stopping_.store(true);
  if (wake_.write_end.valid()) PokeWakePipe(wake_.write_end.get());
}

void EventLoopShard::Join() {
  if (thread_.joinable()) thread_.join();
  // Connections adopted after the loop exited never got service; their
  // fds close here and the accept thread's active-connection increment
  // is balanced.
  std::vector<std::pair<UniqueFd, LineHandler>> orphans;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    orphans.swap(inbox_);
  }
  front_.active_connections_.fetch_sub(static_cast<int64_t>(orphans.size()));
}

void EventLoopShard::Run() {
  std::vector<ReadyEvent> events;
  for (;;) {
    if (stopping_.load() && !draining_) EnterDrainMode();
    if (draining_ && connections_.empty()) {
      AdoptPending();  // Late arrivals are closed unserved while draining.
      if (connections_.empty()) break;
    }
    auto waited = epoll_.Wait(&events, NextTimeoutMs());
    if (!waited.ok()) {
      RWDOM_LOG(WARNING) << options_.role
                         << ": event loop wait failed: " << waited.status();
      break;
    }
    bool woken = false;
    for (const ReadyEvent& event : events) {
      if (event.fd == wake_.read_end.get()) {
        woken = true;
        continue;
      }
      ServiceConnection(event);
    }
    if (woken) {
      DrainWakePipe(wake_.read_end.get());
      if (stopping_.load() && !draining_) EnterDrainMode();
      AdoptPending();
    }
    SweepWriteStalls();
  }
  while (!connections_.empty()) CloseConnection(connections_.begin()->first);
}

void EventLoopShard::AdoptPending() {
  std::vector<std::pair<UniqueFd, LineHandler>> adopted;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    adopted.swap(inbox_);
  }
  for (auto& [connection, handler] : adopted) {
    if (draining_ || !SetNonBlocking(connection.get()).ok()) {
      front_.active_connections_.fetch_sub(1);
      continue;  // UniqueFd closes the socket on scope exit.
    }
    const int fd = connection.get();
    auto [it, inserted] = connections_.try_emplace(
        fd, std::move(connection), std::move(handler),
        options_.max_request_bytes);
    RWDOM_CHECK(inserted);
    if (!epoll_.Add(fd, /*want_read=*/true, /*want_write=*/false).ok()) {
      connections_.erase(it);
      front_.active_connections_.fetch_sub(1);
    }
  }
}

void EventLoopShard::ServiceConnection(const ReadyEvent& event) {
  auto it = connections_.find(event.fd);
  if (it == connections_.end()) return;  // Closed earlier in this batch.
  Connection& conn = it->second;
  if (event.error) {
    CloseConnection(event.fd);
    return;
  }
  bool alive = true;
  if (event.readable && !conn.paused && !conn.saw_eof && !draining_ &&
      !conn.close_after_flush) {
    alive = ReadAndDecode(conn);
  }
  if (alive) alive = Flush(conn);
  if (!alive) {
    CloseConnection(event.fd);
    return;
  }
  UpdateInterest(conn);
}

bool EventLoopShard::ReadAndDecode(Connection& conn) {
  char buf[16384];
  for (;;) {
    bool eof = false;
    auto got = RecvSome(conn.fd.get(), buf, sizeof(buf), &eof);
    if (!got.ok()) return false;
    if (eof) {
      conn.saw_eof = true;
      conn.decoder.NotifyEof();
      ProcessDecoded(conn);
      return true;
    }
    if (*got == 0) return true;  // Socket drained; level-trigger re-arms.
    conn.decoder.Append(std::string_view(buf, *got));
    ProcessDecoded(conn);
    if (conn.paused || conn.close_after_flush || draining_) return true;
  }
}

void EventLoopShard::ProcessDecoded(Connection& conn) {
  std::string line;
  for (;;) {
    if (conn.close_after_flush) return;
    if (conn.outbuf.size() - conn.out_offset >= options_.write_buffer_bytes) {
      // Backpressure: the peer is not draining its responses, so this
      // connection stops being read (and its remaining decoded lines
      // stay buffered) until the write side catches up. Other
      // connections on the shard are unaffected.
      if (!conn.paused) {
        conn.paused = true;
        front_.backpressure_pauses_.fetch_add(1);
      }
      return;
    }
    if (draining_) {
      conn.close_after_flush = true;
      return;
    }
    switch (conn.decoder.Next(&line)) {
      case LineDecoder::Event::kNeedMore:
        if (conn.saw_eof && conn.decoder.finished()) {
          conn.close_after_flush = true;
        }
        return;
      case LineDecoder::Event::kOverflow:
        front_.hooks_.on_oversized_line();
        if (!EnqueueResponse(conn, front_.OversizedResponse())) return;
        break;
      case LineDecoder::Event::kLine: {
        std::string_view trimmed = StripWhitespace(line);
        if (trimmed.empty() || trimmed.front() == '#') break;
        const std::string response = conn.handler(std::string(trimmed));
        if (!EnqueueResponse(conn, response)) return;
        // The in-flight response is delivered even mid-shutdown; further
        // pipelined requests on this connection are cut off.
        if (stopping_.load()) {
          conn.close_after_flush = true;
          return;
        }
        break;
      }
    }
  }
}

bool EventLoopShard::EnqueueResponse(Connection& conn,
                                     const std::string& response) {
  // The fault site fires once per response message, the same cadence
  // as SendAll, so one RWDOM_FAULTS schedule counts whole messages.
  if (!FaultPoint("socket.send").ok()) {
    // A send fault drops the connection, but the responses queued ahead
    // of this one were already "sent" and still flush.
    conn.close_after_flush = true;
    return false;
  }
  if (conn.outbuf.size() == conn.out_offset) {
    conn.stall_since = std::chrono::steady_clock::now();
  }
  conn.outbuf.append(response);
  conn.outbuf.push_back('\n');
  return true;
}

bool EventLoopShard::FlushWrites(Connection& conn) {
  while (conn.out_offset < conn.outbuf.size()) {
    auto sent = SendSome(
        conn.fd.get(),
        std::string_view(conn.outbuf).substr(conn.out_offset));
    if (!sent.ok()) return false;
    if (*sent == 0) break;  // Kernel buffer full; EPOLLOUT will re-arm.
    conn.out_offset += *sent;
    // Any progress re-arms the stall clock: the timeout catches peers
    // that stopped draining, not peers that drain slowly.
    conn.stall_since = std::chrono::steady_clock::now();
  }
  if (conn.out_offset == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_offset = 0;
  } else if (conn.out_offset > (1u << 16)) {
    conn.outbuf.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
  return true;
}

bool EventLoopShard::Flush(Connection& conn) {
  for (;;) {
    if (!FlushWrites(conn)) return false;
    const size_t pending = conn.outbuf.size() - conn.out_offset;
    if (pending == 0 && conn.close_after_flush) return false;
    if (conn.paused && !conn.close_after_flush && !draining_ &&
        pending <= options_.write_buffer_bytes / 2) {
      // The peer caught up: resume dispatching the lines that were
      // decoded (or still sit undecoded) before the pause. EPOLLIN
      // comes back via UpdateInterest once we return.
      conn.paused = false;
      ProcessDecoded(conn);
      if (conn.outbuf.size() - conn.out_offset != pending) continue;
    }
    return true;
  }
}

void EventLoopShard::UpdateInterest(Connection& conn) {
  const bool want_read = !conn.paused && !conn.saw_eof && !draining_ &&
                         !conn.close_after_flush;
  const bool want_write = conn.out_offset < conn.outbuf.size();
  if (want_read == conn.want_read && want_write == conn.want_write) return;
  conn.want_read = want_read;
  conn.want_write = want_write;
  (void)epoll_.Modify(conn.fd.get(), want_read, want_write);
}

void EventLoopShard::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  (void)epoll_.Remove(fd);
  connections_.erase(it);  // UniqueFd closes the socket.
  front_.active_connections_.fetch_sub(1);
}

int EventLoopShard::NextTimeoutMs() const {
  if (options_.write_timeout_ms <= 0) return -1;
  const auto now = std::chrono::steady_clock::now();
  int best = -1;
  for (const auto& [fd, conn] : connections_) {
    if (conn.out_offset == conn.outbuf.size()) continue;
    const auto expiry =
        conn.stall_since + std::chrono::milliseconds(options_.write_timeout_ms);
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(expiry - now)
            .count();
    const int ms = remaining <= 0 ? 0 : static_cast<int>(remaining) + 1;
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

void EventLoopShard::SweepWriteStalls() {
  if (options_.write_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> stalled;
  for (const auto& [fd, conn] : connections_) {
    if (conn.out_offset == conn.outbuf.size()) continue;
    if (now - conn.stall_since >=
        std::chrono::milliseconds(options_.write_timeout_ms)) {
      stalled.push_back(fd);
    }
  }
  for (int fd : stalled) {
    RWDOM_LOG(WARNING) << options_.role
                       << ": dropped stalled client (write buffer idle past "
                       << options_.write_timeout_ms << " ms)";
    CloseConnection(fd);
    // Counted after the close, so whoever sees the count also sees the
    // connection gone from active_connections.
    front_.write_timeouts_.fetch_add(1);
  }
}

void EventLoopShard::EnterDrainMode() {
  draining_ = true;
  std::vector<int> drained;
  for (auto& [fd, conn] : connections_) {
    if (conn.out_offset == conn.outbuf.size()) {
      drained.push_back(fd);
    } else {
      conn.close_after_flush = true;
      UpdateInterest(conn);
    }
  }
  for (int fd : drained) CloseConnection(fd);
}

ConnectionFront::ConnectionFront(FrontOptions options, FrontHooks hooks)
    : options_(std::move(options)), hooks_(std::move(hooks)) {
  RWDOM_CHECK(options_.threads >= 1);
  RWDOM_CHECK(options_.max_connections >= 1);
  RWDOM_CHECK(hooks_.new_connection != nullptr);
  RWDOM_CHECK(hooks_.on_oversized_line != nullptr);
  // Created here, not in Start(), so NotifyShutdown — and a SIGINT
  // handler routed through it — works from construction on; a poke that
  // lands before Start() shuts the front down on its first accept.
  auto wake = MakeWakePipe();
  RWDOM_CHECK(wake.ok()) << wake.status();
  wake_ = std::move(*wake);
}

ConnectionFront::~ConnectionFront() { Shutdown(); }

Status ConnectionFront::Start(std::string greeting_line) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    RWDOM_CHECK(!started_) << "ConnectionFront::Start called twice";
    started_ = true;
  }
  greeting_line_ = std::move(greeting_line);
  RWDOM_ASSIGN_OR_RETURN(
      listener_,
      TcpListen(options_.host, options_.port,
                /*backlog=*/options_.max_connections));
  RWDOM_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));
  // The shards start before the accept thread so an adopted connection
  // always has a live loop behind it.
  shards_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    shards_.push_back(std::make_unique<EventLoopShard>(*this));
    RWDOM_RETURN_IF_ERROR(shards_.back()->Start());
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ConnectionFront::NotifyShutdown() {
  // Only an async-signal-safe write: the accept thread turns the poke
  // into the actual state change.
  if (wake_.write_end.valid()) PokeWakePipe(wake_.write_end.get());
}

void ConnectionFront::BeginShutdown() {
  if (stopping_.exchange(true)) return;
  // Both pokes are non-blocking, so a shard's own dispatch (the
  // `shutdown` admin request) may be what got us here.
  if (wake_.write_end.valid()) PokeWakePipe(wake_.write_end.get());
  for (auto& shard : shards_) shard->Stop();
}

void ConnectionFront::AcceptLoop() {
  for (;;) {
    if (stopping_.load()) break;
    auto accepted = AcceptWithWake(listener_.get(), wake_.read_end.get());
    if (!accepted.ok()) {
      RWDOM_LOG(WARNING) << options_.role
                         << ": accept failed, shutting down: "
                         << accepted.status();
      break;
    }
    if (!accepted->has_value()) break;  // Woken: shutdown requested.
    UniqueFd connection = std::move(**accepted);
    connections_accepted_.fetch_add(1);
    // Every accepted connection gets the greeting first — including one
    // about to be refused — so a client can unconditionally consume
    // exactly one greeting line before its first response (a refusal
    // then arrives as the first "response"). A connection we cannot
    // even greet is dropped.
    if (!SendAll(connection.get(), greeting_line_ + "\n").ok()) continue;
    const int64_t active = active_connections_.load();
    if (active >= options_.max_connections) {
      connections_rejected_.fetch_add(1);
      Refuse(connection.get(),
             StrFormat("%s at --max_connections=%d", options_.role.c_str(),
                       options_.max_connections));
      continue;
    }
    // Shed-on-overflow: past `threads` connections being served plus a
    // backlog of max_queue_depth, refusing *now* with a backoff hint
    // beats accepting work that will time out anyway.
    if (options_.max_queue_depth > 0 &&
        active >= options_.threads + options_.max_queue_depth) {
      requests_shed_.fetch_add(1);
      Refuse(connection.get(),
             StrFormat("%s overloaded (queue depth %d)",
                       options_.role.c_str(), options_.max_queue_depth));
      continue;
    }
    active_connections_.fetch_add(1);
    shards_[next_shard_++ % shards_.size()]->Adopt(std::move(connection),
                                                   hooks_.new_connection());
  }
  BeginShutdown();
  // Close the listening socket now (only this thread uses it), so the
  // port refuses new connections as soon as shutdown begins rather than
  // when the owner is destroyed.
  listener_.reset();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
}

void ConnectionFront::Refuse(int fd, const std::string& message) const {
  // Best-effort refusal line; the close is the real signal.
  (void)SendAll(
      fd, ErrorResponseLine("Unavailable", message, options_.retry_after_ms) +
              "\n");
}

std::string ConnectionFront::OversizedResponse() const {
  return ErrorResponseLine(
      "InvalidArgument",
      StrFormat("request line exceeds --max_request_bytes=%zu",
                options_.max_request_bytes));
}

FrontStats ConnectionFront::stats() const {
  FrontStats stats;
  stats.connections_accepted = connections_accepted_.load();
  stats.connections_rejected = connections_rejected_.load();
  stats.active_connections = active_connections_.load();
  stats.requests_shed = requests_shed_.load();
  stats.write_timeouts = write_timeouts_.load();
  stats.backpressure_pauses = backpressure_pauses_.load();
  return stats;
}

void ConnectionFront::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!started_) return;
  }
  BeginShutdown();
  Join();
}

void ConnectionFront::Wait() {
  {
    std::unique_lock<std::mutex> lock(lifecycle_mutex_);
    if (!started_) return;
    stopped_cv_.wait(lock, [this] { return stopped_; });
  }
  Join();
}

void ConnectionFront::Join() {
  // join_mutex_ is never taken by front threads, so holding it across
  // the joins cannot deadlock (lifecycle_mutex_ is taken by the accept
  // thread right before it exits); concurrent Join callers serialize
  // and all return only after every thread finished.
  std::lock_guard<std::mutex> lock(join_mutex_);
  if (joined_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& shard : shards_) {
    shard->Stop();
    shard->Join();
  }
  joined_ = true;
}

}  // namespace rwdom
