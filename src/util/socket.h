// POSIX TCP helpers for the server layer: RAII file descriptors, IPv4
// listen/connect, interruptible accept, send-all, newline framing, and
// the non-blocking primitives behind the epoll event loop (readiness
// sets, partial send/recv, and a push-driven line-framing state
// machine). Deliberately minimal beyond that — the JSONL query protocol
// needs exactly "a stream of lines over one connection" (no TLS, no
// IPv6).
//
// Two framing front-ends share one state machine:
//   * LineReader — blocking pull: ReadLine() recv()s until it can return
//     the next line (every client).
//   * LineDecoder — non-blocking push: the caller feeds whatever bytes
//     recv() produced and drains framing events (the event loop).
// LineReader is implemented ON LineDecoder, so the two contracts cannot
// drift: cap, overflow-then-resync, '\r' stripping and the trailing
// unterminated line behave identically byte for byte. A clean EOF is a
// normal outcome, not an error.
#ifndef RWDOM_UTIL_SOCKET_H_
#define RWDOM_UTIL_SOCKET_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace rwdom {

/// Owns one file descriptor; closes it on destruction. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  /// Closes the current fd (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// A pipe whose write end is async-signal-safe to poke — the wakeup
/// mechanism behind graceful shutdown (SIGINT handlers may only write())
/// and behind cross-thread submission into an event-loop shard.
struct WakePipe {
  UniqueFd read_end;
  UniqueFd write_end;
};
Result<WakePipe> MakeWakePipe();

/// Writes one byte to the pipe; safe from signal handlers.
void PokeWakePipe(int write_fd);

/// Reads the pipe empty (requires a non-blocking read end). Collapses
/// any number of queued pokes into one wakeup.
void DrainWakePipe(int read_fd);

/// Binds + listens on host:port (IPv4; "localhost" accepted). port 0
/// picks an ephemeral port — read it back with LocalPort. SO_REUSEADDR
/// is set so restarts do not trip over TIME_WAIT.
Result<UniqueFd> TcpListen(const std::string& host, int port, int backlog);

/// The locally bound port of a socket (after TcpListen with port 0).
Result<int> LocalPort(int fd);

/// Connects to host:port (IPv4; "localhost" accepted), blocking.
Result<UniqueFd> TcpConnect(const std::string& host, int port);

/// Accepts one connection, polling `wake_fd` alongside the listener:
/// returns an empty optional when wake_fd becomes readable (shutdown)
/// instead of a connection.
Result<std::optional<UniqueFd>> AcceptWithWake(int listen_fd, int wake_fd);

/// Sends all of `data`, retrying partial writes; SIGPIPE suppressed
/// (a dead peer surfaces as an IoError).
Status SendAll(int fd, std::string_view data);

// --- Non-blocking primitives (the epoll event loop's substrate). ---

/// Puts the fd into O_NONBLOCK mode.
Status SetNonBlocking(int fd);

/// One non-blocking send: returns how many bytes the kernel took (0 when
/// the socket buffer is full — not an error), SIGPIPE suppressed. Does
/// NOT hit the `socket.send` fault site: the event loop arms that once
/// per protocol message, not once per partial write, so a fault schedule
/// counts whole messages, like SendAll.
Result<size_t> SendSome(int fd, std::string_view data);

/// One non-blocking recv into buf: returns bytes read; 0 with
/// *eof=false means "would block", 0 with *eof=true is a clean EOF.
Result<size_t> RecvSome(int fd, char* buf, size_t capacity, bool* eof);

/// One fd's readiness as reported by EpollSet::Wait. `error` covers
/// EPOLLERR/EPOLLHUP — the connection is dead either way.
struct ReadyEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// RAII epoll set with interest toggling — the readiness seam between
/// the event loop and the kernel. Level-triggered by design: a shard
/// that leaves bytes unread or unwritten is simply re-notified, so no
/// starvation bookkeeping is needed. Non-Linux builds get Unimplemented
/// from Create(): serving is Linux-only, but the library still builds.
class EpollSet {
 public:
  static Result<EpollSet> Create();

  EpollSet() = default;
  EpollSet(EpollSet&&) = default;
  EpollSet& operator=(EpollSet&&) = default;

  bool valid() const { return epoll_fd_.valid(); }

  /// Registers fd with the given interest. One registration per fd.
  Status Add(int fd, bool want_read, bool want_write);
  /// Re-arms fd's interest (EPOLL_CTL_MOD).
  Status Modify(int fd, bool want_read, bool want_write);
  /// Drops fd from the set. Safe to call right before closing the fd.
  Status Remove(int fd);

  /// Blocks up to timeout_ms (-1 = forever) and fills `out` with every
  /// ready fd. Returns the event count (0 on timeout); EINTR retries.
  Result<int> Wait(std::vector<ReadyEvent>* out, int timeout_ms);

 private:
  explicit EpollSet(UniqueFd fd) : epoll_fd_(std::move(fd)) {}
  UniqueFd epoll_fd_;
};

/// Push-driven newline framing — the non-blocking sibling of LineReader
/// (and the engine inside it). Feed raw bytes with Append / signal EOF
/// with NotifyEof, then drain events with Next:
///
///   kLine     — *line is the next '\n'-terminated line, newline and any
///               trailing '\r' stripped. A final unterminated line
///               before EOF is still delivered.
///   kOverflow — a line exceeded max_line_bytes. Reported exactly once
///               per offending line; its bytes are discarded through the
///               terminating newline (resynchronising the stream), and
///               the decoder keeps at most max_line_bytes buffered no
///               matter what the peer sends.
///   kNeedMore — nothing to deliver; feed more bytes (or, when
///               finished() is true, the stream is fully consumed — the
///               non-blocking spelling of kEof).
class LineDecoder {
 public:
  enum class Event { kNeedMore, kLine, kOverflow };

  static constexpr size_t kDefaultMaxLineBytes = 1 << 20;

  explicit LineDecoder(size_t max_line_bytes = kDefaultMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  void Append(std::string_view bytes) { buffer_.append(bytes); }
  void NotifyEof() { eof_ = true; }

  Event Next(std::string* line);

  /// EOF was signalled and every buffered byte has been consumed: Next
  /// can never return anything but kNeedMore again.
  bool finished() const { return eof_ && buffer_.empty(); }

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  size_t max_line_bytes_;
  std::string buffer_;
  bool eof_ = false;
  bool discarding_ = false;  // Inside an overlong line, seeking its '\n'.
};

/// Buffered newline framing over one socket, blocking: each ReadLine
/// returns the next line per the LineDecoder contract above (kEof is
/// the blocking spelling of "finished"). Lines are capped at
/// max_line_bytes (default 1 MiB) with the same overflow-then-resync
/// behaviour.
class LineReader {
 public:
  enum class Outcome { kLine, kEof, kOverflow };

  static constexpr size_t kDefaultMaxLineBytes =
      LineDecoder::kDefaultMaxLineBytes;

  explicit LineReader(int fd, size_t max_line_bytes = kDefaultMaxLineBytes)
      : fd_(fd), decoder_(max_line_bytes) {}

  /// Blocks for the next line.
  Result<Outcome> ReadLine(std::string* line);

 private:
  int fd_;
  LineDecoder decoder_;
};

}  // namespace rwdom

#endif  // RWDOM_UTIL_SOCKET_H_
