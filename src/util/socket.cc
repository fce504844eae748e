#include "util/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <cstdint>

#include "util/fault.h"
#include "util/strings.h"

namespace rwdom {

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + ::strerror(errno));
}

// IPv4 only, by design: "localhost" and dotted-quad addresses. The
// serving story is loopback smoke tests and LAN deployments behind a
// proxy; name resolution belongs to that proxy.
Result<in_addr> ResolveHost(const std::string& host) {
  in_addr addr{};
  const std::string spelled =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, spelled.c_str(), &addr) != 1) {
    return Status::InvalidArgument(
        "cannot parse host (IPv4 dotted quad or localhost): " + host);
  }
  return addr;
}

}  // namespace

Result<WakePipe> MakeWakePipe() {
  int fds[2];
  if (::pipe(fds) != 0) return Errno("pipe");
  WakePipe pipe;
  pipe.read_end.reset(fds[0]);
  pipe.write_end.reset(fds[1]);
  return pipe;
}

void PokeWakePipe(int write_fd) {
  // Async-signal-safe by POSIX; a full pipe is fine (the wake already
  // pends) and EINTR needs no retry for the same reason.
  const char byte = 'w';
  [[maybe_unused]] ssize_t ignored = ::write(write_fd, &byte, 1);
}

void DrainWakePipe(int read_fd) {
  char buf[64];
  while (::read(read_fd, buf, sizeof(buf)) > 0) {
  }
}

Result<UniqueFd> TcpListen(const std::string& host, int port, int backlog) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        StrFormat("port must be in [0, 65535], got %d", port));
  }
  RWDOM_ASSIGN_OR_RETURN(in_addr addr, ResolveHost(host));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(port));
  sa.sin_addr = addr;
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return Errno(StrFormat("bind %s:%d", host.c_str(), port));
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");
  return fd;
}

Result<int> LocalPort(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(sa.sin_port));
}

Result<UniqueFd> TcpConnect(const std::string& host, int port) {
  RWDOM_ASSIGN_OR_RETURN(in_addr addr, ResolveHost(host));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(port));
  sa.sin_addr = addr;
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Errno(StrFormat("connect %s:%d", host.c_str(), port));
  return fd;
}

Result<std::optional<UniqueFd>> AcceptWithWake(int listen_fd, int wake_fd) {
  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (fds[1].revents != 0) return std::optional<UniqueFd>();
    if (fds[0].revents == 0) continue;
    int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return Errno("accept");
    }
    return std::optional<UniqueFd>(UniqueFd(client));
  }
}

Status SendAll(int fd, std::string_view data) {
  RWDOM_RETURN_IF_ERROR(FaultPoint("socket.send"));
  while (!data.empty()) {
    ssize_t sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    data.remove_prefix(static_cast<size_t>(sent));
  }
  return Status::OK();
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::OK();
}

Result<size_t> SendSome(int fd, std::string_view data) {
  for (;;) {
    ssize_t sent =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent >= 0) return static_cast<size_t>(sent);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Errno("send");
  }
}

Result<size_t> RecvSome(int fd, char* buf, size_t capacity, bool* eof) {
  *eof = false;
  for (;;) {
    ssize_t got = ::recv(fd, buf, capacity, MSG_DONTWAIT);
    if (got > 0) return static_cast<size_t>(got);
    if (got == 0) {
      *eof = true;
      return size_t{0};
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Errno("recv");
  }
}

#ifdef __linux__

Result<EpollSet> EpollSet::Create() {
  int fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) return Errno("epoll_create1");
  return EpollSet(UniqueFd(fd));
}

namespace {

uint32_t InterestMask(bool want_read, bool want_write) {
  uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN;
  if (want_write) mask |= EPOLLOUT;
  return mask;
}

Status EpollCtl(int epoll_fd, int op, int fd, uint32_t events,
                const char* what) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd, op, fd, &ev) != 0) return Errno(what);
  return Status::OK();
}

}  // namespace

Status EpollSet::Add(int fd, bool want_read, bool want_write) {
  return EpollCtl(epoll_fd_.get(), EPOLL_CTL_ADD, fd,
                  InterestMask(want_read, want_write), "epoll_ctl(ADD)");
}

Status EpollSet::Modify(int fd, bool want_read, bool want_write) {
  return EpollCtl(epoll_fd_.get(), EPOLL_CTL_MOD, fd,
                  InterestMask(want_read, want_write), "epoll_ctl(MOD)");
}

Status EpollSet::Remove(int fd) {
  epoll_event ev{};  // Ignored for DEL, but pre-2.6.9 kernels want it.
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, &ev) != 0) {
    return Errno("epoll_ctl(DEL)");
  }
  return Status::OK();
}

Result<int> EpollSet::Wait(std::vector<ReadyEvent>* out, int timeout_ms) {
  epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_.get(), events, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Errno("epoll_wait");
  out->clear();
  for (int i = 0; i < n; ++i) {
    ReadyEvent ready;
    ready.fd = events[i].data.fd;
    ready.readable = (events[i].events & EPOLLIN) != 0;
    ready.writable = (events[i].events & EPOLLOUT) != 0;
    ready.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out->push_back(ready);
  }
  return n;
}

#else  // !__linux__

Result<EpollSet> EpollSet::Create() {
  return Status::Unimplemented("epoll is Linux-only");
}
Status EpollSet::Add(int, bool, bool) {
  return Status::Unimplemented("epoll is Linux-only");
}
Status EpollSet::Modify(int, bool, bool) {
  return Status::Unimplemented("epoll is Linux-only");
}
Status EpollSet::Remove(int) {
  return Status::Unimplemented("epoll is Linux-only");
}
Result<int> EpollSet::Wait(std::vector<ReadyEvent>*, int) {
  return Status::Unimplemented("epoll is Linux-only");
}

#endif  // __linux__

LineDecoder::Event LineDecoder::Next(std::string* line) {
  for (;;) {
    size_t newline = buffer_.find('\n');
    if (discarding_) {
      // Resync after an overlong line: drop bytes through its newline.
      if (newline == std::string::npos) {
        buffer_.clear();
        return Event::kNeedMore;
      }
      buffer_.erase(0, newline + 1);
      discarding_ = false;
      continue;
    }
    if (newline != std::string::npos) {
      if (newline > max_line_bytes_) {
        buffer_.erase(0, newline + 1);
        return Event::kOverflow;
      }
      *line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Event::kLine;
    }
    if (buffer_.size() > max_line_bytes_) {
      // No newline yet and already over budget: report the overflow now
      // and discard until the line eventually terminates.
      buffer_.clear();
      discarding_ = true;
      return Event::kOverflow;
    }
    if (eof_ && !buffer_.empty()) {
      // Unterminated trailing line: deliver it, then finished() holds.
      *line = std::move(buffer_);
      buffer_.clear();
      return Event::kLine;
    }
    return Event::kNeedMore;
  }
}

Result<LineReader::Outcome> LineReader::ReadLine(std::string* line) {
  for (;;) {
    switch (decoder_.Next(line)) {
      case LineDecoder::Event::kLine:
        return Outcome::kLine;
      case LineDecoder::Event::kOverflow:
        return Outcome::kOverflow;
      case LineDecoder::Event::kNeedMore:
        break;
    }
    if (decoder_.finished()) return Outcome::kEof;
    char chunk[4096];
    ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (got == 0) {
      decoder_.NotifyEof();
      continue;
    }
    decoder_.Append(std::string_view(chunk, static_cast<size_t>(got)));
  }
}

}  // namespace rwdom
