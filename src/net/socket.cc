#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <thread>
#include <utility>

#include "common/table.h"

namespace dpsp {
namespace net {

namespace {

Status ErrnoStatus(const char* op) {
  return Status::Internal(StrFormat("%s failed: %s", op, strerror(errno)));
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best-effort: a socket without TCP_NODELAY is slower, not broken.
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// poll() restarted across EINTR against a monotonic deadline: a signal
// (SIGCHLD from a forked worker, a profiler tick) must neither fail the
// wait nor stretch it. Returns poll()'s result with errno preserved on a
// real failure. `timeout_ms` < 0 waits forever.
int PollRetryEintr(pollfd* pfd, int timeout_ms) {
  if (timeout_ms < 0) {
    for (;;) {
      int ready = poll(pfd, 1, -1);
      if (ready >= 0 || errno != EINTR) return ready;
    }
  }
  timespec start;
  clock_gettime(CLOCK_MONOTONIC, &start);
  int remaining_ms = timeout_ms;
  for (;;) {
    int ready = poll(pfd, 1, remaining_ms);
    if (ready >= 0 || errno != EINTR) return ready;
    timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    long elapsed_ms = (now.tv_sec - start.tv_sec) * 1000 +
                      (now.tv_nsec - start.tv_nsec) / 1000000;
    remaining_ms = timeout_ms - static_cast<int>(elapsed_ms);
    if (remaining_ms <= 0) return 0;  // deadline passed during the signal
  }
}

Result<sockaddr_in> ParseAddress(const std::string& address, uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* host = address == "localhost" ? "127.0.0.1" : address.c_str();
  if (inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: '" + address + "'");
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status Socket::WriteAll(const void* data, size_t n) {
  iovec one{const_cast<void*>(data), n};
  return WriteAllv({&one, 1});
}

Status Socket::WriteAllv(std::span<iovec> parts) {
  if (!valid()) return Status::FailedPrecondition("write on closed socket");
  parts = ConsumeIovecs(parts, 0);  // nothing to send for empty buffers
  while (!parts.empty()) {
    msghdr message{};
    message.msg_iov = parts.data();
    message.msg_iovlen = parts.size();
    // MSG_NOSIGNAL: a reset peer must surface as a Status, not SIGPIPE.
    ssize_t written = sendmsg(fd_, &message, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("sendmsg");
    }
    parts = ConsumeIovecs(parts, static_cast<size_t>(written));
  }
  return Status::Ok();
}

std::span<iovec> ConsumeIovecs(std::span<iovec> parts, size_t written) {
  while (!parts.empty() && parts.front().iov_len <= written) {
    written -= parts.front().iov_len;
    parts = parts.subspan(1);
  }
  if (written > 0 && !parts.empty()) {
    parts.front().iov_base =
        static_cast<char*>(parts.front().iov_base) + written;
    parts.front().iov_len -= written;
  }
  return parts;
}

Status Socket::ReadAll(void* data, size_t n) {
  if (!valid()) return Status::FailedPrecondition("read on closed socket");
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < n) {
    ssize_t r = recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired (see SetRecvTimeout).
        return Status::Unavailable("recv timed out mid-message");
      }
      return ErrnoStatus("recv");
    }
    if (r == 0) {
      if (got == 0) return Status::NotFound("connection closed by peer");
      return Status::Internal("connection closed mid-message");
    }
    got += static_cast<size_t>(r);
  }
  return Status::Ok();
}

Status Socket::SetRecvTimeout(int timeout_ms) {
  if (!valid()) {
    return Status::FailedPrecondition("set timeout on closed socket");
  }
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
  }
  if (setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoStatus("setsockopt(SO_RCVTIMEO)");
  }
  return Status::Ok();
}

Status Socket::WaitReadable(int timeout_ms) {
  if (!valid()) return Status::FailedPrecondition("wait on closed socket");
  pollfd pfd{fd_, POLLIN, 0};
  int ready = PollRetryEintr(&pfd, timeout_ms);
  if (ready < 0) return ErrnoStatus("poll");
  if (ready == 0) {
    return Status::Unavailable(
        StrFormat("read timed out after %d ms", timeout_ms));
  }
  return Status::Ok();
}

void Socket::ShutdownBoth() {
  if (valid()) shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (valid()) {
    close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Listener> Listener::Bind(const std::string& address, uint16_t port,
                                int backlog) {
  DPSP_ASSIGN_OR_RETURN(sockaddr_in addr, ParseAddress(address, port));
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Listener listener;
  listener.fd_ = fd;  // owned from here; error paths close via destructor
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (listen(fd, backlog) != 0) return ErrnoStatus("listen");
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<Socket> Listener::Accept(int timeout_ms) {
  if (!valid()) return Status::FailedPrecondition("accept on closed listener");
  pollfd pfd{fd_, POLLIN, 0};
  // EINTR restarts the poll against the deadline instead of surfacing as
  // a spurious kUnavailable: a server that forks workers (and so takes
  // SIGCHLD) was previously seeing phantom "accept timed out" results.
  int ready = PollRetryEintr(&pfd, timeout_ms);
  if (ready == 0) return Status::Unavailable("accept timed out");
  int fd = ready < 0 ? -1 : accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    // The listener stays readable, so retrying at once would spin.
    Status failed = ErrnoStatus(ready < 0 ? "poll" : "accept");
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(timeout_ms, 0)));
    return Status::Unavailable(failed.message());
  }
  SetNoDelay(fd);
  return Socket(fd);
}

void Listener::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Result<Socket> Connect(const std::string& address, uint16_t port) {
  DPSP_ASSIGN_OR_RETURN(sockaddr_in addr, ParseAddress(address, port));
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Socket sock(fd);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("connect");
  }
  SetNoDelay(fd);
  return sock;
}

}  // namespace net
}  // namespace dpsp
