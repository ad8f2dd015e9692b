// Thin RAII wrappers over POSIX TCP sockets — the only file in the tree
// that talks to the BSD socket API. Everything above (protocol framing,
// the query server, the client library) works in terms of Socket's
// whole-buffer ReadAll/WriteAll, its gather write WriteAllv, and
// Listener's poll-based Accept, so the transport could be swapped (unix
// sockets, TLS) behind this header.
//
// Error handling follows the library convention: no exceptions, fallible
// calls return Status/Result. EOF mid-read is an error (the framing layer
// always knows how many bytes it expects); a clean EOF before the first
// byte of a frame is reported as kNotFound so connection loops can tell
// "peer hung up" from "peer sent garbage".

#ifndef DPSP_NET_SOCKET_H_
#define DPSP_NET_SOCKET_H_

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"

namespace dpsp {
namespace net {

/// A connected TCP stream socket. Movable, not copyable: one object owns
/// the file descriptor and closes it on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all `n` bytes (looping over short writes). SIGPIPE is
  /// suppressed; a peer reset surfaces as a Status.
  Status WriteAll(const void* data, size_t n);

  /// Writes the concatenation of `parts`, in order, with one sendmsg per
  /// attempt: separate buffers (a frame header and a caller's payload) go
  /// out together without being joined in user space. Short writes
  /// advance the gather list in place (ConsumeIovecs), so on return the
  /// entries of `parts` no longer describe the original buffers. Same
  /// errors as WriteAll.
  Status WriteAllv(std::span<iovec> parts);

  /// Reads exactly `n` bytes (looping over short reads). EOF before the
  /// first byte returns kNotFound ("connection closed"); EOF mid-buffer
  /// returns kInternal (truncated stream).
  Status ReadAll(void* data, size_t n);

  /// Waits until the socket is readable (data or EOF pending, so the next
  /// ReadAll will not block). kUnavailable on timeout. `timeout_ms` < 0
  /// waits forever; signal interruptions restart the wait against a
  /// monotonic deadline, they never shorten or fail it.
  Status WaitReadable(int timeout_ms);

  /// Arms a kernel receive timeout (SO_RCVTIMEO): a ReadAll that stalls
  /// mid-buffer for longer than `timeout_ms` fails with kUnavailable
  /// instead of blocking forever. WaitReadable only guards the *first*
  /// byte of a frame; this guards every byte after it, so a peer that
  /// sends a frame header and then wedges (a torn replication frame)
  /// cannot hang the reader. `timeout_ms` <= 0 disables the timeout.
  Status SetRecvTimeout(int timeout_ms);

  /// Shuts down both directions without closing the fd: unblocks a peer
  /// (or another thread of this process) blocked in ReadAll.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to the loopback or a given IPv4 address.
class Listener {
 public:
  /// Binds and listens on `address:port` (IPv4 dotted quad; "0.0.0.0" for
  /// all interfaces). Port 0 picks an ephemeral port; read it back with
  /// port(). SO_REUSEADDR is set so restarting a server does not wait out
  /// TIME_WAIT.
  static Result<Listener> Bind(const std::string& address, uint16_t port,
                               int backlog = 128);

  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  bool valid() const { return fd_ >= 0; }

  /// The bound port (resolves port 0 to the kernel-assigned one).
  uint16_t port() const { return port_; }

  /// Waits up to `timeout_ms` for a connection and accepts it. Returns
  /// kUnavailable on timeout so accept loops can poll a stop flag between
  /// waits instead of blocking forever. TCP_NODELAY is set on the
  /// accepted socket (request/response protocol; Nagle only adds latency).
  Result<Socket> Accept(int timeout_ms);

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Connects to `address:port` (IPv4 dotted quad, or "localhost"). Sets
/// TCP_NODELAY on the connection.
Result<Socket> Connect(const std::string& address, uint16_t port);

/// Drops the first `written` bytes from the front of a gather list, the
/// bookkeeping after a short write: fully sent buffers (and empty ones)
/// leave the list, and a partly sent one is trimmed in place. Returns
/// what is still unsent, empty once everything is.
std::span<iovec> ConsumeIovecs(std::span<iovec> parts, size_t written);

}  // namespace net
}  // namespace dpsp

#endif  // DPSP_NET_SOCKET_H_
