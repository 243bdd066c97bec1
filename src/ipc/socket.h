// Blocking stream-socket primitives: UNIX domain sockets (the transport the
// paper chose, §III-A) plus TCP loopback (kept for the transport ablation
// benchmark that justifies that choice).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include <sys/types.h>

#include "common/result.h"
#include "ipc/fd.h"

namespace convgpu::ipc {

/// Listening UNIX domain socket bound to a filesystem path. The path is
/// unlinked on construction (stale socket files) and on destruction.
class UnixListener {
 public:
  static Result<UnixListener> Bind(const std::string& path, int backlog = 64);

  UnixListener(UnixListener&&) = default;
  UnixListener& operator=(UnixListener&&) = default;
  ~UnixListener();

  /// Blocking accept. Fails with kAborted if the listener was closed.
  Result<Fd> Accept();

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  UnixListener(Fd fd, std::string path) : fd_(std::move(fd)), path_(std::move(path)) {}

  Fd fd_;
  std::string path_;
};

/// Blocking connect to a UNIX socket path.
Result<Fd> UnixConnect(const std::string& path);

/// Connect with a deadline: non-blocking connect(2) polled up to `timeout`,
/// then restored to blocking mode. kUnavailable on refusal,
/// kDeadlineExceeded when the deadline passes first. With UNIX sockets the
/// kernel usually decides synchronously, but a listener whose backlog is
/// full parks the caller in EINPROGRESS/EAGAIN — exactly the state a
/// reconnecting wrapper must not block in forever.
Result<Fd> UnixConnect(const std::string& path,
                       std::chrono::milliseconds timeout);

/// Listening TCP socket on 127.0.0.1:`port` (0 = ephemeral).
class TcpListener {
 public:
  static Result<TcpListener> Bind(std::uint16_t port = 0, int backlog = 64);

  Result<Fd> Accept();

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  TcpListener(Fd fd, std::uint16_t port) : fd_(std::move(fd)), port_(port) {}

  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Blocking connect to 127.0.0.1:`port`.
Result<Fd> TcpConnect(std::uint16_t port);

/// Connected AF_UNIX socket pair (for in-process tests of socket code).
Result<std::pair<Fd, Fd>> SocketPair();

/// One sendmsg(2) of up to `size` bytes with descriptor `fd` attached
/// (SCM_RIGHTS, on the first byte), retried on EINTR. Returns the bytes
/// sent, or -1 with errno set (EAGAIN on a full non-blocking socket).
ssize_t SendWithFd(int socket, const char* data, std::size_t size, int fd);

/// One recvmsg(2) into `data`, retried on EINTR. A descriptor passed with
/// the bytes (SCM_RIGHTS) is stored in `received`, close-on-exec. Returns
/// the bytes read (0 at EOF), or -1 with errno set.
ssize_t RecvWithFd(int socket, char* data, std::size_t size, Fd* received);

/// Writes all `size` bytes, retrying on EINTR / short writes.
Status WriteExact(int fd, const void* data, std::size_t size);

/// Reads exactly `size` bytes. kAborted on clean EOF at offset 0,
/// kInternal on mid-message EOF.
Status ReadExact(int fd, void* data, std::size_t size);

}  // namespace convgpu::ipc
