#include "ipc/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace convgpu::ipc {

namespace {

Status Errno(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

}  // namespace

Result<UnixListener> UnixListener::Bind(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    return InvalidArgumentError("UNIX socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket(AF_UNIX)");

  ::unlink(path.c_str());  // remove stale socket file from a previous run
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind(" + path + ")");
  }
  if (::listen(fd.get(), backlog) != 0) {
    return Errno("listen(" + path + ")");
  }
  return UnixListener(std::move(fd), path);
}

UnixListener::~UnixListener() {
  if (fd_.valid() && !path_.empty()) ::unlink(path_.c_str());
}

Result<Fd> UnixListener::Accept() {
  for (;;) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) return Fd(client);
    if (errno == EINTR) continue;
    if (errno == EBADF || errno == EINVAL) {
      return AbortedError("listener closed");
    }
    return Errno("accept");
  }
}

Result<Fd> UnixConnect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    return InvalidArgumentError("UNIX socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return UnavailableError("connect(" + path + "): " + std::strerror(errno));
  }
  return fd;
}

Result<Fd> UnixConnect(const std::string& path,
                       std::chrono::milliseconds timeout) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    return InvalidArgumentError("UNIX socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket(AF_UNIX)");

  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }

  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    // A UNIX connect against a full backlog reports EAGAIN (not
    // EINPROGRESS like TCP); both mean "poll for writability".
    if (errno != EINPROGRESS && errno != EAGAIN) {
      return UnavailableError("connect(" + path + "): " +
                              std::strerror(errno));
    }
    pollfd pfd{};
    pfd.fd = fd.get();
    pfd.events = POLLOUT;
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (ready < 0) return Errno("poll(connect)");
    if (ready == 0) {
      return DeadlineExceededError("connect(" + path + "): timed out");
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (soerr != 0) {
      return UnavailableError("connect(" + path + "): " +
                              std::strerror(soerr));
    }
  }

  if (::fcntl(fd.get(), F_SETFL, flags) != 0) return Errno("fcntl(restore)");
  return fd;
}

Result<TcpListener> TcpListener::Bind(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket(AF_INET)");

  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind(tcp)");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen(tcp)");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return TcpListener(std::move(fd), ntohs(addr.sin_port));
}

Result<Fd> TcpListener::Accept() {
  for (;;) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) {
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Fd(client);
    }
    if (errno == EINTR) continue;
    return Errno("accept(tcp)");
  }
}

Result<Fd> TcpConnect(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket(AF_INET)");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return UnavailableError(std::string("connect(tcp): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::pair<Fd, Fd>> SocketPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Errno("socketpair");
  }
  return std::make_pair(Fd(fds[0]), Fd(fds[1]));
}

ssize_t SendWithFd(int socket, const char* data, std::size_t size, int fd) {
  iovec iov{const_cast<char*>(data), size};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr message{};
  message.msg_iov = &iov;
  message.msg_iovlen = 1;
  message.msg_control = control;
  message.msg_controllen = sizeof(control);
  cmsghdr* cmsg = CMSG_FIRSTHDR(&message);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), &fd, sizeof(int));
  for (;;) {
    const ssize_t n = ::sendmsg(socket, &message, MSG_NOSIGNAL);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t RecvWithFd(int socket, char* data, std::size_t size, Fd* received) {
  iovec iov{data, size};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr message{};
  message.msg_iov = &iov;
  message.msg_iovlen = 1;
  message.msg_control = control;
  message.msg_controllen = sizeof(control);
  ssize_t n = 0;
  do {
    n = ::recvmsg(socket, &message, MSG_CMSG_CLOEXEC);
  } while (n < 0 && errno == EINTR);
  for (cmsghdr* cmsg = n < 0 ? nullptr : CMSG_FIRSTHDR(&message);
       cmsg != nullptr; cmsg = CMSG_NXTHDR(&message, cmsg)) {
    if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS &&
        cmsg->cmsg_len == CMSG_LEN(sizeof(int))) {
      int fd = -1;
      std::memcpy(&fd, CMSG_DATA(cmsg), sizeof(int));
      received->Reset(fd);
    }
  }
  return n;
}

Status WriteExact(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t remaining = size;
  while (remaining > 0) {
    // MSG_NOSIGNAL: writing to a peer that vanished must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n = ::send(fd, p, remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) return AbortedError("connection closed by peer");
      return Errno("write");
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status ReadExact(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (n == 0) {
      if (got == 0) return AbortedError("connection closed");
      return InternalError("EOF mid-message");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

}  // namespace convgpu::ipc
