#include "ipc/framing.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "ipc/socket.h"

namespace convgpu::ipc {

namespace {

std::array<unsigned char, kFrameHeaderBytes> EncodeLength(std::uint32_t n) {
  return {static_cast<unsigned char>((n >> 24) & 0xFF),
          static_cast<unsigned char>((n >> 16) & 0xFF),
          static_cast<unsigned char>((n >> 8) & 0xFF),
          static_cast<unsigned char>(n & 0xFF)};
}

}  // namespace

std::uint32_t FrameLength(const char* header) {
  const auto* b = reinterpret_cast<const unsigned char*>(header);
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) |
         static_cast<std::uint32_t>(b[3]);
}

void AppendFrame(std::string& out, std::string_view payload) {
  const auto header = EncodeLength(static_cast<std::uint32_t>(payload.size()));
  out.append(reinterpret_cast<const char*>(header.data()), header.size());
  out.append(payload);
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return InvalidArgumentError("frame too large: " + std::to_string(payload.size()));
  }
  auto header = EncodeLength(static_cast<std::uint32_t>(payload.size()));
  std::array<iovec, 2> iov{
      iovec{header.data(), header.size()},
      iovec{const_cast<char*>(payload.data()), payload.size()}};
  msghdr message{};
  message.msg_iov = iov.data();
  message.msg_iovlen = payload.empty() ? 1 : 2;
  for (;;) {
    // MSG_NOSIGNAL: writing to a peer that vanished must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) return AbortedError("connection closed by peer");
      return InternalError(std::string("write: ") + std::strerror(errno));
    }
    // Short write (a full socket buffer): skip what went out and resend the
    // rest.
    auto sent = static_cast<std::size_t>(n);
    while (message.msg_iovlen > 0 && sent >= message.msg_iov->iov_len) {
      sent -= message.msg_iov->iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
    if (message.msg_iovlen == 0) return Status::Ok();
    message.msg_iov->iov_base =
        static_cast<char*>(message.msg_iov->iov_base) + sent;
    message.msg_iov->iov_len -= sent;
  }
}

Result<std::string> ReadFrame(int fd) {
  std::array<char, kFrameHeaderBytes> header{};
  CONVGPU_RETURN_IF_ERROR(ReadExact(fd, header.data(), header.size()));
  const std::uint32_t length = FrameLength(header.data());
  if (length > kMaxFrameBytes) {
    return InternalError("oversized frame: " + std::to_string(length));
  }
  std::string payload(length, '\0');
  if (length > 0) {
    auto status = ReadExact(fd, payload.data(), length);
    if (!status.ok()) {
      // EOF inside a frame is a protocol error, not a clean close.
      if (status.code() == StatusCode::kAborted) {
        return InternalError("EOF inside frame");
      }
      return status;
    }
  }
  return payload;
}

}  // namespace convgpu::ipc
