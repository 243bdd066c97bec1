#include "ipc/framing.h"

#include <array>
#include <cstdint>

#include "ipc/socket.h"

namespace convgpu::ipc {

namespace {

std::array<unsigned char, 4> EncodeLength(std::uint32_t n) {
  return {static_cast<unsigned char>((n >> 24) & 0xFF),
          static_cast<unsigned char>((n >> 16) & 0xFF),
          static_cast<unsigned char>((n >> 8) & 0xFF),
          static_cast<unsigned char>(n & 0xFF)};
}

std::uint32_t DecodeLength(const std::array<unsigned char, 4>& b) {
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) |
         static_cast<std::uint32_t>(b[3]);
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return InvalidArgumentError("frame too large: " + std::to_string(payload.size()));
  }
  const auto header = EncodeLength(static_cast<std::uint32_t>(payload.size()));
  CONVGPU_RETURN_IF_ERROR(WriteExact(fd, header.data(), header.size()));
  return WriteExact(fd, payload.data(), payload.size());
}

Result<std::string> ReadFrame(int fd) {
  std::array<unsigned char, 4> header{};
  CONVGPU_RETURN_IF_ERROR(ReadExact(fd, header.data(), header.size()));
  const std::uint32_t length = DecodeLength(header);
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
