// Message framing: 4-byte big-endian length prefix + opaque payload bytes.
//
// UNIX stream sockets provide a byte stream; ConVGPU's protocol is message
// oriented, so every encoded message (convgpu/codec.h) travels in one frame.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace convgpu::ipc {

/// Upper bound on a frame payload — protocol messages are tiny; anything
/// bigger indicates a desynchronized stream or hostile peer.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

/// Bytes of the length prefix in front of every payload.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Writes one length-prefixed frame (blocking): header and payload leave in
/// one sendmsg(2), retried only on a short write.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one complete frame (blocking). kAborted on clean EOF between frames.
Result<std::string> ReadFrame(int fd);

/// Appends header + payload to `out`. Allocation-free once `out` has the
/// capacity — how the reactor frames replies into its output buffers.
void AppendFrame(std::string& out, std::string_view payload);

/// The payload length announced by the 4 header bytes at `header`.
std::uint32_t FrameLength(const char* header);

}  // namespace convgpu::ipc
