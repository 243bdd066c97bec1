// Message framing: 4-byte big-endian length prefix + opaque payload bytes.
//
// UNIX stream sockets provide a byte stream; ConVGPU's protocol is message
// oriented, so every encoded message (convgpu/codec.h) travels in one frame.
#pragma once

#include <string>

#include "common/result.h"

namespace convgpu::ipc {

/// Upper bound on a frame payload — protocol messages are tiny; anything
/// bigger indicates a desynchronized stream or hostile peer.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

/// Writes one length-prefixed frame (blocking).
Status WriteFrame(int fd, std::string_view payload);

/// Reads one complete frame (blocking). kAborted on clean EOF between frames.
Result<std::string> ReadFrame(int fd);

}  // namespace convgpu::ipc
