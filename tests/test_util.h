// Shared test helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>

#include <unistd.h>

#include "convgpu/codec.h"
#include "convgpu/scheduler_link.h"
#include "ipc/message_server.h"

namespace convgpu::testing {

/// Polls `predicate` until it returns true or `timeout` elapses; returns
/// whether it became true. The deflaked replacement for fixed-length sleeps:
/// fast machines pass immediately, slow (sanitizer) machines get the full
/// window.
inline bool WaitUntil(
    const std::function<bool()>& predicate,
    std::chrono::milliseconds timeout = std::chrono::seconds(10),
    std::chrono::milliseconds poll = std::chrono::milliseconds(1)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(poll);
  }
  return true;
}

/// Unique temporary directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "convgpu-test") {
    std::string templ = "/tmp/" + prefix + "-XXXXXX";
    path_ = ::mkdtemp(templ.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Options for a link that says hello as `container_id`/`pid`, with no
/// reconnect.
inline SocketSchedulerLink::Options HelloOptions(std::string container_id,
                                                 Pid pid) {
  SocketSchedulerLink::Options options;
  options.container_id = std::move(container_id);
  options.pid = pid;
  return options;
}

/// The id-less JSON hello a raw peer opens a container connection with; the
/// daemon answers it, like every frame, in the frame's own encoding.
inline std::string HelloFrame(const std::string& container_id, Pid pid) {
  protocol::Hello hello;
  hello.container_id = container_id;
  hello.pid = pid;
  return protocol::EncodePayload(protocol::json_codec(),
                                 protocol::Message(hello));
}

/// What a scripted daemon's handshake reply says.
struct HandshakeAnswer {
  std::uint64_t epoch = 1;
  Bytes limit = 0;  // hello replies only
  std::optional<std::uint64_t> page_slot;
  int page_fd = -1;  // rides the reply with SCM_RIGHTS when >= 0
};

/// The daemon's half of the handshake every link opens with, for scripted
/// daemons: when `payload` is a hello or reattach, answers it ok on `conn`
/// with `answer`, in JSON and id-less like the request, and returns true.
/// Any other frame returns false and is the caller's to handle.
inline bool AnswerHandshake(ipc::MessageServer& server, ipc::ConnectionId conn,
                            std::string_view payload,
                            const HandshakeAnswer& answer = {}) {
  auto message = protocol::DecodePayload(payload);
  if (!message.ok()) return false;
  protocol::Message reply;
  if (std::holds_alternative<protocol::Hello>(*message)) {
    protocol::HelloReply out;
    out.ok = true;
    out.epoch = answer.epoch;
    out.limit = answer.limit;
    out.page_slot = answer.page_slot;
    reply = out;
  } else if (std::holds_alternative<protocol::Reattach>(*message)) {
    protocol::ReattachReply out;
    out.ok = true;
    out.epoch = answer.epoch;
    out.page_slot = answer.page_slot;
    reply = out;
  } else {
    return false;
  }
  (void)server.SendBytes(
      conn, protocol::EncodePayload(protocol::json_codec(), reply),
      answer.page_fd);
  return true;
}

}  // namespace convgpu::testing
