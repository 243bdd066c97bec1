#include "convgpu/protocol.h"

#include "convgpu/codec.h"
#include "ipc/message_server.h"

namespace convgpu::protocol {

std::string_view TypeName(const Message& message) {
  return std::visit(
      [](const auto& m) -> std::string_view {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RegisterContainer>) return "register_container";
        else if constexpr (std::is_same_v<T, RegisterReply>) return "register_reply";
        else if constexpr (std::is_same_v<T, AllocRequest>) return "alloc_request";
        else if constexpr (std::is_same_v<T, AllocReply>) return "alloc_reply";
        else if constexpr (std::is_same_v<T, AllocCommit>) return "alloc_commit";
        else if constexpr (std::is_same_v<T, AllocAbort>) return "alloc_abort";
        else if constexpr (std::is_same_v<T, FreeNotify>) return "free";
        else if constexpr (std::is_same_v<T, MemGetInfoRequest>) return "mem_get_info";
        else if constexpr (std::is_same_v<T, MemInfoReply>) return "mem_info_reply";
        else if constexpr (std::is_same_v<T, ProcessExit>) return "process_exit";
        else if constexpr (std::is_same_v<T, ContainerClose>) return "container_close";
        else if constexpr (std::is_same_v<T, Ping>) return "ping";
        else if constexpr (std::is_same_v<T, Pong>) return "pong";
        else if constexpr (std::is_same_v<T, StatsRequest>) return "stats";
        else if constexpr (std::is_same_v<T, StatsReply>) return "stats_reply";
        else if constexpr (std::is_same_v<T, Hello>) return "hello";
        else if constexpr (std::is_same_v<T, HelloReply>) return "hello_reply";
        else if constexpr (std::is_same_v<T, Reattach>) return "reattach";
        else return "reattach_reply";
      },
      message);
}

Result<Message> Call(ipc::MessageClient& client, const Message& request,
                     std::optional<ReqId> req_id,
                     std::optional<std::chrono::milliseconds> timeout) {
  // Requests go out as JSON (a raw client never negotiates binary), but the
  // reply is decoded by whatever encoding it arrives in, so a Call issued
  // on a binary-negotiated connection still correlates correctly.
  CONVGPU_RETURN_IF_ERROR(
      client.SendFrame(EncodePayload(json_codec(), request, req_id)));
  auto reply = timeout ? client.RecvFrame(*timeout) : client.RecvFrame();
  if (!reply.ok()) return reply.status();
  // An id-less reply is a legitimate old peer; a *wrong* id means the
  // stream answered some other request.
  if (const auto echoed = PeekPayloadReqId(*reply);
      echoed && req_id && *echoed != *req_id) {
    return FailedPreconditionError(
        "reply correlation mismatch: sent req_id " + std::to_string(*req_id) +
        ", got " + std::to_string(*echoed));
  }
  return DecodePayload(*reply);
}

Status Notify(ipc::MessageClient& client, const Message& message) {
  return client.SendFrame(EncodePayload(json_codec(), message));
}

}  // namespace convgpu::protocol
