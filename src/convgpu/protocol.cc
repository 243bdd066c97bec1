#include "convgpu/protocol.h"

#include "convgpu/codec.h"
#include "ipc/message_server.h"

namespace convgpu::protocol {

std::string_view TypeName(const Message& message) {
  return std::visit(
      [](const auto& m) { return kWire<std::decay_t<decltype(m)>>.type; },
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
