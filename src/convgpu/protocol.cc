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
                     std::optional<std::chrono::milliseconds> timeout,
                     ipc::Fd* received) {
  // Requests go out as JSON, which the daemon answers in JSON (each frame
  // is answered in its own encoding); the reply is still decoded by
  // whatever encoding it arrives in.
  CONVGPU_RETURN_IF_ERROR(
      client.SendFrame(EncodePayload(json_codec(), request, req_id)));
  std::optional<ipc::MessageClient::Deadline> deadline;
  if (timeout) deadline = std::chrono::steady_clock::now() + *timeout;
  auto reply = client.RecvFrameView(deadline, received);
  if (!reply.ok()) return reply.status();
  std::optional<ReqId> echoed;
  auto message = DecodePayload(*reply, echoed);
  // A reply to an id-bearing request echoes that id: a missing or *wrong*
  // id means the stream answered some other request.
  if (req_id && echoed != req_id) {
    return FailedPreconditionError(
        "reply correlation mismatch: sent req_id " + std::to_string(*req_id) +
        ", got " + (echoed ? std::to_string(*echoed) : "none"));
  }
  return message;
}

Status Notify(ipc::MessageClient& client, const Message& message) {
  return client.SendFrame(EncodePayload(json_codec(), message));
}

}  // namespace convgpu::protocol
