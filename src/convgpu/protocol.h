// ConVGPU wire protocol: JSON messages over UNIX domain sockets (paper
// §III: "connected and communicating using UNIX Domain Socket with JSON
// format").
//
// Flows:
//   nvidia-docker  → scheduler : register_container   (request/reply)
//   wrapper module → scheduler : alloc_request        (request/reply —
//                                the reply may be suspended indefinitely)
//                                alloc_commit, alloc_abort, free,
//                                process_exit         (one-way)
//                                mem_get_info         (request/reply)
//   plugin         → scheduler : container_close      (one-way)
//   tooling        → scheduler : ping, stats          (request/reply)
#pragma once

#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"

namespace convgpu::protocol {

struct RegisterContainer {
  std::string container_id;
  std::optional<Bytes> memory_limit;  // absent => scheduler default (1 GiB)
  bool operator==(const RegisterContainer&) const = default;
};

struct RegisterReply {
  bool ok = false;
  std::string error;
  std::string socket_dir;   // per-container directory (volume source)
  std::string socket_path;  // UNIX socket inside that directory
  bool operator==(const RegisterReply&) const = default;
};

struct AllocRequest {
  std::string container_id;
  Pid pid = 0;
  Bytes size = 0;       // wrapper-adjusted size (pitch / managed rounding)
  std::string api;      // originating CUDA API name, for logging/stats
  bool operator==(const AllocRequest&) const = default;
};

struct AllocReply {
  bool granted = false;
  std::string error;
  bool operator==(const AllocReply&) const = default;
};

struct AllocCommit {
  std::string container_id;
  Pid pid = 0;
  std::uint64_t address = 0;
  Bytes size = 0;
  bool operator==(const AllocCommit&) const = default;
};

struct AllocAbort {
  std::string container_id;
  Pid pid = 0;
  Bytes size = 0;
  bool operator==(const AllocAbort&) const = default;
};

struct FreeNotify {
  std::string container_id;
  Pid pid = 0;
  std::uint64_t address = 0;
  bool operator==(const FreeNotify&) const = default;
};

struct MemGetInfoRequest {
  std::string container_id;
  Pid pid = 0;
  bool operator==(const MemGetInfoRequest&) const = default;
};

struct MemInfoReply {
  Bytes free = 0;
  Bytes total = 0;
  bool operator==(const MemInfoReply&) const = default;
};

struct ProcessExit {
  std::string container_id;
  Pid pid = 0;
  bool operator==(const ProcessExit&) const = default;
};

struct ContainerClose {
  std::string container_id;
  bool operator==(const ContainerClose&) const = default;
};

struct Ping {
  bool operator==(const Ping&) const = default;
};
struct Pong {
  bool operator==(const Pong&) const = default;
};

struct StatsRequest {
  bool operator==(const StatsRequest&) const = default;
};

struct ContainerStatsWire {
  std::string container_id;
  Bytes limit = 0;
  Bytes assigned = 0;
  Bytes used = 0;
  bool suspended = false;
  double total_suspended_sec = 0.0;
  std::uint64_t suspend_episodes = 0;
  std::uint64_t kicked_connections = 0;  // backpressure disconnects on this
                                         // container's listener
  bool operator==(const ContainerStatsWire&) const = default;
};

struct StatsReply {
  Bytes capacity = 0;
  Bytes free_pool = 0;
  std::string policy;
  std::uint64_t kicked_connections = 0;  // total across all listeners
  std::vector<ContainerStatsWire> containers;
  bool operator==(const StatsReply&) const = default;
};

/// One live device allocation in a wrapper's reattach snapshot.
struct LiveAlloc {
  std::uint64_t address = 0;
  Bytes size = 0;
  bool operator==(const LiveAlloc&) const = default;
};

/// First message a reconnect-capable wrapper link sends on its initial
/// connection to the per-container socket. The reply teaches the link the
/// daemon's session epoch and the container's declared limit — everything
/// it needs to reattach after a daemon restart.
struct Hello {
  std::string container_id;
  Pid pid = 0;
  bool binary = false;  // sender can speak the binary encoding (codec.h)
  bool operator==(const Hello&) const = default;
};

struct HelloReply {
  bool ok = false;
  std::string error;
  std::uint64_t epoch = 0;  // daemon session epoch; changes on restart
  Bytes limit = 0;          // the container's declared memory limit
  bool binary = false;      // daemon accepted binary for this connection
  bool operator==(const HelloReply&) const = default;
};

/// Sent instead of Hello when the link reconnects after losing the daemon:
/// carries the wrapper-local ledger snapshot (the pid's live allocations
/// plus the limit learned at Hello) so a restarted daemon can rebuild its
/// per-container state from the wrapper's ground truth.
struct Reattach {
  std::string container_id;
  Pid pid = 0;
  std::uint64_t epoch = 0;  // the epoch learned from Hello/ReattachReply
  Bytes limit = 0;          // declared limit learned from HelloReply
  std::vector<LiveAlloc> allocations;
  bool binary = false;  // re-negotiated per connection; see codec.h
  bool operator==(const Reattach&) const = default;
};

struct ReattachReply {
  bool ok = false;
  std::string error;
  std::uint64_t epoch = 0;  // the daemon's *current* epoch
  bool binary = false;      // daemon accepted binary for this connection
  bool operator==(const ReattachReply&) const = default;
};

using Message =
    std::variant<RegisterContainer, RegisterReply, AllocRequest, AllocReply,
                 AllocCommit, AllocAbort, FreeNotify, MemGetInfoRequest,
                 MemInfoReply, ProcessExit, ContainerClose, Ping, Pong,
                 StatsRequest, StatsReply, Hello, HelloReply, Reattach,
                 ReattachReply>;

/// Request-correlation id. Ids are assigned by the *requesting* side, are
/// opaque to the scheduler, and scope to one connection; a peer echoes the
/// id of the request a reply answers (deferred grants included). Frames
/// without an id remain fully valid — the pre-correlation protocol — so
/// old and new peers interoperate in both directions.
using ReqId = std::uint64_t;

/// Largest id representable on the wire: ids ride in a JSON integer field
/// (signed 64-bit), so the usable space is [1, INT64_MAX]. Issuers wrap
/// back to 1 past this — see ReplyRouter.
inline constexpr ReqId kMaxWireReqId =
    static_cast<ReqId>(std::numeric_limits<std::int64_t>::max());

/// The "type" string a given alternative serializes to (for tests/logging).
std::string_view TypeName(const Message& message);

/// Overload set for DispatchFrame (codec.h): one callable per message type
/// the caller handles, plus a generic arm for everything else, e.g.
///
///   protocol::DispatchFrame(payload, req_id, protocol::Visitor{
///       [&](const protocol::AllocRequest& request) { ... },
///       [&](const protocol::Ping&) { ... },
///       [&](const auto& other) { /* unexpected type */ },
///   });
template <typename... Fns>
struct Visitor : Fns... {
  using Fns::operator()...;
};
template <typename... Fns>
Visitor(Fns...) -> Visitor<Fns...>;

/// Narrows a decoded reply to the expected alternative; kInvalidArgument
/// (naming the actual type) on a mismatched reply.
template <typename T>
Result<T> Expect(Result<Message> reply) {
  if (!reply.ok()) return reply.status();
  if (auto* typed = std::get_if<T>(&*reply)) return std::move(*typed);
  return InvalidArgumentError("unexpected reply type: " +
                              std::string(TypeName(*reply)));
}

}  // namespace convgpu::protocol

namespace convgpu::ipc {
class MessageClient;
}  // namespace convgpu::ipc

namespace convgpu::protocol {

/// Typed request/reply over a blocking client: encode as JSON, send, block
/// for one frame, decode it in whichever encoding it arrives. Suspended
/// allocation replies block here, exactly like the raw client. When
/// `req_id` is given it rides on the request and the reply's echoed id — if
/// the peer echoes one at all (old daemons do not) — must match, else
/// kFailedPrecondition; this catches a desynchronized stream instead of
/// silently consuming someone else's reply. With a `timeout`, the reply
/// must start arriving within it or the call fails with kDeadlineExceeded
/// (handshakes against a possibly-hung peer).
Result<Message> Call(
    ipc::MessageClient& client, const Message& request,
    std::optional<ReqId> req_id = std::nullopt,
    std::optional<std::chrono::milliseconds> timeout = std::nullopt);

/// Typed one-way send.
Status Notify(ipc::MessageClient& client, const Message& message);

}  // namespace convgpu::protocol
