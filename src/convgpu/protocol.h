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
//
// Each wire struct is followed by its kWire table: the struct's fields in
// declaration order, each with its JSON key and JSON rule, plus the "type"
// string of a Message alternative. The codecs (codec.h) walk these tables
// and nothing else, so adding a field means adding it to the struct and a
// row to its table.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"

namespace convgpu::protocol {

/// How the JSON encoding treats a field. The binary encoding carries every
/// field, always.
enum class JsonRule : std::uint8_t {
  kRequired,  // decode fails "<type>: missing field '<key>'" when the key is
              // absent or of the wrong JSON kind
  kOptional,  // absent or wrong kind decodes to the field's default
  kOmitted,   // optional, and left out of the JSON while at its default
};

/// One row of a WireTable: a member of S, its JSON key and its rule.
template <typename S, typename T>
struct Field {
  T S::*member;
  std::string_view key;
  JsonRule rule;
};

template <typename S, typename T>
constexpr Field<S, T> Required(T S::*member, std::string_view key) {
  return {member, key, JsonRule::kRequired};
}
template <typename S, typename T>
constexpr Field<S, T> Optional(T S::*member, std::string_view key) {
  return {member, key, JsonRule::kOptional};
}
template <typename S, typename T>
constexpr Field<S, T> OmittedAtDefault(T S::*member, std::string_view key) {
  return {member, key, JsonRule::kOmitted};
}

/// A wire struct's description: its Message "type" (kNested for a struct
/// that only travels inside a message) and its fields in declaration order,
/// which is the binary layout.
template <typename... Fs>
struct WireTable {
  std::string_view type;
  std::tuple<Fs...> fields;
};

inline constexpr std::string_view kNested;

template <typename... Fs>
constexpr WireTable<Fs...> Wire(std::string_view type, Fs... fields) {
  return {type, {fields...}};
}

/// Specialized once per wire struct, right below it.
template <typename S>
inline constexpr auto kWire = nullptr;

struct RegisterContainer {
  std::string container_id;
  std::optional<Bytes> memory_limit;  // absent => scheduler default (1 GiB)
  bool operator==(const RegisterContainer&) const = default;
};
template <>
inline constexpr auto kWire<RegisterContainer> =
    Wire("register_container",
         Required(&RegisterContainer::container_id, "container_id"),
         OmittedAtDefault(&RegisterContainer::memory_limit, "memory_limit"));

struct RegisterReply {
  bool ok = false;
  std::string error;
  std::string socket_dir;   // per-container directory (volume source)
  std::string socket_path;  // UNIX socket inside that directory
  bool operator==(const RegisterReply&) const = default;
};
template <>
inline constexpr auto kWire<RegisterReply> =
    Wire("register_reply",
         Optional(&RegisterReply::ok, "ok"),
         OmittedAtDefault(&RegisterReply::error, "error"),
         Optional(&RegisterReply::socket_dir, "socket_dir"),
         Optional(&RegisterReply::socket_path, "socket_path"));

struct AllocRequest {
  std::string container_id;
  Pid pid = 0;
  Bytes size = 0;       // wrapper-adjusted size (pitch / managed rounding)
  std::string api;      // originating CUDA API name, for logging/stats
  bool operator==(const AllocRequest&) const = default;
};
template <>
inline constexpr auto kWire<AllocRequest> =
    Wire("alloc_request",
         Required(&AllocRequest::container_id, "container_id"),
         Required(&AllocRequest::pid, "pid"),
         Required(&AllocRequest::size, "size"),
         Optional(&AllocRequest::api, "api"));

struct AllocReply {
  bool granted = false;
  std::string error;
  bool operator==(const AllocReply&) const = default;
};
template <>
inline constexpr auto kWire<AllocReply> =
    Wire("alloc_reply",
         Optional(&AllocReply::granted, "granted"),
         OmittedAtDefault(&AllocReply::error, "error"));

struct AllocCommit {
  std::string container_id;
  Pid pid = 0;
  std::uint64_t address = 0;
  Bytes size = 0;
  bool operator==(const AllocCommit&) const = default;
};
template <>
inline constexpr auto kWire<AllocCommit> =
    Wire("alloc_commit",
         Required(&AllocCommit::container_id, "container_id"),
         Required(&AllocCommit::pid, "pid"),
         Required(&AllocCommit::address, "address"),
         Required(&AllocCommit::size, "size"));

struct AllocAbort {
  std::string container_id;
  Pid pid = 0;
  Bytes size = 0;
  bool operator==(const AllocAbort&) const = default;
};
template <>
inline constexpr auto kWire<AllocAbort> =
    Wire("alloc_abort",
         Required(&AllocAbort::container_id, "container_id"),
         Required(&AllocAbort::pid, "pid"),
         Required(&AllocAbort::size, "size"));

struct FreeNotify {
  std::string container_id;
  Pid pid = 0;
  std::uint64_t address = 0;
  bool operator==(const FreeNotify&) const = default;
};
template <>
inline constexpr auto kWire<FreeNotify> =
    Wire("free",
         Required(&FreeNotify::container_id, "container_id"),
         Required(&FreeNotify::pid, "pid"),
         Required(&FreeNotify::address, "address"));

struct MemGetInfoRequest {
  std::string container_id;
  Pid pid = 0;
  bool operator==(const MemGetInfoRequest&) const = default;
};
template <>
inline constexpr auto kWire<MemGetInfoRequest> =
    Wire("mem_get_info",
         Required(&MemGetInfoRequest::container_id, "container_id"),
         Optional(&MemGetInfoRequest::pid, "pid"));

struct MemInfoReply {
  Bytes free = 0;
  Bytes total = 0;
  bool operator==(const MemInfoReply&) const = default;
};
template <>
inline constexpr auto kWire<MemInfoReply> =
    Wire("mem_info_reply",
         Optional(&MemInfoReply::free, "free"),
         Optional(&MemInfoReply::total, "total"));

struct ProcessExit {
  std::string container_id;
  Pid pid = 0;
  bool operator==(const ProcessExit&) const = default;
};
template <>
inline constexpr auto kWire<ProcessExit> =
    Wire("process_exit",
         Required(&ProcessExit::container_id, "container_id"),
         Required(&ProcessExit::pid, "pid"));

struct ContainerClose {
  std::string container_id;
  bool operator==(const ContainerClose&) const = default;
};
template <>
inline constexpr auto kWire<ContainerClose> =
    Wire("container_close",
         Required(&ContainerClose::container_id, "container_id"));

struct Ping {
  bool operator==(const Ping&) const = default;
};
template <>
inline constexpr auto kWire<Ping> = Wire("ping");

struct Pong {
  bool operator==(const Pong&) const = default;
};
template <>
inline constexpr auto kWire<Pong> = Wire("pong");

struct StatsRequest {
  bool operator==(const StatsRequest&) const = default;
};
template <>
inline constexpr auto kWire<StatsRequest> = Wire("stats");

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
template <>
inline constexpr auto kWire<ContainerStatsWire> =
    Wire(kNested,
         Optional(&ContainerStatsWire::container_id, "container_id"),
         Optional(&ContainerStatsWire::limit, "limit"),
         Optional(&ContainerStatsWire::assigned, "assigned"),
         Optional(&ContainerStatsWire::used, "used"),
         Optional(&ContainerStatsWire::suspended, "suspended"),
         Optional(&ContainerStatsWire::total_suspended_sec,
                  "total_suspended_sec"),
         Optional(&ContainerStatsWire::suspend_episodes, "suspend_episodes"),
         Optional(&ContainerStatsWire::kicked_connections,
                  "kicked_connections"));

struct StatsReply {
  Bytes capacity = 0;
  Bytes free_pool = 0;
  std::string policy;
  std::uint64_t kicked_connections = 0;  // total across all listeners
  std::vector<ContainerStatsWire> containers;
  bool operator==(const StatsReply&) const = default;
};
template <>
inline constexpr auto kWire<StatsReply> =
    Wire("stats_reply",
         Optional(&StatsReply::capacity, "capacity"),
         Optional(&StatsReply::free_pool, "free_pool"),
         Optional(&StatsReply::policy, "policy"),
         Optional(&StatsReply::kicked_connections, "kicked_connections"),
         Optional(&StatsReply::containers, "containers"));

/// One live device allocation in a wrapper's reattach snapshot.
struct LiveAlloc {
  std::uint64_t address = 0;
  Bytes size = 0;
  bool operator==(const LiveAlloc&) const = default;
};
template <>
inline constexpr auto kWire<LiveAlloc> =
    Wire(kNested,
         Required(&LiveAlloc::address, "address"),
         Required(&LiveAlloc::size, "size"));

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
template <>
inline constexpr auto kWire<Hello> =
    Wire("hello",
         Required(&Hello::container_id, "container_id"),
         Required(&Hello::pid, "pid"),
         OmittedAtDefault(&Hello::binary, "binary"));

struct HelloReply {
  bool ok = false;
  std::string error;
  std::uint64_t epoch = 0;  // daemon session epoch; changes on restart
  Bytes limit = 0;          // the container's declared memory limit
  bool binary = false;      // daemon accepted binary for this connection
  /// This connection's slot on the container's ledger page, whose
  /// descriptor rides the same frame (SCM_RIGHTS); absent without a page.
  std::optional<std::uint64_t> page_slot;
  bool operator==(const HelloReply&) const = default;
};
template <>
inline constexpr auto kWire<HelloReply> =
    Wire("hello_reply",
         Optional(&HelloReply::ok, "ok"),
         OmittedAtDefault(&HelloReply::error, "error"),
         Optional(&HelloReply::epoch, "epoch"),
         Optional(&HelloReply::limit, "limit"),
         OmittedAtDefault(&HelloReply::binary, "binary"),
         OmittedAtDefault(&HelloReply::page_slot, "page_slot"));

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
template <>
inline constexpr auto kWire<Reattach> =
    Wire("reattach",
         Required(&Reattach::container_id, "container_id"),
         Required(&Reattach::pid, "pid"),
         Required(&Reattach::epoch, "epoch"),
         Optional(&Reattach::limit, "limit"),
         Optional(&Reattach::allocations, "allocations"),
         OmittedAtDefault(&Reattach::binary, "binary"));

struct ReattachReply {
  bool ok = false;
  std::string error;
  std::uint64_t epoch = 0;  // the daemon's *current* epoch
  bool binary = false;      // daemon accepted binary for this connection
  /// As HelloReply::page_slot: the new connection's ledger-page slot.
  std::optional<std::uint64_t> page_slot;
  bool operator==(const ReattachReply&) const = default;
};
template <>
inline constexpr auto kWire<ReattachReply> =
    Wire("reattach_reply",
         Optional(&ReattachReply::ok, "ok"),
         OmittedAtDefault(&ReattachReply::error, "error"),
         Optional(&ReattachReply::epoch, "epoch"),
         OmittedAtDefault(&ReattachReply::binary, "binary"),
         OmittedAtDefault(&ReattachReply::page_slot, "page_slot"));

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

/// The "type" string a given alternative serializes to (its kWire table's
/// type; for tests/logging).
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
class Fd;
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
/// (handshakes against a possibly-hung peer). With `received`, a descriptor
/// passed with the reply (the ledger page on a handshake reply) lands there.
Result<Message> Call(
    ipc::MessageClient& client, const Message& request,
    std::optional<ReqId> req_id = std::nullopt,
    std::optional<std::chrono::milliseconds> timeout = std::nullopt,
    ipc::Fd* received = nullptr);

/// Typed one-way send.
Status Notify(ipc::MessageClient& client, const Message& message);

}  // namespace convgpu::protocol
