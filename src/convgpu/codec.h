// Wire codecs for the scheduler protocol.
//
// Every frame on the wire is `[4-byte big-endian length][payload]` (see
// ipc/framing.h). This header defines how the *payload* is encoded:
//
//  * JsonCodec   — the paper's encoding: a JSON object with a "type"
//    discriminator (and optional "req_id"), keys in sorted order; the
//    exact bytes are pinned by golden bytes in protocol_test.
//  * BinaryCodec — a compact fixed-layout encoding: a magic byte, a tag
//    byte naming the Message alternative, a varint req_id (0 = absent),
//    then the struct's fields in declaration order (LEB128 varints,
//    length-prefixed strings, 1-byte bools, 8-byte little-endian doubles).
//
// Neither codec has per-message code: both walk the kWire field table each
// wire struct carries in protocol.h (fields in declaration order, JSON key,
// required / optional / omitted-at-default). Adding a field means editing
// the struct and its table row, nothing else.
//
// The first payload byte discriminates the encodings: binary payloads
// start with kBinaryMagic (>= 0x80), which can never begin a JSON document
// — so *decoders accept both encodings unconditionally* (DetectCodec), and
// negotiation via the hello/reattach handshake only governs which encoding
// each side *sends*. A peer that never advertises binary keeps speaking —
// and receiving — JSON, exactly the old wire format.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "convgpu/protocol.h"

namespace convgpu::protocol {

/// First byte of every binary-encoded payload. A JSON document begins with
/// '{', '[', '"', a digit, '-', or a literal — all < 0x80 — so this byte
/// unambiguously marks the binary encoding.
inline constexpr unsigned char kBinaryMagic = 0xBF;

/// One wire encoding for protocol::Message payloads. Implementations are
/// stateless and immutable: the shared instances returned by json_codec()
/// and binary_codec() are safe to use from any number of threads.
class Codec {
 public:
  Codec() = default;
  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;
  virtual ~Codec() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Replaces `out` with the encoded payload. `out` is a caller-owned
  /// scratch buffer: reuse it across calls and the steady state allocates
  /// nothing once the buffer has grown to the working-set frame size (both
  /// implementations write directly into it — no intermediate tree).
  virtual void Encode(const Message& message, std::optional<ReqId> req_id,
                      std::string& out) const = 0;

  /// Bounds-checked decode. kInvalidArgument for truncated, malformed, or
  /// trailing-garbage payloads; never reads past `payload`.
  [[nodiscard]] Result<Message> Decode(std::string_view payload) const {
    std::optional<ReqId> unused;
    return Decode(payload, unused);
  }

  /// Decode that also yields the correlation id, from the same single pass
  /// over the payload: `req_id` is what PeekReqId would return, set even
  /// when the fields then fail to decode (a reply can still be routed to
  /// its caller as an error).
  [[nodiscard]] virtual Result<Message> Decode(
      std::string_view payload, std::optional<ReqId>& req_id) const = 0;

  /// The payload's correlation id without a full decode; empty for id-less
  /// frames and for payloads too mangled to carry one.
  [[nodiscard]] virtual std::optional<ReqId> PeekReqId(
      std::string_view payload) const = 0;
};

/// Shared immutable codec instances.
const Codec& json_codec();
const Codec& binary_codec();

/// Picks the codec a payload is encoded with by its first byte. Total: any
/// payload (including an empty or garbage one) maps to some codec, whose
/// Decode then reports the precise error.
const Codec& DetectCodec(std::string_view payload);

/// Detect + Decode: accepts either encoding, whatever was negotiated.
Result<Message> DecodePayload(std::string_view payload);
/// Detect + Decode with the correlation id (one parse for both).
Result<Message> DecodePayload(std::string_view payload,
                              std::optional<ReqId>& req_id);

/// Detect + PeekReqId.
std::optional<ReqId> PeekPayloadReqId(std::string_view payload);

/// Convenience for non-hot-path callers: encode into a fresh string.
std::string EncodePayload(const Codec& codec, const Message& message,
                          std::optional<ReqId> req_id = std::nullopt);

/// The typed entry point for raw wire payloads: decodes `payload` with
/// whichever codec it is encoded in, surfaces its correlation id (filled in
/// before the visitor runs, so reply paths — deferred ones included — can
/// echo it), and visits the message. Malformed payloads are rejected here —
/// the returned status is the decode error and the visitor never runs — so
/// handlers never touch raw bytes.
template <typename V>
Status DispatchFrame(std::string_view payload, std::optional<ReqId>& req_id,
                     V&& visitor) {
  auto message = DecodePayload(payload, req_id);
  if (!message.ok()) return message.status();
  std::visit(std::forward<V>(visitor), *message);
  return Status::Ok();
}

}  // namespace convgpu::protocol
