#include "convgpu/codec.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "json/json.h"

namespace convgpu::protocol {

namespace {

// --- JSON text writer -------------------------------------------------------
//
// Writes the JSON encoding straight into the caller's buffer, with object
// keys in sorted order and escaping and number formatting exactly as
// json::Json::Dump would print them — so a tree-based peer emits the same
// bytes — without building a json::Json tree per message. The bytes are
// pinned by the golden table in protocol_test
// (CodecTest.JsonCodecMatchesGoldenBytes).

void AppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim.
        }
    }
  }
  out += '"';
}

void AppendInt(std::string& out, std::int64_t v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out.append(buf, ptr);
}

void AppendDouble(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";  // mirrors json::Json::Dump
    return;
  }
  char buf[40];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  (void)ec;
  std::string_view text(buf, static_cast<std::size_t>(ptr - buf));
  out += text;
  // Ensure doubles stay doubles on re-parse (same rule as Dump).
  if (text.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

/// Comma/brace management for one JSON object. Keys MUST be emitted in
/// sorted order — json::Json::Dump iterates a std::map.
class ObjectWriter {
 public:
  explicit ObjectWriter(std::string& out) : out_(out) { out_ += '{'; }

  std::string& Key(std::string_view key) {
    if (!first_) out_ += ',';
    first_ = false;
    AppendEscaped(out_, key);
    out_ += ':';
    return out_;
  }

  void Close() { out_ += '}'; }

 private:
  std::string& out_;
  bool first_ = true;
};

void StrField(ObjectWriter& w, std::string_view key, std::string_view value) {
  AppendEscaped(w.Key(key), value);
}

void IntField(ObjectWriter& w, std::string_view key, std::int64_t value) {
  AppendInt(w.Key(key), value);
}

void UIntField(ObjectWriter& w, std::string_view key, std::uint64_t value) {
  // The tree writer stores these as signed JSON integers.
  AppendInt(w.Key(key), static_cast<std::int64_t>(value));
}

void BoolField(ObjectWriter& w, std::string_view key, bool value) {
  w.Key(key) += value ? "true" : "false";
}

void DoubleField(ObjectWriter& w, std::string_view key, double value) {
  AppendDouble(w.Key(key), value);
}

/// "error" is only on the wire when non-empty (matches the tree writer).
void ErrorField(ObjectWriter& w, const std::string& error) {
  if (!error.empty()) StrField(w, "error", error);
}

/// "binary" (codec negotiation) is only on the wire when advertised — old
/// peers never see it, new peers treat absence as "JSON only".
void BinaryField(ObjectWriter& w, bool binary) {
  if (binary) BoolField(w, "binary", true);
}

/// "req_id" rides at its sorted position among the message's keys.
void ReqIdField(ObjectWriter& w, std::optional<ReqId> req_id) {
  if (req_id) UIntField(w, "req_id", *req_id);
}

void WriteJson(const RegisterContainer& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  StrField(w, "container_id", m.container_id);
  if (m.memory_limit) IntField(w, "memory_limit", *m.memory_limit);
  ReqIdField(w, req_id);
  StrField(w, "type", "register_container");
  w.Close();
}

void WriteJson(const RegisterReply& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  ErrorField(w, m.error);
  BoolField(w, "ok", m.ok);
  ReqIdField(w, req_id);
  StrField(w, "socket_dir", m.socket_dir);
  StrField(w, "socket_path", m.socket_path);
  StrField(w, "type", "register_reply");
  w.Close();
}

void WriteJson(const AllocRequest& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  StrField(w, "api", m.api);
  StrField(w, "container_id", m.container_id);
  IntField(w, "pid", m.pid);
  ReqIdField(w, req_id);
  IntField(w, "size", m.size);
  StrField(w, "type", "alloc_request");
  w.Close();
}

void WriteJson(const AllocReply& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  ErrorField(w, m.error);
  BoolField(w, "granted", m.granted);
  ReqIdField(w, req_id);
  StrField(w, "type", "alloc_reply");
  w.Close();
}

void WriteJson(const AllocCommit& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  UIntField(w, "address", m.address);
  StrField(w, "container_id", m.container_id);
  IntField(w, "pid", m.pid);
  ReqIdField(w, req_id);
  IntField(w, "size", m.size);
  StrField(w, "type", "alloc_commit");
  w.Close();
}

void WriteJson(const AllocAbort& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  StrField(w, "container_id", m.container_id);
  IntField(w, "pid", m.pid);
  ReqIdField(w, req_id);
  IntField(w, "size", m.size);
  StrField(w, "type", "alloc_abort");
  w.Close();
}

void WriteJson(const FreeNotify& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  UIntField(w, "address", m.address);
  StrField(w, "container_id", m.container_id);
  IntField(w, "pid", m.pid);
  ReqIdField(w, req_id);
  StrField(w, "type", "free");
  w.Close();
}

void WriteJson(const MemGetInfoRequest& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  StrField(w, "container_id", m.container_id);
  IntField(w, "pid", m.pid);
  ReqIdField(w, req_id);
  StrField(w, "type", "mem_get_info");
  w.Close();
}

void WriteJson(const MemInfoReply& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  IntField(w, "free", m.free);
  ReqIdField(w, req_id);
  IntField(w, "total", m.total);
  StrField(w, "type", "mem_info_reply");
  w.Close();
}

void WriteJson(const ProcessExit& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  StrField(w, "container_id", m.container_id);
  IntField(w, "pid", m.pid);
  ReqIdField(w, req_id);
  StrField(w, "type", "process_exit");
  w.Close();
}

void WriteJson(const ContainerClose& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  StrField(w, "container_id", m.container_id);
  ReqIdField(w, req_id);
  StrField(w, "type", "container_close");
  w.Close();
}

void WriteJson(const Ping&, std::optional<ReqId> req_id, std::string& out) {
  ObjectWriter w(out);
  ReqIdField(w, req_id);
  StrField(w, "type", "ping");
  w.Close();
}

void WriteJson(const Pong&, std::optional<ReqId> req_id, std::string& out) {
  ObjectWriter w(out);
  ReqIdField(w, req_id);
  StrField(w, "type", "pong");
  w.Close();
}

void WriteJson(const StatsRequest&, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  ReqIdField(w, req_id);
  StrField(w, "type", "stats");
  w.Close();
}

void WriteJson(const StatsReply& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  IntField(w, "capacity", m.capacity);
  w.Key("containers") += '[';
  bool first = true;
  for (const auto& c : m.containers) {
    if (!first) out += ',';
    first = false;
    ObjectWriter entry(out);
    IntField(entry, "assigned", c.assigned);
    StrField(entry, "container_id", c.container_id);
    UIntField(entry, "kicked_connections", c.kicked_connections);
    IntField(entry, "limit", c.limit);
    UIntField(entry, "suspend_episodes", c.suspend_episodes);
    BoolField(entry, "suspended", c.suspended);
    DoubleField(entry, "total_suspended_sec", c.total_suspended_sec);
    IntField(entry, "used", c.used);
    entry.Close();
  }
  out += ']';
  IntField(w, "free_pool", m.free_pool);
  UIntField(w, "kicked_connections", m.kicked_connections);
  StrField(w, "policy", m.policy);
  ReqIdField(w, req_id);
  StrField(w, "type", "stats_reply");
  w.Close();
}

void WriteJson(const Hello& m, std::optional<ReqId> req_id, std::string& out) {
  ObjectWriter w(out);
  BinaryField(w, m.binary);
  StrField(w, "container_id", m.container_id);
  IntField(w, "pid", m.pid);
  ReqIdField(w, req_id);
  StrField(w, "type", "hello");
  w.Close();
}

void WriteJson(const HelloReply& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  BinaryField(w, m.binary);
  UIntField(w, "epoch", m.epoch);
  ErrorField(w, m.error);
  IntField(w, "limit", m.limit);
  BoolField(w, "ok", m.ok);
  ReqIdField(w, req_id);
  StrField(w, "type", "hello_reply");
  w.Close();
}

void WriteJson(const Reattach& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  w.Key("allocations") += '[';
  bool first = true;
  for (const auto& a : m.allocations) {
    if (!first) out += ',';
    first = false;
    ObjectWriter entry(out);
    UIntField(entry, "address", a.address);
    IntField(entry, "size", a.size);
    entry.Close();
  }
  out += ']';
  BinaryField(w, m.binary);
  StrField(w, "container_id", m.container_id);
  UIntField(w, "epoch", m.epoch);
  IntField(w, "limit", m.limit);
  IntField(w, "pid", m.pid);
  ReqIdField(w, req_id);
  StrField(w, "type", "reattach");
  w.Close();
}

void WriteJson(const ReattachReply& m, std::optional<ReqId> req_id,
               std::string& out) {
  ObjectWriter w(out);
  BinaryField(w, m.binary);
  UIntField(w, "epoch", m.epoch);
  ErrorField(w, m.error);
  BoolField(w, "ok", m.ok);
  ReqIdField(w, req_id);
  StrField(w, "type", "reattach_reply");
  w.Close();
}

// --- JSON tree reader -------------------------------------------------------
//
// Decoding goes through a json::Json tree: the "type" discriminator decides
// which fields are required, and a missing or mistyped required field is a
// typed kInvalidArgument. Unknown keys are ignored, so an old peer's frames
// (no "req_id", no "binary") and a newer peer's extra keys both decode.

using json::Json;

Status Missing(std::string_view type, std::string_view field) {
  return InvalidArgumentError(std::string(type) + ": missing field '" +
                              std::string(field) + "'");
}

Result<std::string> ReqString(const Json& j, std::string_view type,
                              std::string_view field) {
  auto value = j.GetString(field);
  if (!value) return Missing(type, field);
  return *value;
}

Result<std::int64_t> ReqInt(const Json& j, std::string_view type,
                            std::string_view field) {
  auto value = j.GetInt(field);
  if (!value) return Missing(type, field);
  return *value;
}

std::optional<ReqId> JsonReqId(const Json& frame) {
  if (!frame.is_object()) return std::nullopt;
  auto id = frame.GetInt("req_id");
  if (!id || *id < 0) return std::nullopt;
  return static_cast<ReqId>(*id);
}

Result<Message> ParseJson(const Json& j) {
  auto type = j.GetString("type");
  if (!type) return InvalidArgumentError("message missing 'type'");

  if (*type == "register_container") {
    RegisterContainer m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    m.container_id = *id;
    if (auto limit = j.GetInt("memory_limit")) m.memory_limit = *limit;
    return Message(m);
  }
  if (*type == "register_reply") {
    RegisterReply m;
    m.ok = j.GetBool("ok").value_or(false);
    m.error = j.GetString("error").value_or("");
    m.socket_dir = j.GetString("socket_dir").value_or("");
    m.socket_path = j.GetString("socket_path").value_or("");
    return Message(m);
  }
  if (*type == "alloc_request") {
    AllocRequest m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    auto pid = ReqInt(j, *type, "pid");
    if (!pid.ok()) return pid.status();
    auto size = ReqInt(j, *type, "size");
    if (!size.ok()) return size.status();
    m.container_id = *id;
    m.pid = *pid;
    m.size = *size;
    m.api = j.GetString("api").value_or("");
    return Message(m);
  }
  if (*type == "alloc_reply") {
    AllocReply m;
    m.granted = j.GetBool("granted").value_or(false);
    m.error = j.GetString("error").value_or("");
    return Message(m);
  }
  if (*type == "alloc_commit") {
    AllocCommit m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    auto pid = ReqInt(j, *type, "pid");
    if (!pid.ok()) return pid.status();
    auto address = ReqInt(j, *type, "address");
    if (!address.ok()) return address.status();
    auto size = ReqInt(j, *type, "size");
    if (!size.ok()) return size.status();
    m.container_id = *id;
    m.pid = *pid;
    m.address = static_cast<std::uint64_t>(*address);
    m.size = *size;
    return Message(m);
  }
  if (*type == "alloc_abort") {
    AllocAbort m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    auto pid = ReqInt(j, *type, "pid");
    if (!pid.ok()) return pid.status();
    auto size = ReqInt(j, *type, "size");
    if (!size.ok()) return size.status();
    m.container_id = *id;
    m.pid = *pid;
    m.size = *size;
    return Message(m);
  }
  if (*type == "free") {
    FreeNotify m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    auto pid = ReqInt(j, *type, "pid");
    if (!pid.ok()) return pid.status();
    auto address = ReqInt(j, *type, "address");
    if (!address.ok()) return address.status();
    m.container_id = *id;
    m.pid = *pid;
    m.address = static_cast<std::uint64_t>(*address);
    return Message(m);
  }
  if (*type == "mem_get_info") {
    MemGetInfoRequest m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    m.container_id = *id;
    m.pid = j.GetInt("pid").value_or(0);
    return Message(m);
  }
  if (*type == "mem_info_reply") {
    MemInfoReply m;
    m.free = j.GetInt("free").value_or(0);
    m.total = j.GetInt("total").value_or(0);
    return Message(m);
  }
  if (*type == "process_exit") {
    ProcessExit m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    auto pid = ReqInt(j, *type, "pid");
    if (!pid.ok()) return pid.status();
    m.container_id = *id;
    m.pid = *pid;
    return Message(m);
  }
  if (*type == "container_close") {
    ContainerClose m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    m.container_id = *id;
    return Message(m);
  }
  if (*type == "ping") return Message(Ping{});
  if (*type == "pong") return Message(Pong{});
  if (*type == "stats") return Message(StatsRequest{});
  if (*type == "stats_reply") {
    StatsReply m;
    m.capacity = j.GetInt("capacity").value_or(0);
    m.free_pool = j.GetInt("free_pool").value_or(0);
    m.policy = j.GetString("policy").value_or("");
    m.kicked_connections =
        static_cast<std::uint64_t>(j.GetInt("kicked_connections").value_or(0));
    if (const Json* containers = j.Find("containers");
        containers != nullptr && containers->is_array()) {
      for (const Json& entry : containers->as_array()) {
        ContainerStatsWire c;
        c.container_id = entry.GetString("container_id").value_or("");
        c.limit = entry.GetInt("limit").value_or(0);
        c.assigned = entry.GetInt("assigned").value_or(0);
        c.used = entry.GetInt("used").value_or(0);
        c.suspended = entry.GetBool("suspended").value_or(false);
        c.total_suspended_sec =
            entry.GetDouble("total_suspended_sec").value_or(0.0);
        c.suspend_episodes = static_cast<std::uint64_t>(
            entry.GetInt("suspend_episodes").value_or(0));
        c.kicked_connections = static_cast<std::uint64_t>(
            entry.GetInt("kicked_connections").value_or(0));
        m.containers.push_back(std::move(c));
      }
    }
    return Message(m);
  }
  if (*type == "hello") {
    Hello m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    auto pid = ReqInt(j, *type, "pid");
    if (!pid.ok()) return pid.status();
    m.container_id = *id;
    m.pid = *pid;
    m.binary = j.GetBool("binary").value_or(false);
    return Message(m);
  }
  if (*type == "hello_reply") {
    HelloReply m;
    m.ok = j.GetBool("ok").value_or(false);
    m.error = j.GetString("error").value_or("");
    m.epoch = static_cast<std::uint64_t>(j.GetInt("epoch").value_or(0));
    m.limit = j.GetInt("limit").value_or(0);
    m.binary = j.GetBool("binary").value_or(false);
    return Message(m);
  }
  if (*type == "reattach") {
    Reattach m;
    auto id = ReqString(j, *type, "container_id");
    if (!id.ok()) return id.status();
    auto pid = ReqInt(j, *type, "pid");
    if (!pid.ok()) return pid.status();
    auto epoch = ReqInt(j, *type, "epoch");
    if (!epoch.ok()) return epoch.status();
    m.container_id = *id;
    m.pid = *pid;
    m.epoch = static_cast<std::uint64_t>(*epoch);
    m.limit = j.GetInt("limit").value_or(0);
    if (const Json* allocations = j.Find("allocations");
        allocations != nullptr && allocations->is_array()) {
      for (const Json& entry : allocations->as_array()) {
        auto address = ReqInt(entry, *type, "address");
        if (!address.ok()) return address.status();
        auto size = ReqInt(entry, *type, "size");
        if (!size.ok()) return size.status();
        LiveAlloc a;
        a.address = static_cast<std::uint64_t>(*address);
        a.size = *size;
        m.allocations.push_back(a);
      }
    }
    m.binary = j.GetBool("binary").value_or(false);
    return Message(m);
  }
  if (*type == "reattach_reply") {
    ReattachReply m;
    m.ok = j.GetBool("ok").value_or(false);
    m.error = j.GetString("error").value_or("");
    m.epoch = static_cast<std::uint64_t>(j.GetInt("epoch").value_or(0));
    m.binary = j.GetBool("binary").value_or(false);
    return Message(m);
  }
  return InvalidArgumentError("unknown message type: " + *type);
}

class JsonCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const override { return "json"; }

  void Encode(const Message& message, std::optional<ReqId> req_id,
              std::string& out) const override {
    out.clear();
    std::visit([&](const auto& m) { WriteJson(m, req_id, out); }, message);
  }

  [[nodiscard]] Result<Message> Decode(
      std::string_view payload) const override {
    auto parsed = json::Json::Parse(payload);
    if (!parsed.ok()) return parsed.status();
    return ParseJson(*parsed);
  }

  [[nodiscard]] std::optional<ReqId> PeekReqId(
      std::string_view payload) const override {
    auto parsed = json::Json::Parse(payload);
    if (!parsed.ok()) return std::nullopt;
    return JsonReqId(*parsed);
  }
};

// --- Binary encoding --------------------------------------------------------
//
// Payload layout (behind the 4-byte frame length):
//
//   [kBinaryMagic][tag][varint req_id][fields...]
//
// tag is the Message variant index; req_id 0 means "no correlation id"
// (wire ids are in [1, kMaxWireReqId], so 0 is free). Fields follow in
// struct declaration order: integers as LEB128 varints (signed values
// pass through a uint64 cast and back), strings as varint length + bytes,
// bools as one strict 0/1 byte, doubles as 8 little-endian IEEE-754
// bytes, vectors as a varint count + elements, optional<Bytes> as a
// presence byte + value.

void PutVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void PutI64(std::string& out, std::int64_t v) {
  PutVarint(out, static_cast<std::uint64_t>(v));
}

void PutBool(std::string& out, bool b) {
  out.push_back(b ? '\x01' : '\x00');
}

void PutF64(std::string& out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFFu));
  }
}

void PutStr(std::string& out, std::string_view s) {
  PutVarint(out, s.size());
  out.append(s);
}

/// Bounds-checked forward reader. Every accessor fails sticky on
/// truncation or malformed data; lengths and counts are validated against
/// the remaining bytes BEFORE any allocation, so a corrupted length byte
/// cannot trigger a huge reserve.
class Cursor {
 public:
  explicit Cursor(std::string_view data)
      : p_(reinterpret_cast<const unsigned char*>(data.data())),
        end_(p_ + data.size()) {}

  std::uint8_t U8() {
    if (p_ == end_) {
      fail_ = true;
      return 0;
    }
    return *p_++;
  }

  std::uint64_t Varint() {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (p_ == end_) {
        fail_ = true;
        return 0;
      }
      const unsigned char byte = *p_++;
      value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) return value;
    }
    fail_ = true;  // 10 continuation bytes cannot happen in a u64 varint
    return 0;
  }

  std::int64_t I64() { return static_cast<std::int64_t>(Varint()); }

  bool Bool() {
    const std::uint8_t byte = U8();
    if (byte > 1) fail_ = true;  // strict: anything else is corruption
    return byte == 1;
  }

  double F64() {
    if (remaining() < 8) {
      fail_ = true;
      return 0.0;
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(*p_++) << (8 * i);
    }
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }

  std::string Str() {
    const std::uint64_t n = Varint();
    if (fail_ || n > remaining()) {
      fail_ = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_),
                  static_cast<std::size_t>(n));
    p_ += n;
    return s;
  }

  /// Element count for a vector; fails when the count alone exceeds the
  /// bytes left (every element is at least one byte).
  std::uint64_t Count() {
    const std::uint64_t n = Varint();
    if (fail_ || n > remaining()) {
      fail_ = true;
      return 0;
    }
    return n;
  }

  [[nodiscard]] std::uint64_t remaining() const {
    return static_cast<std::uint64_t>(end_ - p_);
  }
  [[nodiscard]] bool failed() const { return fail_; }
  [[nodiscard]] bool AtEnd() const { return p_ == end_; }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
  bool fail_ = false;
};

class BinaryCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const override { return "binary"; }

  void Encode(const Message& message, std::optional<ReqId> req_id,
              std::string& out) const override {
    out.clear();
    out.push_back(static_cast<char>(kBinaryMagic));
    out.push_back(static_cast<char>(message.index()));
    PutVarint(out, req_id.value_or(0));
    std::visit([&](const auto& m) { PutFields(m, out); }, message);
  }

  [[nodiscard]] Result<Message> Decode(
      std::string_view payload) const override {
    Cursor c(payload);
    if (c.U8() != kBinaryMagic) {
      return InvalidArgumentError("binary frame: missing magic byte");
    }
    const std::uint8_t tag = c.U8();
    (void)c.Varint();  // req_id rides alongside; read it with PeekReqId
    if (c.failed()) {
      return InvalidArgumentError("binary frame: truncated header");
    }
    auto decoded = DecodeBody(tag, c);
    if (!decoded.ok()) return decoded.status();
    if (c.failed()) {
      return InvalidArgumentError("binary frame: truncated or malformed " +
                                  std::string(TypeName(*decoded)));
    }
    if (!c.AtEnd()) {
      return InvalidArgumentError("binary frame: trailing bytes after " +
                                  std::string(TypeName(*decoded)));
    }
    return decoded;
  }

  [[nodiscard]] std::optional<ReqId> PeekReqId(
      std::string_view payload) const override {
    Cursor c(payload);
    if (c.U8() != kBinaryMagic) return std::nullopt;
    (void)c.U8();  // tag
    const std::uint64_t req_id = c.Varint();
    if (c.failed() || req_id == 0 || req_id > kMaxWireReqId) {
      return std::nullopt;
    }
    return req_id;
  }

 private:
  static void PutFields(const RegisterContainer& m, std::string& out) {
    PutStr(out, m.container_id);
    PutBool(out, m.memory_limit.has_value());
    if (m.memory_limit) PutI64(out, *m.memory_limit);
  }
  static void PutFields(const RegisterReply& m, std::string& out) {
    PutBool(out, m.ok);
    PutStr(out, m.error);
    PutStr(out, m.socket_dir);
    PutStr(out, m.socket_path);
  }
  static void PutFields(const AllocRequest& m, std::string& out) {
    PutStr(out, m.container_id);
    PutI64(out, m.pid);
    PutI64(out, m.size);
    PutStr(out, m.api);
  }
  static void PutFields(const AllocReply& m, std::string& out) {
    PutBool(out, m.granted);
    PutStr(out, m.error);
  }
  static void PutFields(const AllocCommit& m, std::string& out) {
    PutStr(out, m.container_id);
    PutI64(out, m.pid);
    PutVarint(out, m.address);
    PutI64(out, m.size);
  }
  static void PutFields(const AllocAbort& m, std::string& out) {
    PutStr(out, m.container_id);
    PutI64(out, m.pid);
    PutI64(out, m.size);
  }
  static void PutFields(const FreeNotify& m, std::string& out) {
    PutStr(out, m.container_id);
    PutI64(out, m.pid);
    PutVarint(out, m.address);
  }
  static void PutFields(const MemGetInfoRequest& m, std::string& out) {
    PutStr(out, m.container_id);
    PutI64(out, m.pid);
  }
  static void PutFields(const MemInfoReply& m, std::string& out) {
    PutI64(out, m.free);
    PutI64(out, m.total);
  }
  static void PutFields(const ProcessExit& m, std::string& out) {
    PutStr(out, m.container_id);
    PutI64(out, m.pid);
  }
  static void PutFields(const ContainerClose& m, std::string& out) {
    PutStr(out, m.container_id);
  }
  static void PutFields(const Ping&, std::string&) {}
  static void PutFields(const Pong&, std::string&) {}
  static void PutFields(const StatsRequest&, std::string&) {}
  static void PutFields(const StatsReply& m, std::string& out) {
    PutI64(out, m.capacity);
    PutI64(out, m.free_pool);
    PutStr(out, m.policy);
    PutVarint(out, m.kicked_connections);
    PutVarint(out, m.containers.size());
    for (const auto& c : m.containers) {
      PutStr(out, c.container_id);
      PutI64(out, c.limit);
      PutI64(out, c.assigned);
      PutI64(out, c.used);
      PutBool(out, c.suspended);
      PutF64(out, c.total_suspended_sec);
      PutVarint(out, c.suspend_episodes);
      PutVarint(out, c.kicked_connections);
    }
  }
  static void PutFields(const Hello& m, std::string& out) {
    PutStr(out, m.container_id);
    PutI64(out, m.pid);
    PutBool(out, m.binary);
  }
  static void PutFields(const HelloReply& m, std::string& out) {
    PutBool(out, m.ok);
    PutStr(out, m.error);
    PutVarint(out, m.epoch);
    PutI64(out, m.limit);
    PutBool(out, m.binary);
  }
  static void PutFields(const Reattach& m, std::string& out) {
    PutStr(out, m.container_id);
    PutI64(out, m.pid);
    PutVarint(out, m.epoch);
    PutI64(out, m.limit);
    PutVarint(out, m.allocations.size());
    for (const auto& a : m.allocations) {
      PutVarint(out, a.address);
      PutI64(out, a.size);
    }
    PutBool(out, m.binary);
  }
  static void PutFields(const ReattachReply& m, std::string& out) {
    PutBool(out, m.ok);
    PutStr(out, m.error);
    PutVarint(out, m.epoch);
    PutBool(out, m.binary);
  }

  static Result<Message> DecodeBody(std::uint8_t tag, Cursor& c) {
    static_assert(std::variant_size_v<Message> == 19,
                  "new Message alternative: add its tag case below");
    switch (tag) {
      case 0: {
        RegisterContainer m;
        m.container_id = c.Str();
        if (c.Bool()) m.memory_limit = c.I64();
        return Message(std::move(m));
      }
      case 1: {
        RegisterReply m;
        m.ok = c.Bool();
        m.error = c.Str();
        m.socket_dir = c.Str();
        m.socket_path = c.Str();
        return Message(std::move(m));
      }
      case 2: {
        AllocRequest m;
        m.container_id = c.Str();
        m.pid = c.I64();
        m.size = c.I64();
        m.api = c.Str();
        return Message(std::move(m));
      }
      case 3: {
        AllocReply m;
        m.granted = c.Bool();
        m.error = c.Str();
        return Message(std::move(m));
      }
      case 4: {
        AllocCommit m;
        m.container_id = c.Str();
        m.pid = c.I64();
        m.address = c.Varint();
        m.size = c.I64();
        return Message(std::move(m));
      }
      case 5: {
        AllocAbort m;
        m.container_id = c.Str();
        m.pid = c.I64();
        m.size = c.I64();
        return Message(std::move(m));
      }
      case 6: {
        FreeNotify m;
        m.container_id = c.Str();
        m.pid = c.I64();
        m.address = c.Varint();
        return Message(std::move(m));
      }
      case 7: {
        MemGetInfoRequest m;
        m.container_id = c.Str();
        m.pid = c.I64();
        return Message(std::move(m));
      }
      case 8: {
        MemInfoReply m;
        m.free = c.I64();
        m.total = c.I64();
        return Message(std::move(m));
      }
      case 9: {
        ProcessExit m;
        m.container_id = c.Str();
        m.pid = c.I64();
        return Message(std::move(m));
      }
      case 10: {
        ContainerClose m;
        m.container_id = c.Str();
        return Message(std::move(m));
      }
      case 11:
        return Message(Ping{});
      case 12:
        return Message(Pong{});
      case 13:
        return Message(StatsRequest{});
      case 14: {
        StatsReply m;
        m.capacity = c.I64();
        m.free_pool = c.I64();
        m.policy = c.Str();
        m.kicked_connections = c.Varint();
        const std::uint64_t n = c.Count();
        for (std::uint64_t i = 0; i < n && !c.failed(); ++i) {
          ContainerStatsWire entry;
          entry.container_id = c.Str();
          entry.limit = c.I64();
          entry.assigned = c.I64();
          entry.used = c.I64();
          entry.suspended = c.Bool();
          entry.total_suspended_sec = c.F64();
          entry.suspend_episodes = c.Varint();
          entry.kicked_connections = c.Varint();
          m.containers.push_back(std::move(entry));
        }
        return Message(std::move(m));
      }
      case 15: {
        Hello m;
        m.container_id = c.Str();
        m.pid = c.I64();
        m.binary = c.Bool();
        return Message(std::move(m));
      }
      case 16: {
        HelloReply m;
        m.ok = c.Bool();
        m.error = c.Str();
        m.epoch = c.Varint();
        m.limit = c.I64();
        m.binary = c.Bool();
        return Message(std::move(m));
      }
      case 17: {
        Reattach m;
        m.container_id = c.Str();
        m.pid = c.I64();
        m.epoch = c.Varint();
        m.limit = c.I64();
        const std::uint64_t n = c.Count();
        for (std::uint64_t i = 0; i < n && !c.failed(); ++i) {
          LiveAlloc a;
          a.address = c.Varint();
          a.size = c.I64();
          m.allocations.push_back(a);
        }
        m.binary = c.Bool();
        return Message(std::move(m));
      }
      case 18: {
        ReattachReply m;
        m.ok = c.Bool();
        m.error = c.Str();
        m.epoch = c.Varint();
        m.binary = c.Bool();
        return Message(std::move(m));
      }
      default:
        return InvalidArgumentError("binary frame: unknown message tag " +
                                    std::to_string(tag));
    }
  }
};

}  // namespace

const Codec& json_codec() {
  static const JsonCodec codec;
  return codec;
}

const Codec& binary_codec() {
  static const BinaryCodec codec;
  return codec;
}

const Codec& DetectCodec(std::string_view payload) {
  const bool binary =
      !payload.empty() &&
      static_cast<unsigned char>(payload.front()) == kBinaryMagic;
  return binary ? binary_codec() : json_codec();
}

Result<Message> DecodePayload(std::string_view payload) {
  return DetectCodec(payload).Decode(payload);
}

std::optional<ReqId> PeekPayloadReqId(std::string_view payload) {
  return DetectCodec(payload).PeekReqId(payload);
}

std::string EncodePayload(const Codec& codec, const Message& message,
                          std::optional<ReqId> req_id) {
  std::string out;
  codec.Encode(message, req_id, out);
  return out;
}

}  // namespace convgpu::protocol
