#include "convgpu/codec.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "json/json.h"

namespace convgpu::protocol {

namespace {

// --- Table walking ----------------------------------------------------------
//
// Every codec path below is generic over protocol.h's kWire tables: a
// struct's fields are visited in table (= declaration) order, and each
// field's C++ type picks the per-value encoding. Message alternatives have a
// type; nested structs (stats rows, reattach allocations) do not.

template <typename S>
constexpr std::size_t kFieldCount =
    std::tuple_size_v<decltype(kWire<S>.fields)>;

template <typename S>
constexpr bool kIsMessage = kWire<S>.type != kNested;

template <typename T>
constexpr bool kIsOptional = false;
template <typename T>
constexpr bool kIsOptional<std::optional<T>> = true;

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

/// Calls fn(field) for every row of S's table, in declaration order.
template <typename S, typename Fn>
constexpr void ForEachField(Fn&& fn) {
  std::apply([&](const auto&... field) { (fn(field), ...); },
             kWire<S>.fields);
}

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

/// The order S's JSON keys are written in: byte-wise sorted, as
/// json::Json::Dump prints an object. Slot i < n names field i; a message
/// adds slot n ("req_id") and slot n + 1 ("type") at their sorted places.
/// Evaluated at compile time, so no encode sorts anything.
template <typename S>
constexpr auto JsonKeyOrder() {
  constexpr std::size_t n = kFieldCount<S>;
  constexpr std::size_t slots = n + (kIsMessage<S> ? 2 : 0);
  std::array<std::string_view, slots> keys{};
  std::size_t next = 0;
  ForEachField<S>([&](const auto& field) { keys[next++] = field.key; });
  if constexpr (kIsMessage<S>) {
    keys[n] = "req_id";
    keys[n + 1] = "type";
  }
  std::array<std::size_t, slots> order{};
  for (std::size_t i = 0; i < slots; ++i) {
    order[i] = i;
    for (std::size_t j = i; j > 0 && keys[order[j]] < keys[order[j - 1]]; --j) {
      std::swap(order[j], order[j - 1]);
    }
  }
  return order;
}

template <typename S>
void WriteObject(std::string& out, const S& s, std::optional<ReqId> req_id);

template <typename T>
void WriteValue(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    AppendEscaped(out, value);
  } else if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    AppendDouble(out, value);
  } else if constexpr (std::is_integral_v<T>) {
    // Unsigned fields ride as signed JSON integers, as the tree stores them.
    AppendInt(out, static_cast<std::int64_t>(value));
  } else if constexpr (kIsOptional<T>) {
    WriteValue(out, *value);  // an absent one is omitted (see WriteSlot)
  } else {
    out += '[';
    bool first = true;
    for (const auto& element : value) {
      if (!first) out += ',';
      first = false;
      WriteObject(out, element, std::nullopt);
    }
    out += ']';
  }
}

template <typename S, std::size_t kSlot>
void WriteSlot(ObjectWriter& w, const S& s, std::optional<ReqId> req_id) {
  if constexpr (kSlot == kFieldCount<S>) {
    if (req_id) AppendInt(w.Key("req_id"), static_cast<std::int64_t>(*req_id));
  } else if constexpr (kSlot == kFieldCount<S> + 1) {
    AppendEscaped(w.Key("type"), kWire<S>.type);
  } else {
    constexpr const auto& field = std::get<kSlot>(kWire<S>.fields);
    const auto& value = s.*field.member;
    using T = std::remove_cvref_t<decltype(value)>;
    static_assert(!kIsOptional<T> || field.rule == JsonRule::kOmitted,
                  "an optional field is omitted while absent");
    if constexpr (field.rule == JsonRule::kOmitted) {
      if (value == T{}) return;
    }
    WriteValue(w.Key(field.key), value);
  }
}

template <typename S>
void WriteObject(std::string& out, const S& s, std::optional<ReqId> req_id) {
  static constexpr auto kOrder = JsonKeyOrder<S>();
  ObjectWriter w(out);
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (WriteSlot<S, kOrder[I]>(w, s, req_id), ...);
  }(std::make_index_sequence<kOrder.size()>{});
  w.Close();
}

// --- JSON tree reader -------------------------------------------------------
//
// Decoding goes through a json::Json tree: the "type" discriminator picks
// the alternative, and a missing or mistyped kRequired field is a typed
// kInvalidArgument (a nested struct's failure names the outer type). Other
// fields fall back to their defaults. Unknown keys are ignored, so an old
// peer's frames (no "req_id", no "binary") and a newer peer's extra keys
// both decode.

using json::Json;

template <typename S>
Status ReadObject(const Json& j, std::string_view type, S& s);

/// The lenient tree lookup for a field of type T; integers (signed or not,
/// optional or not) all ride as JSON integers.
template <typename T>
auto JsonGet(const Json& j, std::string_view key) {
  if constexpr (std::is_same_v<T, std::string>) {
    return j.GetString(key);
  } else if constexpr (std::is_same_v<T, bool>) {
    return j.GetBool(key);
  } else if constexpr (std::is_same_v<T, double>) {
    return j.GetDouble(key);
  } else {
    return j.GetInt(key);
  }
}

template <typename F, typename T>
Status ReadField(const Json& j, std::string_view type, const F& field,
                 T& value) {
  bool found = false;
  if constexpr (kIsVector<T>) {
    if (const Json* array = j.Find(field.key);
        array != nullptr && array->is_array()) {
      found = true;
      for (const Json& entry : array->as_array()) {
        CONVGPU_RETURN_IF_ERROR(ReadObject(entry, type, value.emplace_back()));
      }
    }
  } else if (auto v = JsonGet<T>(j, field.key)) {
    value = T(std::move(*v));
    found = true;
  }
  if (!found && field.rule == JsonRule::kRequired) {
    return InvalidArgumentError(std::string(type) + ": missing field '" +
                                std::string(field.key) + "'");
  }
  return Status::Ok();
}

/// Reads S's fields in declaration order; the first failing one is reported.
template <typename S>
Status ReadObject(const Json& j, std::string_view type, S& s) {
  Status status = Status::Ok();
  ForEachField<S>([&](const auto& field) {
    if (status.ok()) status = ReadField(j, type, field, s.*field.member);
  });
  return status;
}

template <typename M>
Result<Message> DecodeJsonAs(const Json& j) {
  M m;
  CONVGPU_RETURN_IF_ERROR(ReadObject(j, kWire<M>.type, m));
  return Message(std::move(m));
}

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

void PutF64(std::string& out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFFu));
  }
}

template <typename S>
void PutFields(std::string& out, const S& s);

template <typename T>
void PutValue(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    PutVarint(out, value.size());
    out.append(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    out.push_back(value ? '\x01' : '\x00');
  } else if constexpr (std::is_same_v<T, double>) {
    PutF64(out, value);
  } else if constexpr (std::is_integral_v<T>) {
    PutVarint(out, static_cast<std::uint64_t>(value));
  } else if constexpr (kIsOptional<T>) {
    PutValue(out, value.has_value());
    if (value) PutValue(out, *value);
  } else {
    PutVarint(out, value.size());
    for (const auto& element : value) PutFields(out, element);
  }
}

template <typename S>
void PutFields(std::string& out, const S& s) {
  ForEachField<S>([&](const auto& field) { PutValue(out, s.*field.member); });
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

template <typename S>
void GetFields(Cursor& c, S& s);

template <typename T>
void GetValue(Cursor& c, T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    value = c.Str();
  } else if constexpr (std::is_same_v<T, bool>) {
    value = c.Bool();
  } else if constexpr (std::is_same_v<T, double>) {
    value = c.F64();
  } else if constexpr (std::is_integral_v<T>) {
    value = static_cast<T>(c.Varint());
  } else if constexpr (kIsOptional<T>) {
    if (c.Bool()) GetValue(c, value.emplace());
  } else {
    const std::uint64_t n = c.Count();
    for (std::uint64_t i = 0; i < n && !c.failed(); ++i) {
      GetFields(c, value.emplace_back());
    }
  }
}

template <typename S>
void GetFields(Cursor& c, S& s) {
  ForEachField<S>([&](const auto& field) { GetValue(c, s.*field.member); });
}

template <std::size_t I>
Message DecodeBinaryAs(Cursor& c) {
  std::variant_alternative_t<I, Message> m;
  GetFields(c, m);
  return Message(std::in_place_index<I>, std::move(m));
}

// --- Per-alternative dispatch -----------------------------------------------

/// What the decoders need per Message alternative, indexed by variant index
/// (which is also the binary tag).
struct Alternative {
  std::string_view type;
  Result<Message> (*from_json)(const Json&);
  Message (*from_binary)(Cursor&);
};

template <std::size_t... I>
constexpr auto MakeAlternatives(std::index_sequence<I...>) {
  return std::array<Alternative, sizeof...(I)>{
      {{kWire<std::variant_alternative_t<I, Message>>.type,
        &DecodeJsonAs<std::variant_alternative_t<I, Message>>,
        &DecodeBinaryAs<I>}...}};
}

constexpr auto kAlternatives =
    MakeAlternatives(std::make_index_sequence<std::variant_size_v<Message>>{});
static_assert(kAlternatives.size() <= 256, "the binary tag is one byte");

Result<Message> ParseJson(const Json& j) {
  auto type = j.GetString("type");
  if (!type) return InvalidArgumentError("message missing 'type'");
  for (const Alternative& alternative : kAlternatives) {
    if (alternative.type == *type) return alternative.from_json(j);
  }
  return InvalidArgumentError("unknown message type: " + *type);
}

class JsonCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const override { return "json"; }

  void Encode(const Message& message, std::optional<ReqId> req_id,
              std::string& out) const override {
    out.clear();
    std::visit([&](const auto& m) { WriteObject(out, m, req_id); }, message);
  }

  [[nodiscard]] Result<Message> Decode(
      std::string_view payload, std::optional<ReqId>& req_id) const override {
    auto parsed = json::Json::Parse(payload);
    req_id = parsed.ok() ? ReqIdOf(*parsed) : std::nullopt;
    if (!parsed.ok()) return parsed.status();
    return ParseJson(*parsed);
  }

  [[nodiscard]] std::optional<ReqId> PeekReqId(
      std::string_view payload) const override {
    auto parsed = json::Json::Parse(payload);
    if (!parsed.ok()) return std::nullopt;
    return ReqIdOf(*parsed);
  }

 private:
  static std::optional<ReqId> ReqIdOf(const Json& j) {
    const auto id = j.GetInt("req_id");  // nullopt for a non-object
    if (!id || *id < 0) return std::nullopt;
    return static_cast<ReqId>(*id);
  }
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
    std::visit([&](const auto& m) { PutFields(out, m); }, message);
  }

  [[nodiscard]] Result<Message> Decode(
      std::string_view payload, std::optional<ReqId>& req_id) const override {
    req_id.reset();
    Cursor c(payload);
    if (c.U8() != kBinaryMagic) {
      return InvalidArgumentError("binary frame: missing magic byte");
    }
    const std::uint8_t tag = c.U8();
    const std::uint64_t id = c.Varint();
    if (c.failed()) {
      return InvalidArgumentError("binary frame: truncated header");
    }
    if (id != 0 && id <= kMaxWireReqId) req_id = id;
    if (tag >= kAlternatives.size()) {
      return InvalidArgumentError("binary frame: unknown message tag " +
                                  std::to_string(tag));
    }
    const Alternative& alternative = kAlternatives[tag];
    Message decoded = alternative.from_binary(c);
    if (c.failed()) {
      return InvalidArgumentError("binary frame: truncated or malformed " +
                                  std::string(alternative.type));
    }
    if (!c.AtEnd()) {
      return InvalidArgumentError("binary frame: trailing bytes after " +
                                  std::string(alternative.type));
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

Result<Message> DecodePayload(std::string_view payload,
                              std::optional<ReqId>& req_id) {
  return DetectCodec(payload).Decode(payload, req_id);
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
