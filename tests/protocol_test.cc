#include "convgpu/protocol.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "convgpu/codec.h"
#include "json/json.h"

namespace convgpu::protocol {
namespace {

using namespace convgpu::literals;

template <typename T>
T RoundTrip(const T& message) {
  // Through actual JSON bytes, like the socket path does.
  auto decoded = DecodePayload(EncodePayload(json_codec(), Message(message)));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return T{};
  const T* typed = std::get_if<T>(&*decoded);
  EXPECT_NE(typed, nullptr) << "wrong alternative after round trip";
  return typed != nullptr ? *typed : T{};
}

TEST(ProtocolTest, RegisterContainerRoundTrip) {
  RegisterContainer m;
  m.container_id = "abc123";
  m.memory_limit = 512_MiB;
  const RegisterContainer out = RoundTrip(m);
  EXPECT_EQ(out.container_id, "abc123");
  EXPECT_EQ(out.memory_limit, 512_MiB);
}

TEST(ProtocolTest, RegisterContainerOmittedLimit) {
  RegisterContainer m;
  m.container_id = "abc123";
  const RegisterContainer out = RoundTrip(m);
  EXPECT_EQ(out.memory_limit, std::nullopt);
}

TEST(ProtocolTest, RegisterReplyRoundTrip) {
  RegisterReply m;
  m.ok = true;
  m.socket_dir = "/run/convgpu/abc";
  m.socket_path = "/run/convgpu/abc/convgpu.sock";
  const RegisterReply out = RoundTrip(m);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.socket_dir, "/run/convgpu/abc");
  EXPECT_EQ(out.socket_path, "/run/convgpu/abc/convgpu.sock");
}

TEST(ProtocolTest, AllocRequestRoundTrip) {
  AllocRequest m;
  m.container_id = "c";
  m.pid = 4242;
  m.size = 4_GiB;  // must survive exactly, beyond 32-bit
  m.api = "cudaMallocPitch";
  const AllocRequest out = RoundTrip(m);
  EXPECT_EQ(out.pid, 4242);
  EXPECT_EQ(out.size, 4_GiB);
  EXPECT_EQ(out.api, "cudaMallocPitch");
}

TEST(ProtocolTest, AllocReplyCarriesError) {
  AllocReply m;
  m.granted = false;
  m.error = "RESOURCE_EXHAUSTED: limit";
  const AllocReply out = RoundTrip(m);
  EXPECT_FALSE(out.granted);
  EXPECT_EQ(out.error, "RESOURCE_EXHAUSTED: limit");
}

TEST(ProtocolTest, AllocCommitRoundTripsLargeAddress) {
  AllocCommit m;
  m.container_id = "c";
  m.pid = 7;
  m.address = 0x7000'0000'1234ULL;
  m.size = 128_MiB;
  const AllocCommit out = RoundTrip(m);
  EXPECT_EQ(out.address, 0x7000'0000'1234ULL);
  EXPECT_EQ(out.size, 128_MiB);
}

TEST(ProtocolTest, RemainingTypesRoundTrip) {
  {
    AllocAbort m;
    m.container_id = "c";
    m.pid = 1;
    m.size = 1_MiB;
    EXPECT_EQ(RoundTrip(m).size, 1_MiB);
  }
  {
    FreeNotify m;
    m.container_id = "c";
    m.pid = 1;
    m.address = 0xF00D;
    EXPECT_EQ(RoundTrip(m).address, 0xF00Du);
  }
  {
    MemGetInfoRequest m;
    m.container_id = "c";
    m.pid = 1;
    EXPECT_EQ(RoundTrip(m).container_id, "c");
  }
  {
    MemInfoReply m;
    m.free = 100_MiB;
    m.total = 512_MiB;
    EXPECT_EQ(RoundTrip(m).total, 512_MiB);
  }
  {
    ProcessExit m;
    m.container_id = "c";
    m.pid = 9;
    EXPECT_EQ(RoundTrip(m).pid, 9);
  }
  {
    ContainerClose m;
    m.container_id = "gone";
    EXPECT_EQ(RoundTrip(m).container_id, "gone");
  }
  RoundTrip(Ping{});
  RoundTrip(Pong{});
  RoundTrip(StatsRequest{});
}

TEST(ProtocolTest, StatsReplyRoundTrip) {
  StatsReply m;
  m.capacity = 5_GiB;
  m.free_pool = 1_GiB;
  m.policy = "BF";
  ContainerStatsWire c;
  c.container_id = "x";
  c.limit = 2_GiB;
  c.assigned = 1_GiB;
  c.used = 512_MiB;
  c.suspended = true;
  c.total_suspended_sec = 12.5;
  c.suspend_episodes = 3;
  m.containers.push_back(c);
  const StatsReply out = RoundTrip(m);
  EXPECT_EQ(out.policy, "BF");
  ASSERT_EQ(out.containers.size(), 1u);
  EXPECT_EQ(out.containers[0].container_id, "x");
  EXPECT_TRUE(out.containers[0].suspended);
  EXPECT_DOUBLE_EQ(out.containers[0].total_suspended_sec, 12.5);
  EXPECT_EQ(out.containers[0].suspend_episodes, 3u);
}

// --- Request correlation ----------------------------------------------------

TEST(ProtocolTest, ReqIdSurvivesEveryMessageType) {
  // Every alternative in the variant, encoded in both codecs with a
  // correlation id: the id must be peekable on the far side and the payload
  // must still decode to the same alternative.
  const std::vector<Message> one_of_each = {
      Message(RegisterContainer{}), Message(RegisterReply{}),
      Message(AllocRequest{}),      Message(AllocReply{}),
      Message(AllocCommit{}),       Message(AllocAbort{}),
      Message(FreeNotify{}),        Message(MemGetInfoRequest{}),
      Message(MemInfoReply{}),      Message(ProcessExit{}),
      Message(ContainerClose{}),    Message(Ping{}),
      Message(Pong{}),              Message(StatsRequest{}),
      Message(StatsReply{}),        Message(Hello{}),
      Message(HelloReply{}),        Message(Reattach{}),
      Message(ReattachReply{}),
  };
  ASSERT_EQ(one_of_each.size(), std::variant_size_v<Message>);
  ReqId next = 1;
  for (const Codec* codec : {&json_codec(), &binary_codec()}) {
    for (const Message& message : one_of_each) {
      const ReqId id = next++;
      const std::string bytes = EncodePayload(*codec, message, id);
      EXPECT_EQ(PeekPayloadReqId(bytes), id)
          << codec->name() << " " << TypeName(message);
      auto decoded = DecodePayload(bytes);
      ASSERT_TRUE(decoded.ok()) << codec->name() << " " << TypeName(message)
                                << ": " << decoded.status().ToString();
      EXPECT_EQ(decoded->index(), message.index())
          << codec->name() << " " << TypeName(message);
    }
  }
}

TEST(ProtocolTest, IdlessFramesStayValid) {
  // The pre-correlation protocol: no "req_id" key at all. Old peers emit
  // exactly these frames and they must keep decoding.
  const std::string frame = EncodePayload(json_codec(), Message(Ping{}));
  EXPECT_EQ(frame, R"({"type":"ping"})");
  EXPECT_EQ(PeekPayloadReqId(frame), std::nullopt);
  EXPECT_TRUE(DecodePayload(frame).ok());
  AllocRequest request;
  request.container_id = "c";
  request.pid = 3;
  request.size = 1_MiB;
  const std::string plain = EncodePayload(json_codec(), Message(request));
  EXPECT_EQ(plain.find("req_id"), std::string::npos);
  EXPECT_EQ(PeekPayloadReqId(plain), std::nullopt);
  // The binary encoding carries "no id" as 0 and peeks back as empty too.
  EXPECT_EQ(PeekPayloadReqId(EncodePayload(binary_codec(), Message(request))),
            std::nullopt);
}

TEST(ProtocolTest, PeekReqIdRejectsMalformedIds) {
  const Codec& json = json_codec();
  EXPECT_EQ(json.PeekReqId("42"), std::nullopt);  // not even an object
  EXPECT_EQ(json.PeekReqId("not json{"), std::nullopt);
  EXPECT_EQ(json.PeekReqId(R"({"type":"ping"})"), std::nullopt);
  EXPECT_EQ(json.PeekReqId(R"({"type":"ping","req_id":-3})"), std::nullopt);
  EXPECT_EQ(json.PeekReqId(R"({"type":"ping","req_id":"x"})"), std::nullopt);
  // And a malformed id does not break payload decoding.
  EXPECT_TRUE(json.Decode(R"({"type":"ping","req_id":"x"})").ok());
}

TEST(ProtocolTest, DispatchWithReqIdFillsItBeforeVisiting) {
  std::optional<ReqId> req_id;
  ReqId seen_inside = 0;
  auto status = DispatchFrame(EncodePayload(json_codec(), Message(Ping{}), 41),
                              req_id,
                              Visitor{
                                  [&](const Ping&) { seen_inside = *req_id; },
                                  [&](const auto&) {},
                              });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(req_id, 41u);
  EXPECT_EQ(seen_inside, 41u);  // already filled when the visitor ran

  // A malformed frame still reports its id even though the visitor never
  // runs — the server can address its error handling to the right request.
  status = DispatchFrame(R"({"type":"alloc_request","req_id":9})", req_id,
                         Visitor{[&](const auto&) {}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(req_id, 9u);
}

TEST(ProtocolTest, ParseRejectsGarbage) {
  const Codec& json = json_codec();
  EXPECT_FALSE(json.Decode("this is not json{{{").ok());
  EXPECT_FALSE(json.Decode("42").ok());
  EXPECT_FALSE(json.Decode(R"({"no_type":1})").ok());
  EXPECT_FALSE(json.Decode(R"({"type":"martian"})").ok());
  // Required fields missing.
  EXPECT_FALSE(json.Decode(R"({"type":"alloc_request"})").ok());
  EXPECT_FALSE(json.Decode(R"({"type":"alloc_request","pid":1,"size":2})").ok());
  EXPECT_FALSE(json.Decode(R"({"type":"container_close"})").ok());
  // Every rejection is typed.
  EXPECT_EQ(json.Decode(R"({"type":"martian"})").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, TypeNamesMatchWire) {
  EXPECT_EQ(TypeName(Message(Ping{})), "ping");
  EXPECT_EQ(TypeName(Message(AllocRequest{})), "alloc_request");
  EXPECT_EQ(TypeName(Message(StatsReply{})), "stats_reply");
  AllocRequest m;
  EXPECT_NE(EncodePayload(json_codec(), Message(m))
                .find(R"("type":"alloc_request")"),
            std::string::npos);
}

TEST(ProtocolTest, DispatchRoutesToMatchingArm) {
  AllocRequest request;
  request.container_id = "c";
  request.pid = 11;
  request.size = 64_MiB;

  std::string hit;
  Bytes seen_size = 0;
  std::optional<ReqId> req_id;
  auto status = DispatchFrame(EncodePayload(json_codec(), Message(request)),
                              req_id,
                              Visitor{
                                  [&](const AllocRequest& m) {
                                    hit = "alloc";
                                    seen_size = m.size;
                                  },
                                  [&](const Ping&) { hit = "ping"; },
                                  [&](const auto&) { hit = "other"; },
                              });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(hit, "alloc");
  EXPECT_EQ(seen_size, 64_MiB);
  EXPECT_EQ(req_id, std::nullopt);
}

TEST(ProtocolTest, DispatchFallsThroughToGenericArm) {
  std::string hit;
  std::optional<ReqId> req_id;
  auto status = DispatchFrame(EncodePayload(json_codec(), Message(Pong{})),
                              req_id,
                              Visitor{
                                  [&](const AllocRequest&) { hit = "alloc"; },
                                  [&](const auto& other) {
                                    hit = std::string(TypeName(Message(other)));
                                  },
                              });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(hit, "pong");
}

TEST(ProtocolTest, DispatchRejectsMalformedFrameWithoutVisiting) {
  bool visited = false;
  std::optional<ReqId> req_id;
  auto status = DispatchFrame(R"({"type":"alloc_request"})", req_id,
                              Visitor{[&](const auto&) { visited = true; }});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(visited);

  status = DispatchFrame("42", req_id,
                         Visitor{[&](const auto&) { visited = true; }});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(visited);
}

TEST(ProtocolTest, ExpectNarrowsMatchingAlternative) {
  MemInfoReply reply;
  reply.free = 100_MiB;
  reply.total = 512_MiB;
  auto narrowed = Expect<MemInfoReply>(Result<Message>(Message(reply)));
  ASSERT_TRUE(narrowed.ok());
  EXPECT_EQ(narrowed->total, 512_MiB);
}

TEST(ProtocolTest, ExpectRejectsWrongAlternativeNamingActualType) {
  auto narrowed = Expect<MemInfoReply>(Result<Message>(Message(Pong{})));
  ASSERT_FALSE(narrowed.ok());
  EXPECT_EQ(narrowed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(narrowed.status().message().find("pong"), std::string::npos);
}

TEST(ProtocolTest, ExpectPropagatesUpstreamError) {
  auto narrowed =
      Expect<MemInfoReply>(Result<Message>(UnavailableError("socket gone")));
  ASSERT_FALSE(narrowed.ok());
  EXPECT_EQ(narrowed.status().code(), StatusCode::kUnavailable);
}

// --- Property tests ---------------------------------------------------------

constexpr std::size_t kVariantCount = std::variant_size_v<Message>;

std::string RandomToken(Rng& rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789_-";
  std::string token;
  const std::size_t length = rng.UniformBelow(24);
  token.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    token += kAlphabet[rng.UniformBelow(sizeof(kAlphabet) - 1)];
  }
  return token;
}

// Addresses and sizes across the full range the ledger can see; stays inside
// [0, 2^62) so signed Bytes arithmetic and the JSON int64 wire type both hold.
std::uint64_t RandomU62(Rng& rng) { return rng() >> 2; }
Bytes RandomBytes(Rng& rng) { return static_cast<Bytes>(RandomU62(rng)); }
Pid RandomPid(Rng& rng) { return static_cast<Pid>(rng.UniformBelow(1u << 22)); }

// Dyadic rationals (k * 0.25) are exactly representable, so equality after
// a decimal round trip is a fair assertion for any serializer that prints
// shortest-round-trip doubles.
double RandomSeconds(Rng& rng) {
  return 0.25 * static_cast<double>(rng.UniformBelow(4'000'000));
}

Message RandomMessage(Rng& rng, std::size_t variant) {
  switch (variant % kVariantCount) {
    case 0: {
      RegisterContainer m;
      m.container_id = RandomToken(rng);
      if (rng.UniformBelow(2) == 0) m.memory_limit = RandomBytes(rng);
      return m;
    }
    case 1: {
      RegisterReply m;
      m.ok = rng.UniformBelow(2) == 0;
      m.error = RandomToken(rng);
      m.socket_dir = RandomToken(rng);
      m.socket_path = RandomToken(rng);
      return m;
    }
    case 2: {
      AllocRequest m;
      m.container_id = RandomToken(rng);
      m.pid = RandomPid(rng);
      m.size = RandomBytes(rng);
      m.api = RandomToken(rng);
      return m;
    }
    case 3: {
      AllocReply m;
      m.granted = rng.UniformBelow(2) == 0;
      m.error = RandomToken(rng);
      return m;
    }
    case 4: {
      AllocCommit m;
      m.container_id = RandomToken(rng);
      m.pid = RandomPid(rng);
      m.address = RandomU62(rng);
      m.size = RandomBytes(rng);
      return m;
    }
    case 5: {
      AllocAbort m;
      m.container_id = RandomToken(rng);
      m.pid = RandomPid(rng);
      m.size = RandomBytes(rng);
      return m;
    }
    case 6: {
      FreeNotify m;
      m.container_id = RandomToken(rng);
      m.pid = RandomPid(rng);
      m.address = RandomU62(rng);
      return m;
    }
    case 7: {
      MemGetInfoRequest m;
      m.container_id = RandomToken(rng);
      m.pid = RandomPid(rng);
      return m;
    }
    case 8: {
      MemInfoReply m;
      m.free = RandomBytes(rng);
      m.total = RandomBytes(rng);
      return m;
    }
    case 9: {
      ProcessExit m;
      m.container_id = RandomToken(rng);
      m.pid = RandomPid(rng);
      return m;
    }
    case 10: {
      ContainerClose m;
      m.container_id = RandomToken(rng);
      return m;
    }
    case 11:
      return Ping{};
    case 12:
      return Pong{};
    case 13:
      return StatsRequest{};
    case 14: {
      StatsReply m;
      m.capacity = RandomBytes(rng);
      m.free_pool = RandomBytes(rng);
      m.policy = RandomToken(rng);
      m.kicked_connections = rng.UniformBelow(1u << 20);
      const std::size_t count = rng.UniformBelow(4);
      for (std::size_t i = 0; i < count; ++i) {
        ContainerStatsWire c;
        c.container_id = RandomToken(rng);
        c.limit = RandomBytes(rng);
        c.assigned = RandomBytes(rng);
        c.used = RandomBytes(rng);
        c.suspended = rng.UniformBelow(2) == 0;
        c.total_suspended_sec = RandomSeconds(rng);
        c.suspend_episodes = rng.UniformBelow(1u << 20);
        c.kicked_connections = rng.UniformBelow(1u << 20);
        m.containers.push_back(c);
      }
      return m;
    }
    case 15: {
      Hello m;
      m.container_id = RandomToken(rng);
      m.pid = RandomPid(rng);
      return m;
    }
    case 16: {
      HelloReply m;
      m.ok = rng.UniformBelow(2) == 0;
      m.error = RandomToken(rng);
      m.epoch = RandomU62(rng);
      m.limit = RandomBytes(rng);
      return m;
    }
    case 17: {
      Reattach m;
      m.container_id = RandomToken(rng);
      m.pid = RandomPid(rng);
      m.epoch = RandomU62(rng);
      m.limit = RandomBytes(rng);
      const std::size_t count = rng.UniformBelow(5);
      for (std::size_t i = 0; i < count; ++i) {
        LiveAlloc alloc;
        alloc.address = RandomU62(rng);
        alloc.size = RandomBytes(rng);
        m.allocations.push_back(alloc);
      }
      return m;
    }
    default: {
      ReattachReply m;
      m.ok = rng.UniformBelow(2) == 0;
      m.error = RandomToken(rng);
      m.epoch = RandomU62(rng);
      return m;
    }
  }
}

TEST(ProtocolPropertyTest, RandomizedRoundTripsAreExact) {
  Rng rng(0xC0FFEE);
  constexpr int kIterations = 1500;  // ~79 per variant
  for (int i = 0; i < kIterations; ++i) {
    const Message message =
        RandomMessage(rng, static_cast<std::size_t>(i) % kVariantCount);
    std::optional<ReqId> req_id;
    if (rng.UniformBelow(2) == 0) {
      req_id = 1 + static_cast<ReqId>(rng.UniformBelow(kMaxWireReqId));
    }
    const std::string bytes = EncodePayload(json_codec(), message, req_id);
    EXPECT_EQ(json_codec().PeekReqId(bytes), req_id) << bytes;
    auto decoded = json_codec().Decode(bytes);
    ASSERT_TRUE(decoded.ok())
        << TypeName(message) << ": " << decoded.status().ToString();
    EXPECT_TRUE(*decoded == message)
        << "iteration " << i << " mangled a " << TypeName(message) << ": "
        << bytes;
  }
}

// Feeds a mangled frame through the full receive path: it must be either
// dispatched or rejected as kInvalidArgument — never anything that crashes,
// throws, or reports a misleading status code.
void DispatchCorrupted(const std::string& bytes) {
  std::optional<ReqId> req_id;
  const Status status =
      DispatchFrame(bytes, req_id, Visitor{[](const auto&) {}});
  EXPECT_TRUE(status.ok() || status.code() == StatusCode::kInvalidArgument)
      << status.ToString() << " for: " << bytes;
}

TEST(ProtocolPropertyTest, CorruptedFramesNeverCrashDispatch) {
  Rng rng(0xBAD5EED);
  constexpr int kFrames = 300;
  for (int i = 0; i < kFrames; ++i) {
    const Message message =
        RandomMessage(rng, static_cast<std::size_t>(i) % kVariantCount);
    const std::string bytes =
        EncodePayload(json_codec(), message, static_cast<ReqId>(i + 1));
    // Truncations: a peer that died mid-write.
    for (const std::size_t cut :
         {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
      DispatchCorrupted(bytes.substr(0, cut));
    }
    // Bit flips: a corrupted or adversarial frame.
    for (int flip = 0; flip < 8; ++flip) {
      std::string mutated = bytes;
      const std::size_t pos = rng.UniformBelow(mutated.size());
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^
          (1u << rng.UniformBelow(8)));
      DispatchCorrupted(mutated);
    }
  }
}

// --- Wire codec properties (codec.h) ----------------------------------------

TEST(CodecTest, DetectCodecSniffsTheFirstByte) {
  EXPECT_EQ(DetectCodec("{\"type\":\"ping\"}").name(), "json");
  EXPECT_EQ(DetectCodec(std::string(1, static_cast<char>(kBinaryMagic))).name(),
            "binary");
  // Total on any input: garbage maps to *some* codec whose Decode then
  // reports the precise error.
  EXPECT_EQ(DetectCodec("").name(), "json");
  EXPECT_FALSE(DecodePayload("").ok());
  EXPECT_FALSE(
      DecodePayload(std::string(1, static_cast<char>(kBinaryMagic))).ok());
}

TEST(CodecTest, BinaryDecodeRejectsUnknownTagAndTrailingBytes) {
  const std::string ping = EncodePayload(binary_codec(), Message(Ping{}));
  ASSERT_TRUE(DecodePayload(ping).ok());

  std::string bad_tag = ping;
  bad_tag[1] = static_cast<char>(200);  // no such Message alternative
  auto decoded = binary_codec().Decode(bad_tag);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  std::string trailing = ping + "x";
  decoded = binary_codec().Decode(trailing);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  decoded = binary_codec().Decode("not binary at all");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecPropertyTest, BinaryRoundTripsAreExact) {
  Rng rng(0xC0FFEE);
  constexpr int kIterations = 1500;  // ~79 per variant, like the JSON suite
  for (int i = 0; i < kIterations; ++i) {
    const Message message =
        RandomMessage(rng, static_cast<std::size_t>(i) % kVariantCount);
    std::optional<ReqId> req_id;
    if (rng.UniformBelow(2) == 0) {
      req_id = 1 + static_cast<ReqId>(rng.UniformBelow(kMaxWireReqId));
    }
    const std::string bytes = EncodePayload(binary_codec(), message, req_id);
    ASSERT_EQ(&DetectCodec(bytes), &binary_codec());
    EXPECT_EQ(PeekPayloadReqId(bytes), req_id);
    auto decoded = DecodePayload(bytes);
    ASSERT_TRUE(decoded.ok())
        << TypeName(message) << ": " << decoded.status().ToString();
    EXPECT_TRUE(*decoded == message)
        << "iteration " << i << " mangled a " << TypeName(message);
  }
}

struct GoldenInput {
  Message message;
  std::optional<ReqId> req_id;
};

constexpr std::uint64_t kAddress = 0x7000'0000'1234ULL;
constexpr std::uint64_t kEpoch = 0xFEED'FACE'CAFEULL;

// One message per variant, in variant order, with every key on the JSON
// wire (nothing omitted at its default).
std::vector<Message> FullyPopulatedMessages() {
  return {
      RegisterContainer{.container_id = "job-1", .memory_limit = 512_MiB},
      RegisterReply{.ok = false,
                    .error = "name \"job-1\" taken\\retry\n",
                    .socket_dir = "/run/convgpu/job-1",
                    .socket_path = "/run/convgpu/job-1/convgpu.sock"},
      AllocRequest{.container_id = "job-1",
                   .pid = 4242,
                   .size = 4_GiB + 1,
                   .api = "cudaMallocPitch"},
      AllocReply{.granted = false, .error = "RESOURCE_EXHAUSTED: limit"},
      AllocCommit{.container_id = "job-1",
                  .pid = 4242,
                  .address = kAddress,
                  .size = 128_MiB},
      AllocAbort{.container_id = "job-1", .pid = 4242, .size = 1_MiB},
      FreeNotify{.container_id = "job-1", .pid = 4242, .address = kAddress},
      MemGetInfoRequest{.container_id = "job-1", .pid = 4242},
      MemInfoReply{.free = 100_MiB, .total = 512_MiB},
      ProcessExit{.container_id = "job-1", .pid = 4242},
      ContainerClose{.container_id = "job-1"},
      Ping{},
      Pong{},
      StatsRequest{},
      StatsReply{.capacity = 5_GiB,
                 .free_pool = 1_GiB,
                 .policy = "BF",
                 .kicked_connections = 3,
                 .containers = {{.container_id = "a",
                                  .limit = 2_GiB,
                                  .assigned = 2_GiB + 66_MiB,
                                  .used = 512_MiB,
                                  .suspended = true,
                                  .total_suspended_sec = 12.5,
                                  .suspend_episodes = 3,
                                  .kicked_connections = 1},
                                 {.container_id = "b\x01",
                                  .limit = 1_GiB,
                                  .assigned = 1_GiB + 66_MiB,
                                  .used = 0,
                                  .suspended = false,
                                  .total_suspended_sec = 0.1,
                                  .suspend_episodes = 0,
                                  .kicked_connections = 0},
                                 {.container_id = "c",
                                  .total_suspended_sec = 3.0}}},
      Hello{.container_id = "job-1", .pid = 4242},
      HelloReply{.ok = false,
                 .error = "unknown container",
                 .epoch = kEpoch,
                 .limit = 512_MiB,
                 .page_slot = std::nullopt},
      Reattach{.container_id = "job-1",
               .pid = 4242,
               .epoch = kEpoch,
               .limit = 512_MiB,
               .allocations = {{.address = kAddress, .size = 128_MiB},
                               {.address = kAddress + 128_MiB, .size = 1_MiB}}},
      ReattachReply{.ok = false,
                    .error = "stale epoch",
                    .epoch = kEpoch,
                    .page_slot = std::nullopt},
  };
}

// Every variant with every optional key present, once without and once
// with a correlation id, then the variants whose optional keys (an absent
// memory_limit, an empty error) are omitted from the wire.
std::vector<GoldenInput> GoldenInputs() {
  const std::vector<Message> full = FullyPopulatedMessages();
  const std::vector<Message> omitted = {
      RegisterContainer{.container_id = "job-1", .memory_limit = std::nullopt},
      RegisterReply{.ok = true,
                    .error = "",
                    .socket_dir = "/run/convgpu/job-1",
                    .socket_path = "/run/convgpu/job-1/convgpu.sock"},
      AllocReply{.granted = true, .error = ""},
      Hello{.container_id = "job-1", .pid = 4242},
      HelloReply{.ok = true,
                 .error = "",
                 .epoch = kEpoch,
                 .limit = 512_MiB,
                 .page_slot = std::nullopt},
      Reattach{.container_id = "job-1",
               .pid = 4242,
               .epoch = kEpoch,
               .limit = 512_MiB,
               .allocations = {}},
      ReattachReply{.ok = true,
                    .error = "",
                    .epoch = kEpoch,
                    .page_slot = std::nullopt},
  };
  std::vector<GoldenInput> inputs;
  ReqId next_id = 1;
  for (const Message& message : full) {
    inputs.push_back({message, std::nullopt});
    inputs.push_back({message, next_id++});
  }
  inputs.push_back({Ping{}, kMaxWireReqId});
  for (const Message& message : omitted) {
    inputs.push_back({message, std::nullopt});
  }
  return inputs;
}

// The JSON bytes of GoldenInputs(), in order. Old peers parse exactly these
// bytes, so any change here is a wire-format change: keys in sorted order,
// "req_id" only when present, optional keys omitted when empty, strings
// escaped and doubles printed as below.
constexpr std::string_view kGoldenJson[] = {
    // register_container
    R"golden({"container_id":"job-1","memory_limit":536870912,"type":"register_container"})golden",
    // register_container, req_id 1
    R"golden({"container_id":"job-1","memory_limit":536870912,"req_id":1,"type":"register_container"})golden",
    // register_reply
    R"golden({"error":"name \"job-1\" taken\\retry\n","ok":false,"socket_dir":"/run/convgpu/job-1","socket_path":"/run/convgpu/job-1/convgpu.sock","type":"register_reply"})golden",
    // register_reply, req_id 2
    R"golden({"error":"name \"job-1\" taken\\retry\n","ok":false,"req_id":2,"socket_dir":"/run/convgpu/job-1","socket_path":"/run/convgpu/job-1/convgpu.sock","type":"register_reply"})golden",
    // alloc_request
    R"golden({"api":"cudaMallocPitch","container_id":"job-1","pid":4242,"size":4294967297,"type":"alloc_request"})golden",
    // alloc_request, req_id 3
    R"golden({"api":"cudaMallocPitch","container_id":"job-1","pid":4242,"req_id":3,"size":4294967297,"type":"alloc_request"})golden",
    // alloc_reply
    R"golden({"error":"RESOURCE_EXHAUSTED: limit","granted":false,"type":"alloc_reply"})golden",
    // alloc_reply, req_id 4
    R"golden({"error":"RESOURCE_EXHAUSTED: limit","granted":false,"req_id":4,"type":"alloc_reply"})golden",
    // alloc_commit
    R"golden({"address":123145302315572,"container_id":"job-1","pid":4242,"size":134217728,"type":"alloc_commit"})golden",
    // alloc_commit, req_id 5
    R"golden({"address":123145302315572,"container_id":"job-1","pid":4242,"req_id":5,"size":134217728,"type":"alloc_commit"})golden",
    // alloc_abort
    R"golden({"container_id":"job-1","pid":4242,"size":1048576,"type":"alloc_abort"})golden",
    // alloc_abort, req_id 6
    R"golden({"container_id":"job-1","pid":4242,"req_id":6,"size":1048576,"type":"alloc_abort"})golden",
    // free
    R"golden({"address":123145302315572,"container_id":"job-1","pid":4242,"type":"free"})golden",
    // free, req_id 7
    R"golden({"address":123145302315572,"container_id":"job-1","pid":4242,"req_id":7,"type":"free"})golden",
    // mem_get_info
    R"golden({"container_id":"job-1","pid":4242,"type":"mem_get_info"})golden",
    // mem_get_info, req_id 8
    R"golden({"container_id":"job-1","pid":4242,"req_id":8,"type":"mem_get_info"})golden",
    // mem_info_reply
    R"golden({"free":104857600,"total":536870912,"type":"mem_info_reply"})golden",
    // mem_info_reply, req_id 9
    R"golden({"free":104857600,"req_id":9,"total":536870912,"type":"mem_info_reply"})golden",
    // process_exit
    R"golden({"container_id":"job-1","pid":4242,"type":"process_exit"})golden",
    // process_exit, req_id 10
    R"golden({"container_id":"job-1","pid":4242,"req_id":10,"type":"process_exit"})golden",
    // container_close
    R"golden({"container_id":"job-1","type":"container_close"})golden",
    // container_close, req_id 11
    R"golden({"container_id":"job-1","req_id":11,"type":"container_close"})golden",
    // ping
    R"golden({"type":"ping"})golden",
    // ping, req_id 12
    R"golden({"req_id":12,"type":"ping"})golden",
    // pong
    R"golden({"type":"pong"})golden",
    // pong, req_id 13
    R"golden({"req_id":13,"type":"pong"})golden",
    // stats
    R"golden({"type":"stats"})golden",
    // stats, req_id 14
    R"golden({"req_id":14,"type":"stats"})golden",
    // stats_reply
    R"golden({"capacity":5368709120,"containers":[{"assigned":2216689664,"container_id":"a","kicked_connections":1,"limit":2147483648,"suspend_episodes":3,"suspended":true,"total_suspended_sec":12.5,"used":536870912},{"assigned":1142947840,"container_id":"b\u0001","kicked_connections":0,"limit":1073741824,"suspend_episodes":0,"suspended":false,"total_suspended_sec":0.1,"used":0},{"assigned":0,"container_id":"c","kicked_connections":0,"limit":0,"suspend_episodes":0,"suspended":false,"total_suspended_sec":3.0,"used":0}],"free_pool":1073741824,"kicked_connections":3,"policy":"BF","type":"stats_reply"})golden",
    // stats_reply, req_id 15
    R"golden({"capacity":5368709120,"containers":[{"assigned":2216689664,"container_id":"a","kicked_connections":1,"limit":2147483648,"suspend_episodes":3,"suspended":true,"total_suspended_sec":12.5,"used":536870912},{"assigned":1142947840,"container_id":"b\u0001","kicked_connections":0,"limit":1073741824,"suspend_episodes":0,"suspended":false,"total_suspended_sec":0.1,"used":0},{"assigned":0,"container_id":"c","kicked_connections":0,"limit":0,"suspend_episodes":0,"suspended":false,"total_suspended_sec":3.0,"used":0}],"free_pool":1073741824,"kicked_connections":3,"policy":"BF","req_id":15,"type":"stats_reply"})golden",
    // hello
    R"golden({"container_id":"job-1","pid":4242,"type":"hello"})golden",
    // hello, req_id 16
    R"golden({"container_id":"job-1","pid":4242,"req_id":16,"type":"hello"})golden",
    // hello_reply
    R"golden({"epoch":280298068560638,"error":"unknown container","limit":536870912,"ok":false,"type":"hello_reply"})golden",
    // hello_reply, req_id 17
    R"golden({"epoch":280298068560638,"error":"unknown container","limit":536870912,"ok":false,"req_id":17,"type":"hello_reply"})golden",
    // reattach
    R"golden({"allocations":[{"address":123145302315572,"size":134217728},{"address":123145436533300,"size":1048576}],"container_id":"job-1","epoch":280298068560638,"limit":536870912,"pid":4242,"type":"reattach"})golden",
    // reattach, req_id 18
    R"golden({"allocations":[{"address":123145302315572,"size":134217728},{"address":123145436533300,"size":1048576}],"container_id":"job-1","epoch":280298068560638,"limit":536870912,"pid":4242,"req_id":18,"type":"reattach"})golden",
    // reattach_reply
    R"golden({"epoch":280298068560638,"error":"stale epoch","ok":false,"type":"reattach_reply"})golden",
    // reattach_reply, req_id 19
    R"golden({"epoch":280298068560638,"error":"stale epoch","ok":false,"req_id":19,"type":"reattach_reply"})golden",
    // ping, req_id 9223372036854775807
    R"golden({"req_id":9223372036854775807,"type":"ping"})golden",
    // register_container
    R"golden({"container_id":"job-1","type":"register_container"})golden",
    // register_reply
    R"golden({"ok":true,"socket_dir":"/run/convgpu/job-1","socket_path":"/run/convgpu/job-1/convgpu.sock","type":"register_reply"})golden",
    // alloc_reply
    R"golden({"granted":true,"type":"alloc_reply"})golden",
    // hello
    R"golden({"container_id":"job-1","pid":4242,"type":"hello"})golden",
    // hello_reply
    R"golden({"epoch":280298068560638,"limit":536870912,"ok":true,"type":"hello_reply"})golden",
    // reattach
    R"golden({"allocations":[],"container_id":"job-1","epoch":280298068560638,"limit":536870912,"pid":4242,"type":"reattach"})golden",
    // reattach_reply
    R"golden({"epoch":280298068560638,"ok":true,"type":"reattach_reply"})golden",
};

TEST(CodecTest, JsonCodecMatchesGoldenBytes) {
  const std::vector<GoldenInput> inputs = GoldenInputs();
  ASSERT_EQ(inputs.size(), std::size(kGoldenJson));
  std::set<std::size_t> variants;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const GoldenInput& input = inputs[i];
    variants.insert(input.message.index());
    EXPECT_EQ(EncodePayload(json_codec(), input.message, input.req_id),
              kGoldenJson[i])
        << "row " << i << ", " << TypeName(input.message);
    // And the golden bytes decode back to exactly the input.
    auto decoded = DecodePayload(kGoldenJson[i]);
    ASSERT_TRUE(decoded.ok()) << "row " << i << ": "
                              << decoded.status().ToString();
    EXPECT_TRUE(*decoded == input.message) << "row " << i;
    EXPECT_EQ(PeekPayloadReqId(kGoldenJson[i]), input.req_id) << "row " << i;
  }
  EXPECT_EQ(variants.size(), kVariantCount);  // every alternative is pinned
}

// The JSON keys whose absence (or a value of the wrong JSON kind) fails the
// decode. Every other key decodes to its field's default.
const std::map<std::string_view, std::set<std::string_view>>& RequiredKeys() {
  static const auto* const kRequired =
      new std::map<std::string_view, std::set<std::string_view>>{
          {"register_container", {"container_id"}},
          {"alloc_request", {"container_id", "pid", "size"}},
          {"alloc_commit", {"container_id", "pid", "address", "size"}},
          {"alloc_abort", {"container_id", "pid", "size"}},
          {"free", {"container_id", "pid", "address"}},
          {"mem_get_info", {"container_id"}},
          {"process_exit", {"container_id", "pid"}},
          {"container_close", {"container_id"}},
          {"hello", {"container_id", "pid"}},
          {"reattach", {"container_id", "pid", "epoch"}},
      };
  return *kRequired;
}

// A JSON value of the same kind as `value` that reads as the field default.
json::Json DefaultOfKind(const json::Json& value) {
  switch (value.kind()) {
    case json::Kind::kBool:
      return json::Json(false);
    case json::Kind::kInt:
      return json::Json(0);
    case json::Kind::kDouble:
      return json::Json(0.0);
    case json::Kind::kString:
      return json::Json("");
    case json::Kind::kArray:
      return json::Json(json::Array{});
    default:
      ADD_FAILURE() << "unexpected kind for " << value.Dump();
      return json::Json();
  }
}

// A JSON value of another kind: a string where a number belongs, a number
// where a string, bool or array belongs.
json::Json WrongKind(const json::Json& value) {
  return value.is_number() ? json::Json("not a number") : json::Json(7);
}

// Decodes `frame` and checks it against the required-key rules. A removed
// or wrong-kind `key` of `type` must fail with the exact missing-field
// message when required; otherwise the frame must decode and re-encode to
// `expected` (the key at its default, or absent where the encoder omits it).
void ExpectKeyRule(const json::Json& frame, std::string_view type,
                   std::string_view key, bool required,
                   const json::Json& expected, std::string_view what) {
  auto decoded = json_codec().Decode(frame.Dump());
  if (required) {
    ASSERT_FALSE(decoded.ok()) << what << ": " << frame.Dump();
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(decoded.status().message(), std::string(type) +
                                              ": missing field '" +
                                              std::string(key) + "'")
        << what;
    return;
  }
  ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString();
  auto reencoded = json::Json::Parse(EncodePayload(json_codec(), *decoded));
  ASSERT_TRUE(reencoded.ok());
  EXPECT_EQ(reencoded->Dump(), expected.Dump()) << what;
}

TEST(CodecTest, JsonDecodeRequiresExactlyTheRequiredKeys) {
  // The keys the encoder leaves out when the field is at its default.
  const std::set<std::string_view> kOmittedAtDefault = {"memory_limit",
                                                        "error"};
  std::set<std::size_t> variants;
  for (const Message& message : FullyPopulatedMessages()) {
    variants.insert(message.index());
    const std::string type(TypeName(message));
    auto parsed = json::Json::Parse(EncodePayload(json_codec(), message));
    ASSERT_TRUE(parsed.ok());
    json::Json full = *parsed;
    // A false bool reads the same as an absent one; make every key carry a
    // value its default cannot fake.
    for (auto& [key, value] : full.as_object()) {
      if (value.is_bool()) value = json::Json(true);
    }
    const auto required_it = RequiredKeys().find(type);
    const std::set<std::string_view> required =
        required_it == RequiredKeys().end() ? std::set<std::string_view>{}
                                            : required_it->second;
    for (const auto& [key, value] : full.as_object()) {
      if (key == "type") continue;
      const bool is_required = required.count(key) > 0;
      json::Json expected = full;
      if (kOmittedAtDefault.count(key) > 0) {
        expected.as_object().erase(key);
      } else {
        expected[key] = DefaultOfKind(value);
      }
      json::Json removed = full;
      removed.as_object().erase(key);
      ExpectKeyRule(removed, type, key, is_required, expected,
                    type + " without " + key);
      json::Json mistyped = full;
      mistyped[key] = WrongKind(value);
      ExpectKeyRule(mistyped, type, key, is_required, expected,
                    type + " with a wrong-kind " + key);
    }
    // Every listed key is really on the wire.
    for (std::string_view key : required) {
      EXPECT_NE(full.Find(key), nullptr) << type << "." << key;
    }
    // Nested objects: every reattach.allocations[] key is required (and
    // reported under the outer type), every stats_reply.containers[] key is
    // optional.
    for (const std::string_view array : {"allocations", "containers"}) {
      const json::Json* entries = full.Find(array);
      if (entries == nullptr) continue;
      ASSERT_FALSE(entries->as_array().empty()) << type << "." << array;
      const json::Json& first = entries->as_array().front();
      for (const auto& [key, value] : first.as_object()) {
        const std::string what =
            type + "." + std::string(array) + "[0]." + key;
        json::Json expected = full;
        expected[array].as_array().front()[key] = DefaultOfKind(value);
        json::Json removed = full;
        removed[array].as_array().front().as_object().erase(key);
        ExpectKeyRule(removed, type, key, array == "allocations", expected,
                      what + " removed");
        json::Json mistyped = full;
        mistyped[array].as_array().front()[key] = WrongKind(value);
        ExpectKeyRule(mistyped, type, key, array == "allocations", expected,
                      what + " of the wrong kind");
      }
    }
  }
  EXPECT_EQ(variants.size(), kVariantCount);
}

TEST(CodecPropertyTest, EncodingsAreEquivalent) {
  // The same Message decodes identically from either wire form — the
  // guarantee that lets each frame pick its encoding without the scheduler
  // caring who speaks what.
  Rng rng(0xC0FFEE);
  constexpr int kIterations = 1500;
  for (int i = 0; i < kIterations; ++i) {
    const Message message =
        RandomMessage(rng, static_cast<std::size_t>(i) % kVariantCount);
    const std::optional<ReqId> req_id =
        1 + static_cast<ReqId>(rng.UniformBelow(kMaxWireReqId));
    auto from_json =
        DecodePayload(EncodePayload(json_codec(), message, req_id));
    auto from_binary =
        DecodePayload(EncodePayload(binary_codec(), message, req_id));
    ASSERT_TRUE(from_json.ok()) << from_json.status().ToString();
    ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
    EXPECT_TRUE(*from_json == *from_binary)
        << "iteration " << i << " diverged on a " << TypeName(message);
  }
}

TEST(CodecPropertyTest, CorruptedBinaryFramesNeverCrash) {
  // Truncations and bit flips through the full receive path: decode either
  // succeeds (a flip may land in string payload bytes) or reports
  // kInvalidArgument — never crashes, hangs, or reads out of bounds (this
  // also runs under the ASan leg of tools/check.sh).
  Rng rng(0xBAD5EED);
  constexpr int kFrames = 300;
  auto check = [](const std::string& bytes) {
    (void)PeekPayloadReqId(bytes);
    auto decoded = DecodePayload(bytes);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << decoded.status().ToString();
    }
  };
  for (int i = 0; i < kFrames; ++i) {
    const Message message =
        RandomMessage(rng, static_cast<std::size_t>(i) % kVariantCount);
    const std::string bytes =
        EncodePayload(binary_codec(), message, static_cast<ReqId>(i + 1));
    for (const std::size_t cut :
         {std::size_t{0}, bytes.size() / 4, bytes.size() / 2,
          bytes.size() - 1}) {
      check(bytes.substr(0, cut));
    }
    for (int flip = 0; flip < 8; ++flip) {
      std::string mutated = bytes;
      const std::size_t pos = rng.UniformBelow(mutated.size());
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^
          (1u << rng.UniformBelow(8)));
      check(mutated);
    }
    // Random garbage after the magic byte: decode must stay bounded.
    std::string garbage(1 + rng.UniformBelow(64), '\0');
    garbage[0] = static_cast<char>(kBinaryMagic);
    for (std::size_t b = 1; b < garbage.size(); ++b) {
      garbage[b] = static_cast<char>(rng.UniformBelow(256));
    }
    check(garbage);
  }
}

TEST(CodecTest, HandshakesWithTheRetiredBinaryKeyStillDecode) {
  // Wrappers that negotiated the encoding put "binary":true on every hello
  // and reattach. The JSON decoder ignores unknown keys, so a daemon without
  // the key still reads those handshakes, as the same messages.
  auto hello = Expect<Hello>(DecodePayload(
      R"({"binary":true,"container_id":"job-1","pid":4242,"type":"hello"})"));
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_TRUE(*hello == (Hello{.container_id = "job-1", .pid = 4242}));
  auto reattach = Expect<Reattach>(DecodePayload(
      R"({"allocations":[],"binary":true,"container_id":"job-1",)"
      R"("epoch":280298068560638,"limit":536870912,"pid":4242,)"
      R"("type":"reattach"})"));
  ASSERT_TRUE(reattach.ok()) << reattach.status().ToString();
  EXPECT_TRUE(*reattach == (Reattach{.container_id = "job-1",
                                     .pid = 4242,
                                     .epoch = kEpoch,
                                     .limit = 512_MiB,
                                     .allocations = {}}));
}

TEST(CodecTest, HandshakeRepliesCarryThePageSlot) {
  // The ledger page's slot rides the handshake reply; absent (no page) it
  // is left out, so every golden row above stays as it was.
  const Message hello = HelloReply{.ok = true,
                                   .error = "",
                                   .epoch = kEpoch,
                                   .limit = 512_MiB,
                                   .page_slot = 3};
  const Message reattach = ReattachReply{.ok = true,
                                         .error = "",
                                         .epoch = kEpoch,
                                         .page_slot = 0};
  EXPECT_EQ(EncodePayload(json_codec(), hello, 9),
            R"({"epoch":280298068560638,"limit":536870912,"ok":true,)"
            R"("page_slot":3,"req_id":9,"type":"hello_reply"})");
  EXPECT_EQ(EncodePayload(json_codec(), reattach),
            R"({"epoch":280298068560638,"ok":true,"page_slot":0,)"
            R"("type":"reattach_reply"})");
  for (const Message& message : {hello, reattach}) {
    for (const Codec* codec : {&json_codec(), &binary_codec()}) {
      auto decoded = DecodePayload(EncodePayload(*codec, message, 5));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_TRUE(*decoded == message) << codec->name();
    }
  }
}

TEST(CodecPropertyTest, DecodeYieldsThePeekedReqIdInOnePass) {
  // A receiver decodes each frame once: the id that comes with the decode
  // is the one PeekReqId reads, for well-formed frames and for every
  // truncation and bit flip of them, in both encodings.
  Rng rng(0x1D5);
  auto check = [](const std::string& bytes) {
    std::optional<ReqId> req_id = 12345;  // overwritten, never kept
    auto decoded = DecodePayload(bytes, req_id);
    EXPECT_EQ(req_id, PeekPayloadReqId(bytes)) << bytes;
    auto alone = DecodePayload(bytes);
    ASSERT_EQ(decoded.ok(), alone.ok()) << bytes;
    if (decoded.ok()) {
      EXPECT_TRUE(*decoded == *alone);
    } else {
      EXPECT_EQ(decoded.status().message(), alone.status().message());
    }
  };
  for (const std::string_view golden : kGoldenJson) check(std::string(golden));
  for (int i = 0; i < 200; ++i) {
    const Message message =
        RandomMessage(rng, static_cast<std::size_t>(i) % kVariantCount);
    for (const Codec* codec : {&json_codec(), &binary_codec()}) {
      const std::optional<ReqId> id =
          i % 3 == 0 ? std::nullopt : std::optional<ReqId>(i + 1);
      const std::string bytes = EncodePayload(*codec, message, id);
      check(bytes);
      check(bytes.substr(0, bytes.size() / 2));
      std::string mutated = bytes;
      const std::size_t pos = rng.UniformBelow(mutated.size());
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^
          (1u << rng.UniformBelow(8)));
      check(mutated);
    }
  }
}

}  // namespace
}  // namespace convgpu::protocol
