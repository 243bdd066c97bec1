// Fuzz target for the wire-payload decode path (codec.h).
//
// Feeds arbitrary bytes through exactly what the daemon and the link run
// on every received frame: DecodePayload with its correlation id (which
// sniffs the encoding, so one target covers BOTH codecs — JSON documents
// exercise JsonCodec, payloads starting with kBinaryMagic exercise
// BinaryCodec). The contract under fuzz: never crash, never hang, never
// read out of bounds, report failures only as kInvalidArgument, and yield
// the same id PeekPayloadReqId reads.
//
// Two build modes:
//  * -DCONVGPU_FUZZ=ON (clang only): a libFuzzer binary — run it with a
//    corpus directory, e.g. `fuzz_decode corpus/ -max_total_time=60`.
//  * default: a standalone regression binary whose main() replays a
//    deterministic seed corpus (one valid frame per variant in both
//    encodings, with and without a req_id, each round-tripped and then
//    truncated and bit-flipped, plus random garbage) — cheap enough for
//    every CI run.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "convgpu/codec.h"
#include "convgpu/protocol.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view payload(reinterpret_cast<const char*>(data), size);
  std::optional<convgpu::protocol::ReqId> req_id;
  auto decoded = convgpu::protocol::DecodePayload(payload, req_id);
  if (!decoded.ok() &&
      decoded.status().code() != convgpu::StatusCode::kInvalidArgument) {
    __builtin_trap();  // decode failures must be typed kInvalidArgument
  }
  if (req_id != convgpu::protocol::PeekPayloadReqId(payload)) {
    __builtin_trap();  // the one-pass id must be the peeked one
  }
  return 0;
}

#if !defined(CONVGPU_FUZZ_LIBFUZZER)

// Standalone mode: replay a deterministic corpus derived from real frames.
#include "common/rng.h"

namespace {

void Feed(const std::string& bytes) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size());
}

}  // namespace

int main() {
  using namespace convgpu;
  using namespace convgpu::protocol;

  std::size_t cases = 0;
  Rng rng(0xBAD5EED);

  // Hand-picked edges.
  for (const std::string& seed :
       {std::string(), std::string("{}"), std::string("null"),
        std::string("{\"type\":\"ping\"}"),
        std::string("{\"type\":\"nope\"}"),
        std::string(1, static_cast<char>(kBinaryMagic)),
        std::string(2, static_cast<char>(kBinaryMagic)),
        std::string("\xBF\x0B\x00", 3),  // well-formed binary ping
        std::string("\xBF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF", 11)}) {
    Feed(seed);
    ++cases;
  }

  // Valid frames in both encodings, then mangled: the same recipe as the
  // protocol property tests, so every corpus member here is reachable wire
  // state, not synthetic noise.
  auto mangle = [&](const std::string& bytes) {
    Feed(bytes);
    ++cases;
    for (const std::size_t cut :
         {std::size_t{0}, bytes.size() / 4, bytes.size() / 2,
          bytes.size() - 1}) {
      Feed(bytes.substr(0, cut));
      ++cases;
    }
    for (int flip = 0; flip < 16; ++flip) {
      std::string mutated = bytes;
      const std::size_t pos = rng.UniformBelow(mutated.size());
      mutated[pos] =
          static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^
                            (1u << rng.UniformBelow(8)));
      Feed(mutated);
      ++cases;
    }
  };

  // One fully populated frame per variant, written out by hand (not derived
  // from the codec's field tables, so a field the tables miss fails the
  // round-trip check below).
  const std::uint64_t kAddress = 0x7000'0000'1234ULL;
  const std::vector<Message> seeds = {
      RegisterContainer{.container_id = "fuzz", .memory_limit = 512ll << 20},
      RegisterReply{.ok = true,
                    .error = "taken \"fuzz\"\n",
                    .socket_dir = "/run/convgpu/fuzz",
                    .socket_path = "/run/convgpu/fuzz/convgpu.sock"},
      AllocRequest{.container_id = "fuzz",
                   .pid = 1,
                   .size = 1 << 20,
                   .api = "cudaMalloc"},
      AllocReply{.granted = true, .error = "RESOURCE_EXHAUSTED"},
      AllocCommit{.container_id = "fuzz",
                  .pid = 1,
                  .address = kAddress,
                  .size = 1 << 20},
      AllocAbort{.container_id = "fuzz", .pid = 1, .size = 1 << 20},
      FreeNotify{.container_id = "fuzz", .pid = 1, .address = kAddress},
      MemGetInfoRequest{.container_id = "fuzz", .pid = 1},
      MemInfoReply{.free = 100ll << 20, .total = 512ll << 20},
      ProcessExit{.container_id = "fuzz", .pid = 1},
      ContainerClose{.container_id = "fuzz"},
      Ping{},
      Pong{},
      StatsRequest{},
      StatsReply{.capacity = 5ll << 30,
                 .free_pool = 1ll << 30,
                 .policy = "BF",
                 .kicked_connections = 2,
                 .containers = {{.container_id = "fuzz",
                                 .limit = 512ll << 20,
                                 .assigned = 578ll << 20,
                                 .used = 64ll << 20,
                                 .suspended = true,
                                 .total_suspended_sec = 1.25,
                                 .suspend_episodes = 3,
                                 .kicked_connections = 1}}},
      Hello{.container_id = "fuzz", .pid = 1},
      HelloReply{.ok = true,
                 .error = "stale",
                 .epoch = 0xFEED,
                 .limit = 512ll << 20,
                 .page_slot = std::nullopt},
      Reattach{.container_id = "fuzz",
               .pid = 1,
               .epoch = 0xFEED,
               .limit = 512ll << 20,
               .allocations = {{.address = 0xA0000, .size = 1 << 20},
                               {.address = kAddress, .size = 4096}}},
      ReattachReply{.ok = true,
                    .error = "stale",
                    .epoch = 0xFEED,
                    .page_slot = std::nullopt},
  };
  if (seeds.size() != std::variant_size_v<Message>) {
    std::fprintf(stderr, "fuzz_decode: %zu seeds for %zu variants\n",
                 seeds.size(), std::variant_size_v<Message>);
    return 1;
  }
  for (const Message& message : seeds) {
    for (const Codec* codec : {&json_codec(), &binary_codec()}) {
      for (const std::optional<ReqId> req_id :
           {std::optional<ReqId>(77), std::optional<ReqId>()}) {
        const std::string bytes = EncodePayload(*codec, message, req_id);
        auto decoded = DecodePayload(bytes);
        if (!decoded.ok() || !(*decoded == message)) {
          const std::string_view type = TypeName(message);
          std::fprintf(stderr,
                       "fuzz_decode: %s %.*s seed does not round-trip\n",
                       std::string(codec->name()).c_str(),
                       static_cast<int>(type.size()), type.data());
          return 1;
        }
        mangle(bytes);
      }
    }
  }

  // Pure-random binary-tagged payloads: the decoder's bounds checks alone.
  for (int i = 0; i < 2000; ++i) {
    std::string garbage(1 + rng.UniformBelow(128), '\0');
    garbage[0] = static_cast<char>(kBinaryMagic);
    for (std::size_t b = 1; b < garbage.size(); ++b) {
      garbage[b] = static_cast<char>(rng.UniformBelow(256));
    }
    Feed(garbage);
    ++cases;
  }

  std::printf("fuzz_decode: replayed %zu corpus cases, no crashes\n", cases);
  return 0;
}

#endif  // !CONVGPU_FUZZ_LIBFUZZER
