// Microbenchmark: encode/decode cost of the two wire codecs (codec.h).
//
// Measures the per-message CPU the scheduler and wrapper spend turning
// protocol::Message values into payload bytes and back — the cost the
// negotiated binary encoding exists to cut. Also enforces the hot-path
// allocation contract (the process exits nonzero if either regresses):
//  * after warm-up, encoding into a reused scratch buffer performs ZERO
//    heap allocations with either codec;
//  * after warm-up, a whole round trip through the daemon's reactor — frame
//    in, handler, SendBytes, frame out, through an ipc::MessageServer echo
//    listener and a MessageClient — performs ZERO heap allocations in the
//    process, on either side of the socket.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "convgpu/codec.h"
#include "convgpu/protocol.h"
#include "ipc/message_server.h"

// --- Global allocation counter ----------------------------------------------
// Counts every operator new in the process. Benchmarks ignore it; the
// steady-state check below zeroes it around a burst of encodes.

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC pairs the replaced operator new (malloc inside) with the replaced
// operator delete (free inside) and flags the malloc/free it can see
// through inlining as mismatched — a false positive for a whole-program
// allocator replacement.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace convgpu::bench {
namespace {

using protocol::Codec;
using protocol::Message;
using protocol::ReqId;

/// The wrapper's hot path: one admission round trip's worth of messages.
std::vector<Message> HotPathMessages() {
  std::vector<Message> messages;
  protocol::AllocRequest request;
  request.container_id = "bench-container";
  request.pid = 4242;
  request.size = 16 * 1024 * 1024;
  request.api = "cudaMalloc";
  messages.emplace_back(request);
  protocol::AllocReply reply;
  reply.granted = true;
  messages.emplace_back(reply);
  protocol::AllocCommit commit;
  commit.container_id = "bench-container";
  commit.pid = 4242;
  commit.address = 0x7F0000000000ull;
  commit.size = 16 * 1024 * 1024;
  messages.emplace_back(commit);
  protocol::FreeNotify free_notify;
  free_notify.container_id = "bench-container";
  free_notify.pid = 4242;
  free_notify.address = 0x7F0000000000ull;
  messages.emplace_back(free_notify);
  protocol::MemGetInfoRequest info;
  info.container_id = "bench-container";
  info.pid = 4242;
  messages.emplace_back(info);
  protocol::MemInfoReply info_reply;
  info_reply.free = 3ll * 1024 * 1024 * 1024;
  info_reply.total = 4ll * 1024 * 1024 * 1024;
  messages.emplace_back(info_reply);
  return messages;
}

void BM_Encode(benchmark::State& state, const Codec& codec) {
  const std::vector<Message> messages = HotPathMessages();
  std::string scratch;
  ReqId req_id = 1;
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (const Message& message : messages) {
      codec.Encode(message, req_id++, scratch);
      benchmark::DoNotOptimize(scratch.data());
      bytes += scratch.size();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(messages.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

void BM_Decode(benchmark::State& state, const Codec& codec) {
  std::vector<std::string> payloads;
  ReqId req_id = 1;
  for (const Message& message : HotPathMessages()) {
    payloads.push_back(protocol::EncodePayload(codec, message, req_id++));
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (const std::string& payload : payloads) {
      auto decoded = protocol::DecodePayload(payload);
      if (!decoded.ok()) {
        state.SkipWithError("decode failed");
        return;
      }
      benchmark::DoNotOptimize(*decoded);
      bytes += payload.size();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(payloads.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

void BM_PeekReqId(benchmark::State& state, const Codec& codec) {
  protocol::AllocReply reply;
  reply.granted = true;
  const std::string payload =
      protocol::EncodePayload(codec, Message(reply), /*req_id=*/123456789);
  for (auto _ : state) {
    auto id = protocol::PeekPayloadReqId(payload);
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Encode_json(benchmark::State& state) {
  BM_Encode(state, protocol::json_codec());
}
void BM_Encode_binary(benchmark::State& state) {
  BM_Encode(state, protocol::binary_codec());
}
void BM_Decode_json(benchmark::State& state) {
  BM_Decode(state, protocol::json_codec());
}
void BM_Decode_binary(benchmark::State& state) {
  BM_Decode(state, protocol::binary_codec());
}
void BM_PeekReqId_json(benchmark::State& state) {
  BM_PeekReqId(state, protocol::json_codec());
}
void BM_PeekReqId_binary(benchmark::State& state) {
  BM_PeekReqId(state, protocol::binary_codec());
}

BENCHMARK(BM_Encode_json);
BENCHMARK(BM_Encode_binary);
BENCHMARK(BM_Decode_json);
BENCHMARK(BM_Decode_binary);
BENCHMARK(BM_PeekReqId_json);
BENCHMARK(BM_PeekReqId_binary);

/// The allocation contract: once the scratch buffer has grown to the
/// working-set frame size, Encode never touches the heap — for either
/// codec, across every hot-path message. Returns false (and says why) on
/// any regression.
bool VerifyZeroAllocationEncode() {
  bool ok = true;
  const std::vector<Message> messages = HotPathMessages();
  for (const Codec* codec :
       {&protocol::json_codec(), &protocol::binary_codec()}) {
    std::string scratch;
    ReqId req_id = 1;
    // Warm-up: let the scratch buffer reach its steady-state capacity.
    for (int round = 0; round < 4; ++round) {
      for (const Message& message : messages) {
        codec->Encode(message, req_id++, scratch);
      }
    }
    const std::size_t before = g_allocations.load();
    for (int round = 0; round < 1000; ++round) {
      for (const Message& message : messages) {
        codec->Encode(message, req_id++, scratch);
      }
    }
    const std::size_t allocations = g_allocations.load() - before;
    std::printf("steady-state encode allocations (%s): %zu\n",
                std::string(codec->name()).c_str(), allocations);
    if (allocations != 0) {
      std::fprintf(stderr,
                   "FAIL: %s Encode allocated %zu times in steady state "
                   "(contract: zero)\n",
                   std::string(codec->name()).c_str(), allocations);
      ok = false;
    }
  }
  return ok;
}

/// The reactor half of the contract: frames echoed through a real
/// MessageServer listener. Warm-up lets every buffer on the path (the
/// connection's input and output buffers, the client's receive buffer)
/// reach its steady-state capacity; after that a round trip must not touch
/// the heap anywhere in the process — neither the reactor thread nor the
/// client.
bool VerifyZeroAllocationReactor() {
  std::string dir = "/tmp/convgpu-reactor-alloc-XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "FAIL: cannot create a socket directory\n");
    return false;
  }
  const std::string path = dir + "/echo.sock";
  ipc::MessageServer server;
  const Status started = server.Start(
      path, [&server](ipc::ConnectionId conn, std::string_view payload) {
        (void)server.SendBytes(conn, payload);
      });
  auto client = ipc::MessageClient::ConnectUnix(path);
  if (!started.ok() || !client.ok()) {
    std::fprintf(stderr, "FAIL: cannot start the echo listener\n");
    std::filesystem::remove_all(dir);
    return false;
  }
  // A binary alloc_request-sized payload would fit a std::string's inline
  // buffer; a JSON one does not, so a per-frame payload copy would show.
  const std::string payload = protocol::EncodePayload(
      protocol::json_codec(), HotPathMessages().front(), /*req_id=*/1);
  auto round_trip = [&]() -> bool {
    if (!(*client)->SendFrame(payload).ok()) return false;
    auto echoed = (*client)->RecvFrameView(std::nullopt);
    return echoed.ok() && *echoed == payload;
  };
  bool ok = true;
  for (int i = 0; i < 256 && ok; ++i) ok = round_trip();
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 2000 && ok; ++i) ok = round_trip();
  const std::size_t allocations = g_allocations.load() - before;
  client->reset();
  server.Stop();
  std::filesystem::remove_all(dir);
  if (!ok) {
    std::fprintf(stderr, "FAIL: echo round trip through the reactor failed\n");
    return false;
  }
  std::printf("steady-state reactor round-trip allocations: %zu\n",
              allocations);
  if (allocations != 0) {
    std::fprintf(stderr,
                 "FAIL: a reactor round trip allocated %zu times in 2000 "
                 "round trips in steady state (contract: zero)\n",
                 allocations);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace convgpu::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const bool encode = convgpu::bench::VerifyZeroAllocationEncode();
  const bool reactor = convgpu::bench::VerifyZeroAllocationReactor();
  return encode && reactor ? 0 : 1;
}
