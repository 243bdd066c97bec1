// Ablation: IPC transport for the wrapper↔scheduler round trip.
//
// The paper (§III-A) chose UNIX domain sockets over TCP ("complexity and
// low performance") and over shared memory / files (interceptable by third
// parties). This ablation quantifies the latency side of that decision:
// one full alloc_request admission round trip over
//   * direct      — in-process function call (lower bound, no isolation)
//   * unix socket — the paper's choice
//   * tcp         — loopback TCP with TCP_NODELAY
// then sweeps the payload encoding (JSON vs binary) over 1/8/64 pipelined
// channels on the shared reactor, writing BENCH_wire.json to the working
// directory.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "convgpu/codec.h"
#include "ipc/framing.h"
#include "ipc/socket.h"
#include "json/json.h"

namespace convgpu::bench {
namespace {

protocol::Message AllocMessage() {
  protocol::AllocRequest request;
  request.container_id = "bench";
  request.pid = 1;
  request.size = 1 * kMiB;
  request.api = "cudaMalloc";
  return protocol::Message(request);
}

void RoundTrip(benchmark::State& state, SchedulerLink& link,
               SchedulerCore& core) {
  const protocol::Message request = AllocMessage();
  protocol::AllocAbort abort;
  abort.container_id = "bench";
  abort.pid = 1;
  abort.size = 1 * kMiB;
  const protocol::Message rollback(abort);
  for (auto _ : state) {
    auto reply = link.Call(request);
    if (!reply.ok() || !std::get<protocol::AllocReply>(*reply).granted) {
      state.SkipWithError("admission failed");
      return;
    }
    state.PauseTiming();
    (void)link.Notify(rollback);
    // Notifications are async on the socket paths: wait for the rollback
    // to land so admissions never pile up and start suspending.
    while (core.StatsFor("bench")->used != 66 * kMiB) {
      std::this_thread::yield();
    }
    state.ResumeTiming();
  }
}

void BM_Transport_direct(benchmark::State& state) {
  SchedulerOptions options;
  options.capacity = 5 * kGiB;
  SchedulerCore core(options);
  (void)core.RegisterContainer("bench", 4 * kGiB);
  DirectSchedulerLink link(&core, "bench");
  // Prime the per-pid overhead so every iteration is steady-state.
  auto reply = link.Call(AllocMessage());
  if (reply.ok()) {
    protocol::AllocAbort abort;
    abort.container_id = "bench";
    abort.pid = 1;
    abort.size = 1 * kMiB;
    (void)link.Notify(protocol::Message(abort));
  }
  RoundTrip(state, link, core);
}

void BM_Transport_unix_socket(benchmark::State& state) {
  static PaperTestbed testbed("abl-unix", 4 * kGiB);
  static auto link = [] {
    auto connected = SocketSchedulerLink::Connect(
        testbed.server().container_socket_path("bench"));
    if (!connected.ok()) std::abort();
    // Prime overhead accounting.
    auto reply = (*connected)->Call(AllocMessage());
    if (reply.ok()) {
      protocol::AllocAbort abort;
      abort.container_id = "bench";
      abort.pid = 1;
      abort.size = 1 * kMiB;
      (void)(*connected)->Notify(protocol::Message(abort));
    }
    return std::move(*connected);
  }();
  RoundTrip(state, *link, testbed.server().core());
}

/// Minimal TCP echo of the scheduler protocol: a thread answers every
/// alloc_request with a decision from a real SchedulerCore — isolating the
/// transport cost difference against the UNIX socket path.
class TcpScheduler {
 public:
  TcpScheduler() : core_(MakeOptions()) {
    (void)core_.RegisterContainer("bench", 4 * kGiB);
    auto listener = ipc::TcpListener::Bind(0);
    if (!listener.ok()) std::abort();
    port_ = listener->port();
    server_ = std::thread([listener = std::move(*listener), this]() mutable {
      auto conn = listener.Accept();
      if (!conn.ok()) return;
      for (;;) {
        auto raw = ipc::ReadFrame(conn->get());
        if (!raw.ok()) return;
        auto decoded = protocol::DecodePayload(*raw);
        if (!decoded.ok()) continue;
        if (auto* alloc = std::get_if<protocol::AllocRequest>(&*decoded)) {
          protocol::AllocReply reply;
          std::promise<Status> decided;
          auto future = decided.get_future();
          core_.RequestAlloc(alloc->container_id, alloc->pid, alloc->size,
                             [&decided](const Status& s) { decided.set_value(s); });
          reply.granted = future.get().ok();
          (void)ipc::WriteFrame(
              conn->get(), protocol::EncodePayload(protocol::json_codec(),
                                                   protocol::Message(reply)));
        } else if (auto* abort = std::get_if<protocol::AllocAbort>(&*decoded)) {
          (void)core_.AbortAlloc(abort->container_id, abort->pid, abort->size);
        }
      }
    });
  }

  ~TcpScheduler() {
    client_.Reset();  // unblocks the server's read with EOF
    if (server_.joinable()) server_.join();
  }

  static SchedulerOptions MakeOptions() {
    SchedulerOptions options;
    options.capacity = 5 * kGiB;
    return options;
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  SchedulerCore& core() { return core_; }
  ipc::Fd client_;

 private:
  SchedulerCore core_;
  std::uint16_t port_ = 0;
  std::thread server_;
};

void BM_Transport_tcp_loopback(benchmark::State& state) {
  static TcpScheduler scheduler;
  static bool connected = [] {
    auto fd = ipc::TcpConnect(scheduler.port());
    if (!fd.ok()) return false;
    scheduler.client_ = std::move(*fd);
    return true;
  }();
  if (!connected) {
    state.SkipWithError("tcp connect failed");
    return;
  }
  const std::string request =
      protocol::EncodePayload(protocol::json_codec(), AllocMessage());
  protocol::AllocAbort abort;
  abort.container_id = "bench";
  abort.pid = 1;
  abort.size = 1 * kMiB;
  const std::string rollback = protocol::EncodePayload(
      protocol::json_codec(), protocol::Message(abort));

  for (auto _ : state) {
    if (!ipc::WriteFrame(scheduler.client_.get(), request).ok()) {
      state.SkipWithError("tcp write failed");
      return;
    }
    auto reply = ipc::ReadFrame(scheduler.client_.get());
    if (!reply.ok() || !protocol::DecodePayload(*reply).ok()) {
      state.SkipWithError("tcp read failed");
      return;
    }
    state.PauseTiming();
    (void)ipc::WriteFrame(scheduler.client_.get(), rollback);
    while (scheduler.core().StatsFor("bench")->used > 66 * kMiB) {
      std::this_thread::yield();
    }
    state.ResumeTiming();
  }
}

BENCHMARK(BM_Transport_direct)->Iterations(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Transport_unix_socket)->Iterations(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Transport_tcp_loopback)->Iterations(2000)->Unit(benchmark::kMicrosecond);

// --- Wire-encoding sweep: JSON vs binary payloads ---------------------------
//
// Same shared reactor, same sockets — only the payload encoding changes.
// A scheduler-shaped echo decodes each alloc_request (sniffing the
// encoding, as the real daemon does) and answers an AllocReply in the
// request's own encoding; clients keep a 16-deep pipeline per connection so
// the measurement is throughput-bound on encode/decode cost, not on
// ping-pong latency. Results land in BENCH_wire.json.

struct WireSample {
  std::string encoding;
  int channels = 0;
  std::size_t messages = 0;
  std::size_t request_bytes = 0;  // payload size of one encoded request
  double seconds = 0.0;
  double msgs_per_sec = 0.0;
};

/// Throughput of `channels` pipelined clients speaking `codec` against a
/// decode-and-answer echo server.
WireSample MeasureWire(const std::string& dir, const protocol::Codec& codec,
                       int channels, int requests_per_client) {
  ipc::MessageServer server;
  if (!server.Start().ok()) std::abort();
  std::vector<std::string> paths;
  for (int c = 0; c < channels; ++c) {
    paths.push_back(dir + "/wire-" + std::string(codec.name()) + "-" +
                    std::to_string(c) + ".sock");
    auto id = server.AddListener(
        paths.back(), [&server](ipc::ListenerId, ipc::ConnectionId conn,
                                std::string_view payload) {
          // The daemon's shape: sniff the encoding, decode, answer in kind.
          std::optional<protocol::ReqId> req_id;
          auto decoded = protocol::DecodePayload(payload, req_id);
          if (!decoded.ok()) return;
          protocol::AllocReply reply;
          reply.granted = true;
          thread_local std::string scratch;
          protocol::DetectCodec(payload).Encode(protocol::Message(reply),
                                                req_id, scratch);
          (void)server.SendBytes(conn, scratch);
        });
    if (!id.ok()) std::abort();
  }

  WireSample sample;
  sample.encoding = std::string(codec.name());
  sample.channels = channels;
  sample.request_bytes =
      protocol::EncodePayload(codec, AllocMessage(), /*req_id=*/1).size();

  constexpr int kWindow = 16;
  std::vector<std::thread> clients;
  clients.reserve(paths.size());
  std::atomic<std::size_t> completed{0};
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < paths.size(); ++c) {
    clients.emplace_back([&, c] {
      auto client = ipc::MessageClient::ConnectUnix(paths[c]);
      if (!client.ok()) return;
      std::string scratch;
      protocol::ReqId next_id = 1;
      int sent = 0;
      int received = 0;
      const protocol::Message request = AllocMessage();
      while (received < requests_per_client) {
        while (sent < requests_per_client && sent - received < kWindow) {
          codec.Encode(request, next_id++, scratch);
          if (!(*client)->SendFrame(scratch).ok()) return;
          ++sent;
        }
        auto raw = (*client)->RecvFrame();
        if (!raw.ok() || !protocol::DecodePayload(*raw).ok()) return;
        ++received;
        ++completed;
      }
    });
  }
  for (auto& thread : clients) thread.join();
  const auto stop = std::chrono::steady_clock::now();
  server.Stop();

  sample.messages = completed.load();
  sample.seconds = std::chrono::duration<double>(stop - start).count();
  sample.msgs_per_sec =
      sample.seconds > 0.0
          ? static_cast<double>(sample.messages) / sample.seconds
          : 0.0;
  return sample;
}

void RunWireSweep() {
  const std::string dir = MakeBenchDir("abl-wire");
  constexpr int kRequestsPerClient = 2000;
  std::vector<WireSample> samples;
  for (const int channels : {1, 8, 64}) {
    samples.push_back(MeasureWire(dir, protocol::json_codec(), channels,
                                  kRequestsPerClient));
    samples.push_back(MeasureWire(dir, protocol::binary_codec(), channels,
                                  kRequestsPerClient));
  }

  json::Json report;
  report["benchmark"] = "ablation_transport_wire_sweep";
  report["requests_per_client"] = kRequestsPerClient;
  report["pipeline_window"] = 16;
  json::Array rows;
  std::printf("\nwire-encoding sweep (pipelined alloc_request echo):\n");
  std::printf("%-10s %9s %9s %12s %10s %14s\n", "encoding", "channels",
              "messages", "req_bytes", "seconds", "msgs_per_sec");
  for (const auto& sample : samples) {
    json::Json row;
    row["encoding"] = sample.encoding;
    row["channels"] = sample.channels;
    row["messages"] = static_cast<std::int64_t>(sample.messages);
    row["request_bytes"] = static_cast<std::int64_t>(sample.request_bytes);
    row["seconds"] = sample.seconds;
    row["msgs_per_sec"] = sample.msgs_per_sec;
    rows.push_back(std::move(row));
    std::printf("%-10s %9d %9zu %12zu %10.3f %14.0f\n",
                sample.encoding.c_str(), sample.channels, sample.messages,
                sample.request_bytes, sample.seconds, sample.msgs_per_sec);
  }
  report["wire_sweep"] = std::move(rows);

  std::ofstream out("BENCH_wire.json");
  out << report.Dump(2) << "\n";
  std::printf("wrote BENCH_wire.json\n");
}

}  // namespace
}  // namespace convgpu::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  convgpu::bench::RunWireSweep();
  return 0;
}
