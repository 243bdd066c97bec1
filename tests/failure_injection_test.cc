// Failure injection: malformed input, vanished peers, mid-flight shutdowns.
// The middleware must degrade predictably — wrong inputs get errors, dead
// peers get reclaimed, and nothing corrupts the ledger.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "convgpu/codec.h"
#include "convgpu/convgpu.h"
#include "ipc/socket.h"
#include "tests/test_util.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;
using convgpu::testing::AnswerHandshake;
using convgpu::testing::HelloFrame;
using convgpu::testing::HelloOptions;
using convgpu::testing::TempDir;

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() {
    SchedulerServerOptions options;
    options.base_dir = dir_.path();
    options.scheduler.capacity = 5_GiB;
    server_ = std::make_unique<SchedulerServer>(std::move(options));
    EXPECT_TRUE(server_->Start().ok());
  }

  TempDir dir_;
  std::unique_ptr<SchedulerServer> server_;
};

/// A ping over `client` must come back as a pong.
void ExpectPong(ipc::MessageClient& client) {
  auto reply = protocol::Expect<protocol::Pong>(
      protocol::Call(client, protocol::Message(protocol::Ping{})));
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
}

/// Sends every kind of malformed payload down one connection to `path`,
/// then pings on that same connection and on a fresh one: the daemon must
/// skip each bad frame and keep both the connection and itself alive. On a
/// container socket (`container_id` set) each connection says hello first.
void ExpectGarbageSkipped(const std::string& path,
                          const std::string& container_id = "") {
  auto connect = [&] {
    auto client = ipc::MessageClient::ConnectUnix(path);
    if (client.ok() && !container_id.empty()) {
      EXPECT_TRUE((*client)->SendFrame(HelloFrame(container_id, 1)).ok());
      EXPECT_TRUE((*client)->RecvFrame().ok());  // the hello reply
    }
    return client;
  };
  auto client = connect();
  ASSERT_TRUE(client.ok());
  const std::string garbage[] = {
      "this is not json{{{",          // valid frame, invalid JSON
      R"({"type":"flying-saucer"})",  // valid JSON, not a protocol message
      R"({"type":"alloc_request"})",  // valid type, missing fields
      // Binary magic and the alloc_request tag, then nothing: a truncated
      // binary payload.
      std::string{static_cast<char>(protocol::kBinaryMagic), '\x02'},
  };
  for (const std::string& payload : garbage) {
    ASSERT_TRUE((*client)->SendFrame(payload).ok());
  }
  ExpectPong(**client);

  auto fresh = connect();
  ASSERT_TRUE(fresh.ok());
  ExpectPong(**fresh);
}

TEST_F(FailureInjectionTest, GarbageFramesDoNotKillTheDaemon) {
  ExpectGarbageSkipped(server_->main_socket_path());

  // The same sequence on a per-container socket.
  auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(main.ok());
  protocol::RegisterContainer reg;
  reg.container_id = "c1";
  reg.memory_limit = 512_MiB;
  auto registered = protocol::Expect<protocol::RegisterReply>(
      protocol::Call(**main, protocol::Message(reg)));
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  ASSERT_TRUE(registered->ok) << registered->error;
  ExpectGarbageSkipped(registered->socket_path, "c1");
  EXPECT_TRUE(server_->core().CheckInvariants().ok());
}

TEST_F(FailureInjectionTest, RawByteNoiseDropsOnlyThatConnection) {
  auto fd = ipc::UnixConnect(server_->main_socket_path());
  ASSERT_TRUE(fd.ok());
  // A "length" of 0xFFFFFFFF — over the frame cap; the server must drop us.
  const unsigned char evil[8] = {0xFF, 0xFF, 0xFF, 0xFF, 'b', 'o', 'o', 'm'};
  ASSERT_TRUE(ipc::WriteExact(fd->get(), evil, sizeof(evil)).ok());

  auto client = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(client.ok());
  ExpectPong(**client);
}

TEST_F(FailureInjectionTest, SchedulerUnreachableMapsToDedicatedError) {
  // Wrapper pointed at a dead socket: alloc APIs fail with the middleware
  // error, not a crash or a hang.
  auto link = SocketSchedulerLink::Connect(dir_.path() + "/nonexistent.sock",
                                          HelloOptions("c1", 1));
  EXPECT_FALSE(link.ok());
  EXPECT_EQ(link.status().code(), StatusCode::kUnavailable);
}

TEST_F(FailureInjectionTest, SchedulerStopWhileClientConnected) {
  ASSERT_TRUE(server_->core().RegisterContainer("c1", 512_MiB).ok());
  auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(main.ok());
  server_->Stop();
  // A call against the stopped daemon errors out rather than hanging.
  auto reply = protocol::Call(**main, protocol::Message(protocol::Ping{}));
  EXPECT_FALSE(reply.ok());
}

TEST_F(FailureInjectionTest, CloseForUnknownContainerIsHarmless) {
  auto client = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(client.ok());
  protocol::ContainerClose close;
  close.container_id = "never-existed";
  ASSERT_TRUE(protocol::Notify(**client, protocol::Message(close)).ok());
  // Daemon still alive and consistent.
  ExpectPong(**client);
  EXPECT_TRUE(server_->core().CheckInvariants().ok());
}

TEST_F(FailureInjectionTest, StrayNotificationsRejectedConsistently) {
  SchedulerCore& core = server_->core();
  ASSERT_TRUE(core.RegisterContainer("c1", 512_MiB).ok());
  // Commit without a reserve.
  EXPECT_FALSE(core.CommitAlloc("c1", 1, 0xBAD, 64_MiB).ok());
  // Free of an address nobody allocated.
  EXPECT_FALSE(core.FreeAlloc("c1", 1, 0xBAD).ok());
  // Abort without a reserve.
  EXPECT_FALSE(core.AbortAlloc("c1", 1, 64_MiB).ok());
  // Process exit of an unknown pid is a no-op, not an error.
  EXPECT_TRUE(core.ProcessExit("c1", 777).ok());
  EXPECT_TRUE(core.CheckInvariants().ok());
}

TEST_F(FailureInjectionTest, DoubleCloseAndUseAfterClose) {
  SchedulerCore& core = server_->core();
  ASSERT_TRUE(core.RegisterContainer("c1", 512_MiB).ok());
  ASSERT_TRUE(core.ContainerClose("c1").ok());
  EXPECT_EQ(core.ContainerClose("c1").code(), StatusCode::kNotFound);
  bool called = false;
  Status seen;
  core.RequestAlloc("c1", 1, 1_MiB, [&](const Status& s) {
    called = true;
    seen = s;
  });
  EXPECT_TRUE(called);
  EXPECT_EQ(seen.code(), StatusCode::kNotFound);
}

TEST_F(FailureInjectionTest, ReRegistrationAfterCloseIsAFreshContainer) {
  SchedulerCore& core = server_->core();
  ASSERT_TRUE(core.RegisterContainer("recycled", 1_GiB).ok());
  bool granted = false;
  core.RequestAlloc("recycled", 1, 512_MiB,
                    [&](const Status& s) { granted = s.ok(); });
  ASSERT_TRUE(granted);
  ASSERT_TRUE(core.CommitAlloc("recycled", 1, 0x1, 512_MiB).ok());
  ASSERT_TRUE(core.ContainerClose("recycled").ok());

  ASSERT_TRUE(core.RegisterContainer("recycled", 2_GiB).ok());
  auto stats = core.StatsFor("recycled");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->limit, 2_GiB);
  EXPECT_EQ(stats->used, 0);  // no state leaked from the first life
}

TEST_F(FailureInjectionTest, HalfOpenClientSuspendedForeverIsCancelable) {
  // A client suspends, then its container is closed by the plugin while
  // the client still waits: the client gets an error reply, not silence.
  ASSERT_TRUE(server_->core().RegisterContainer("hog", 4_GiB).ok());
  bool hog_granted = false;
  server_->core().RequestAlloc("hog", 1, 4_GiB,
                               [&](const Status& s) { hog_granted = s.ok(); });
  ASSERT_TRUE(hog_granted);
  ASSERT_TRUE(server_->core().CommitAlloc("hog", 1, 0xB, 4_GiB).ok());

  // Register "victim" over the real socket path so it owns a socket.
  auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(main.ok());
  protocol::RegisterContainer reg;
  reg.container_id = "victim";
  reg.memory_limit = 2_GiB;
  auto reply = protocol::Expect<protocol::RegisterReply>(
      protocol::Call(**main, protocol::Message(reg)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok);

  auto victim = SocketSchedulerLink::Connect(reply->socket_path,
                                             HelloOptions("victim", 9));
  ASSERT_TRUE(victim.ok());
  std::thread waiter([&] {
    protocol::AllocRequest request;
    request.container_id = "victim";
    request.pid = 9;
    request.size = 2_GiB;
    auto result = (*victim)->Call(protocol::Message(request));
    // Either an explicit denial or a connection teardown — never a hang.
    if (result.ok()) {
      const auto* alloc = std::get_if<protocol::AllocReply>(&*result);
      ASSERT_NE(alloc, nullptr);
      EXPECT_FALSE(alloc->granted);
    }
  });
  // Let the request reach the pending queue, then close the container.
  for (int i = 0; i < 500 && server_->core().pending_request_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  protocol::ContainerClose close;
  close.container_id = "victim";
  ASSERT_TRUE(protocol::Notify(**main, protocol::Message(close)).ok());
  waiter.join();
  EXPECT_EQ(server_->core().pending_request_count(), 0u);
}

TEST_F(FailureInjectionTest, DaemonDeathFailsAllOutstandingCallsWithUnavailable) {
  // Eight async calls parked on one pipelined link when the daemon dies:
  // every future must complete with kUnavailable — no hang, no abandoned
  // promise (ASan would flag a leaked pending slot), no lost reply.
  // Limit chosen so limit + first-alloc overhead consumes the whole GPU.
  ASSERT_TRUE(server_->core().RegisterContainer("hog", 5_GiB - 66_MiB).ok());
  bool hog_granted = false;
  server_->core().RequestAlloc("hog", 1, 5_GiB - 66_MiB,
                               [&](const Status& s) { hog_granted = s.ok(); });
  ASSERT_TRUE(hog_granted);
  ASSERT_TRUE(
      server_->core().CommitAlloc("hog", 1, 0xB, 5_GiB - 66_MiB).ok());

  auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(main.ok());
  protocol::RegisterContainer reg;
  reg.container_id = "victim";
  reg.memory_limit = 4_GiB;
  auto reply = protocol::Expect<protocol::RegisterReply>(
      protocol::Call(**main, protocol::Message(reg), /*req_id=*/1));
  ASSERT_TRUE(reply.ok() && reply->ok);

  auto link = SocketSchedulerLink::Connect(reply->socket_path,
                                          HelloOptions("victim", 100));
  ASSERT_TRUE(link.ok());

  constexpr int kOutstanding = 8;
  std::vector<SchedulerLink::ReplyFuture> futures;
  for (int i = 0; i < kOutstanding; ++i) {
    protocol::AllocRequest request;
    request.container_id = "victim";
    request.pid = 100 + i;  // distinct pids, all within the victim's limit
    request.size = 64_MiB;
    request.api = "cudaMalloc";
    futures.push_back((*link)->AsyncCall(protocol::Message(request)));
  }
  for (int i = 0; i < 5000 && server_->core().pending_request_count() <
                                  static_cast<std::size_t>(kOutstanding);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server_->core().pending_request_count(),
            static_cast<std::size_t>(kOutstanding));

  server_->Stop();  // the daemon dies with all eight calls in flight

  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ((*link)->outstanding_calls(), 0u);

  // A link onto a dead daemon fails new calls fast with the sticky status.
  auto late = (*link)->Call(protocol::Message(protocol::Ping{}));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST_F(FailureInjectionTest, ReconnectAfterRestartStartsClean) {
  // The daemon restarts on the same base_dir: a fresh link must work and
  // its id space restarts at 1 (ids scope to a connection, not a process).
  server_->Stop();
  server_.reset();

  SchedulerServerOptions options;
  options.base_dir = dir_.path();
  options.scheduler.capacity = 5_GiB;
  server_ = std::make_unique<SchedulerServer>(std::move(options));
  ASSERT_TRUE(server_->Start().ok());

  auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(main.ok());
  protocol::RegisterContainer reg;
  reg.container_id = "phoenix";
  reg.memory_limit = 1_GiB;
  auto reply = protocol::Expect<protocol::RegisterReply>(
      protocol::Call(**main, protocol::Message(reg), /*req_id=*/1));
  ASSERT_TRUE(reply.ok() && reply->ok);

  auto link = SocketSchedulerLink::Connect(reply->socket_path,
                                          HelloOptions("phoenix", 1));
  ASSERT_TRUE(link.ok());
  protocol::AllocRequest request;
  request.container_id = "phoenix";
  request.pid = 1;
  request.size = 64_MiB;
  auto granted = protocol::Expect<protocol::AllocReply>(
      (*link)->Call(protocol::Message(request)));
  ASSERT_TRUE(granted.ok());
  EXPECT_TRUE(granted->granted);
}

TEST_F(FailureInjectionTest, PeerDisconnectBetweenSendAndReceiveIsTyped) {
  // Regression: a peer that accepts the request and then drops the
  // connection without replying used to surface as a lost reply (the old
  // link returned whatever the next Recv produced). It must be a typed
  // kUnavailable on exactly the in-flight call.
  TempDir dir;
  const std::string path = dir.path() + "/rude.sock";
  ipc::MessageServer rude;
  ASSERT_TRUE(
      rude.Start(path,
                 [&rude](ipc::ConnectionId conn, std::string_view payload) {
                   if (AnswerHandshake(rude, conn, payload)) return;
                   rude.CloseConnection(conn);  // no reply, ever
                 })
          .ok());

  auto link = SocketSchedulerLink::Connect(path, HelloOptions("c1", 1));
  ASSERT_TRUE(link.ok());
  auto result = (*link)->Call(protocol::Message(protocol::Ping{}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*link)->outstanding_calls(), 0u);
  rude.Stop();
}

}  // namespace
}  // namespace convgpu
