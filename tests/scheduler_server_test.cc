// End-to-end tests of the scheduler daemon over real UNIX sockets.
#include "convgpu/scheduler_server.h"

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "convgpu/codec.h"
#include "convgpu/nvdocker.h"
#include "convgpu/scheduler_link.h"
#include "ipc/framing.h"
#include "ipc/socket.h"
#include "tests/test_util.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;
using convgpu::testing::TempDir;

constexpr Bytes kOverhead = 66_MiB;

class SchedulerServerTest : public ::testing::Test {
 protected:
  SchedulerServerTest() {
    SchedulerServerOptions options;
    options.base_dir = dir_.path();
    options.scheduler.capacity = 5_GiB;
    options.scheduler.first_alloc_overhead = kOverhead;
    server_ = std::make_unique<SchedulerServer>(std::move(options));
    EXPECT_TRUE(server_->Start().ok());
  }

  protocol::RegisterReply Register(const std::string& id, Bytes limit) {
    auto client = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
    EXPECT_TRUE(client.ok());
    protocol::RegisterContainer request;
    request.container_id = id;
    request.memory_limit = limit;
    auto reply = protocol::Expect<protocol::RegisterReply>(
        protocol::Call(**client, protocol::Message(request)));
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? *reply : protocol::RegisterReply{};
  }

  TempDir dir_;
  std::unique_ptr<SchedulerServer> server_;
};

TEST_F(SchedulerServerTest, PingPongOnMainSocket) {
  auto client = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(client.ok());
  auto reply = protocol::Call(**client, protocol::Message(protocol::Ping{}));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(std::holds_alternative<protocol::Pong>(*reply));
}

TEST_F(SchedulerServerTest, RegisterCreatesContainerSocket) {
  const auto reply = Register("c1", 512_MiB);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_FALSE(reply.socket_dir.empty());
  EXPECT_FALSE(reply.socket_path.empty());
  // The per-container socket is connectable.
  auto link = SocketSchedulerLink::Connect(reply.socket_path);
  EXPECT_TRUE(link.ok());
  EXPECT_EQ(server_->container_socket_path("c1"), reply.socket_path);
}

TEST_F(SchedulerServerTest, RegisterDuplicateFails) {
  ASSERT_TRUE(Register("c1", 512_MiB).ok);
  const auto again = Register("c1", 512_MiB);
  EXPECT_FALSE(again.ok);
  EXPECT_NE(again.error.find("ALREADY_EXISTS"), std::string::npos);
}

TEST_F(SchedulerServerTest, AllocLifecycleOverSocket) {
  const auto reply = Register("c1", 512_MiB);
  ASSERT_TRUE(reply.ok);
  auto link = SocketSchedulerLink::Connect(reply.socket_path);
  ASSERT_TRUE(link.ok());

  protocol::AllocRequest request;
  request.container_id = "c1";
  request.pid = 42;
  request.size = 100_MiB;
  request.api = "cudaMalloc";
  auto response = (*link)->Call(protocol::Message(request));
  ASSERT_TRUE(response.ok());
  const auto* alloc_reply = std::get_if<protocol::AllocReply>(&*response);
  ASSERT_NE(alloc_reply, nullptr);
  EXPECT_TRUE(alloc_reply->granted);

  protocol::AllocCommit commit;
  commit.container_id = "c1";
  commit.pid = 42;
  commit.address = 0xF00D;
  commit.size = 100_MiB;
  ASSERT_TRUE((*link)->Notify(protocol::Message(commit)).ok());

  // One-way commits race the next query; poll the core until it lands.
  for (int i = 0; i < 200; ++i) {
    if (server_->core().StatsFor("c1")->used == 100_MiB + kOverhead) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->core().StatsFor("c1")->used, 100_MiB + kOverhead);

  protocol::MemGetInfoRequest info_request;
  info_request.container_id = "c1";
  info_request.pid = 42;
  auto info_raw = (*link)->Call(protocol::Message(info_request));
  ASSERT_TRUE(info_raw.ok());
  const auto* info = std::get_if<protocol::MemInfoReply>(&*info_raw);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->total, 512_MiB);
  EXPECT_EQ(info->free, 412_MiB);
}

TEST_F(SchedulerServerTest, RejectionDeliveredWithError) {
  const auto reply = Register("c1", 128_MiB);
  ASSERT_TRUE(reply.ok);
  auto link = SocketSchedulerLink::Connect(reply.socket_path);
  ASSERT_TRUE(link.ok());
  protocol::AllocRequest request;
  request.container_id = "c1";
  request.pid = 1;
  request.size = 1_GiB;
  auto response = (*link)->Call(protocol::Message(request));
  ASSERT_TRUE(response.ok());
  const auto* alloc_reply = std::get_if<protocol::AllocReply>(&*response);
  ASSERT_NE(alloc_reply, nullptr);
  EXPECT_FALSE(alloc_reply->granted);
  EXPECT_FALSE(alloc_reply->error.empty());
}

TEST_F(SchedulerServerTest, SuspendedRequestBlocksUntilClose) {
  ASSERT_TRUE(Register("hog", 4_GiB).ok);
  auto hog_link =
      SocketSchedulerLink::Connect(server_->container_socket_path("hog"));
  ASSERT_TRUE(hog_link.ok());
  protocol::AllocRequest hog_request;
  hog_request.container_id = "hog";
  hog_request.pid = 1;
  hog_request.size = 4_GiB;
  auto hog_reply = (*hog_link)->Call(protocol::Message(hog_request));
  ASSERT_TRUE(hog_reply.ok());
  ASSERT_TRUE(std::get<protocol::AllocReply>(*hog_reply).granted);
  protocol::AllocCommit commit;
  commit.container_id = "hog";
  commit.pid = 1;
  commit.address = 0xB16;
  commit.size = 4_GiB;
  ASSERT_TRUE((*hog_link)->Notify(protocol::Message(commit)).ok());

  ASSERT_TRUE(Register("late", 2_GiB).ok);
  auto late_link =
      SocketSchedulerLink::Connect(server_->container_socket_path("late"));
  ASSERT_TRUE(late_link.ok());

  // The blocking Call happens on a separate thread — this is exactly how a
  // user program experiences suspension.
  auto pending = std::async(std::launch::async, [&] {
    protocol::AllocRequest request;
    request.container_id = "late";
    request.pid = 2;
    request.size = 2_GiB;
    return (*late_link)->Call(protocol::Message(request));
  });
  EXPECT_EQ(pending.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout);  // genuinely suspended

  // The hog's container closes (what the plugin would send).
  auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(main.ok());
  protocol::ContainerClose close;
  close.container_id = "hog";
  ASSERT_TRUE(protocol::Notify(**main, protocol::Message(close)).ok());

  auto resumed = pending.get();  // must now complete
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(std::get<protocol::AllocReply>(*resumed).granted);
}

TEST_F(SchedulerServerTest, CrashedClientReclaimedOnDisconnect) {
  ASSERT_TRUE(Register("c1", 512_MiB).ok);
  {
    auto link = SocketSchedulerLink::Connect(server_->container_socket_path("c1"));
    ASSERT_TRUE(link.ok());
    protocol::AllocRequest request;
    request.container_id = "c1";
    request.pid = 77;
    request.size = 100_MiB;
    auto response = (*link)->Call(protocol::Message(request));
    ASSERT_TRUE(response.ok());
    protocol::AllocCommit commit;
    commit.container_id = "c1";
    commit.pid = 77;
    commit.address = 0x1;
    commit.size = 100_MiB;
    ASSERT_TRUE((*link)->Notify(protocol::Message(commit)).ok());
  }  // socket dropped without process_exit — a SIGKILLed program

  for (int i = 0; i < 500; ++i) {
    if (server_->core().StatsFor("c1")->used == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->core().StatsFor("c1")->used, 0);
}

TEST_F(SchedulerServerTest, StatsQueryOverSocket) {
  ASSERT_TRUE(Register("c1", 512_MiB).ok);
  auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(main.ok());
  auto stats = protocol::Expect<protocol::StatsReply>(
      protocol::Call(**main, protocol::Message(protocol::StatsRequest{})));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->capacity, 5_GiB);
  ASSERT_EQ(stats->containers.size(), 1u);
  EXPECT_EQ(stats->containers[0].container_id, "c1");
  EXPECT_EQ(stats->containers[0].limit, 512_MiB);
}

TEST(SchedulerServerBackpressureTest, StatsSurfaceKickedConnections) {
  // A wrapper that stops reading its per-container socket gets kicked by the
  // reactor's write-queue cap, and the operator can see it happened: the
  // kick shows up in stats_reply, attributed to the container.
  TempDir dir;
  SchedulerServerOptions options;
  options.base_dir = dir.path();
  options.scheduler.capacity = 5_GiB;
  options.reactor.max_queued_bytes_per_connection = 16 * 1024;
  SchedulerServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  {
    auto main = ipc::MessageClient::ConnectUnix(server.main_socket_path());
    ASSERT_TRUE(main.ok());
    protocol::RegisterContainer request;
    request.container_id = "c1";
    request.memory_limit = 512_MiB;
    auto reply = protocol::Expect<protocol::RegisterReply>(
        protocol::Call(**main, protocol::Message(request)));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->ok) << reply->error;
  }

  // The slow reader: pour mem_get_info requests down the raw fd and never
  // consume a reply. Kernel socket buffers absorb a few hundred KiB of
  // replies; the 16 KiB reactor cap bounds the rest and kicks us — at which
  // point our writes start failing (EPIPE, not SIGPIPE).
  auto fd = ipc::UnixConnect(server.container_socket_path("c1"));
  ASSERT_TRUE(fd.ok());
  protocol::MemGetInfoRequest info;
  info.container_id = "c1";
  info.pid = 1;
  const std::string request_bytes =
      protocol::EncodePayload(protocol::json_codec(), protocol::Message(info));
  Status write = Status::Ok();
  for (int i = 0; i < 20000 && write.ok(); ++i) {
    write = ipc::WriteFrame(fd->get(), request_bytes);
  }

  auto stats_client = ipc::MessageClient::ConnectUnix(server.main_socket_path());
  ASSERT_TRUE(stats_client.ok());
  protocol::StatsReply stats;
  ASSERT_TRUE(convgpu::testing::WaitUntil([&] {
    auto reply = protocol::Expect<protocol::StatsReply>(protocol::Call(
        **stats_client, protocol::Message(protocol::StatsRequest{})));
    if (!reply.ok()) return false;
    stats = *reply;
    return stats.kicked_connections >= 1;
  })) << "no kick ever surfaced in stats";
  ASSERT_EQ(stats.containers.size(), 1u);
  EXPECT_EQ(stats.containers[0].container_id, "c1");
  EXPECT_GE(stats.containers[0].kicked_connections, 1u);
  EXPECT_GE(stats.kicked_connections, stats.containers[0].kicked_connections);
}

TEST_F(SchedulerServerTest, NvDockerRegistersOverSocket) {
  containersim::Engine engine;
  engine.images().Put(
      containersim::ImageRegistry::CudaImage("cuda-app", "8.0"));
  NvDocker::Options options;
  options.engine = &engine;
  options.scheduler_socket = server_->main_socket_path();
  NvDocker nvdocker(options);

  RunRequest request;
  request.image = "cuda-app";
  request.name = "sockjob";
  request.nvidia_memory = "256MiB";
  auto prepared = nvdocker.Prepare(std::move(request));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->second.socket_path,
            server_->container_socket_path("sockjob"));
  EXPECT_EQ(prepared->first.env.at("CONVGPU_SOCKET"),
            prepared->second.socket_path);
  EXPECT_EQ(prepared->first.env.at("LD_PRELOAD"),
            std::string(kContainerConvgpuDir) + "/libgpushare.so");
  EXPECT_EQ(server_->core().StatsFor("sockjob")->limit, 256_MiB);
}

}  // namespace
}  // namespace convgpu
