// Stress test of the shared-reactor architecture: many container channels
// on one SchedulerServer must cost exactly one reactor thread, and the
// deferred-grant (suspension) machinery must keep working when dozens of
// containers suspend at once.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "convgpu/scheduler_link.h"
#include "convgpu/scheduler_server.h"
#include "tests/test_util.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;
using convgpu::testing::HelloOptions;
using convgpu::testing::TempDir;

constexpr int kContainers = 64;

// Sanitizer runtimes spawn background threads of their own, so absolute
// thread counts only hold in plain builds; the architectural assertion —
// container registrations add ZERO threads — holds everywhere.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CONVGPU_UNDER_SANITIZER 1
#endif
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CONVGPU_UNDER_SANITIZER 1
#endif
#ifndef CONVGPU_UNDER_SANITIZER
#define CONVGPU_UNDER_SANITIZER 0
#endif

/// Live thread count of this process (Linux: one /proc/self/task entry per
/// thread). The whole point of the shared reactor is that this number does
/// not scale with the container count.
std::size_t CountThreads() {
  std::size_t count = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::end(it); it.increment(ec)) {
    ++count;
  }
  return count;
}

/// Waits (bounded) for the process thread count to settle at `expected` —
/// exiting threads disappear from /proc a moment after join().
bool ThreadsSettleAt(std::size_t expected) {
  for (int i = 0; i < 500; ++i) {
    if (CountThreads() == expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return CountThreads() == expected;
}

class SharedReactorTest : public ::testing::Test {
 protected:
  protocol::RegisterReply Register(const std::string& id, Bytes limit) {
    auto client = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
    EXPECT_TRUE(client.ok());
    auto reply = protocol::Expect<protocol::RegisterReply>(
        protocol::Call(**client, [&] {
          protocol::RegisterContainer request;
          request.container_id = id;
          request.memory_limit = limit;
          return protocol::Message(request);
        }()));
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return *reply;
  }

  TempDir dir_;
  std::unique_ptr<SchedulerServer> server_;
};

TEST_F(SharedReactorTest, SixtyFourChannelsOneReactorThread) {
  const std::size_t baseline = CountThreads();

  SchedulerServerOptions options;
  options.base_dir = dir_.path();
  options.scheduler.capacity = 64_GiB;
  options.scheduler.first_alloc_overhead = 0;
  server_ = std::make_unique<SchedulerServer>(std::move(options));
  ASSERT_TRUE(server_->Start().ok());
  if (!CONVGPU_UNDER_SANITIZER) {
    ASSERT_TRUE(ThreadsSettleAt(baseline + 1));
  }
  const std::size_t post_start = CountThreads();

  // 64 registrations: 64 more listeners, zero more threads.
  for (int c = 0; c < kContainers; ++c) {
    ASSERT_TRUE(Register("c" + std::to_string(c), 1_GiB).ok);
  }
  EXPECT_EQ(server_->listener_count(), 1u + kContainers);
  EXPECT_EQ(CountThreads(), post_start);

  // Interleaved traffic on every channel: alloc → commit → mem_get_info →
  // free → process_exit, several rounds each, all concurrently. (The client
  // threads are the test's, not the daemon's — the daemon side stays at one
  // reactor thread throughout, checked after they join.)
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kContainers);
  for (int c = 0; c < kContainers; ++c) {
    clients.emplace_back([&, c] {
      const std::string id = "c" + std::to_string(c);
      const Pid pid = 1000 + c;
      auto link = SocketSchedulerLink::Connect(
          server_->container_socket_path(id), HelloOptions(id, pid));
      if (!link.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < 5; ++round) {
        protocol::AllocRequest request;
        request.container_id = id;
        request.pid = pid;
        request.size = 64_MiB;
        auto granted = protocol::Expect<protocol::AllocReply>(
            (*link)->Call(protocol::Message(request)));
        if (!granted.ok() || !granted->granted) {
          ++failures;
          return;
        }
        protocol::AllocCommit commit;
        commit.container_id = id;
        commit.pid = pid;
        commit.address = 0x1000u + static_cast<std::uint64_t>(round);
        commit.size = 64_MiB;
        if (!(*link)->Notify(protocol::Message(commit)).ok()) ++failures;

        protocol::MemGetInfoRequest info_request;
        info_request.container_id = id;
        info_request.pid = pid;
        auto info = protocol::Expect<protocol::MemInfoReply>(
            (*link)->Call(protocol::Message(info_request)));
        if (!info.ok() || info->total != 1_GiB) ++failures;

        protocol::FreeNotify free;
        free.container_id = id;
        free.pid = pid;
        free.address = commit.address;
        if (!(*link)->Notify(protocol::Message(free)).ok()) ++failures;
      }
      protocol::ProcessExit exit;
      exit.container_id = id;
      exit.pid = pid;
      if (!(*link)->Notify(protocol::Message(exit)).ok()) ++failures;
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // All client threads joined: the daemon still runs exactly one reactor
  // thread for all 65 sockets.
  EXPECT_TRUE(ThreadsSettleAt(post_start))
      << "thread count " << CountThreads() << ", expected " << post_start;

  // Close half the containers; listeners go away, thread count unchanged.
  for (int c = 0; c < kContainers / 2; ++c) {
    auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
    ASSERT_TRUE(main.ok());
    protocol::ContainerClose close;
    close.container_id = "c" + std::to_string(c);
    ASSERT_TRUE(protocol::Notify(**main, protocol::Message(close)).ok());
  }
  for (int i = 0; i < 500 && server_->listener_count() != 1u + kContainers / 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->listener_count(), 1u + kContainers / 2);
  EXPECT_EQ(CountThreads(), post_start);

  server_->Stop();
  if (!CONVGPU_UNDER_SANITIZER) {
    EXPECT_TRUE(ThreadsSettleAt(baseline));
  }
}

TEST_F(SharedReactorTest, DeferredGrantsFireAcrossManySuspendedChannels) {
  // One hog owns the whole GPU; 63 other containers all suspend on their
  // first allocation. When the hog's container closes, every suspended
  // request must be granted — 63 deferred replies delivered through the one
  // shared reactor.
  SchedulerServerOptions options;
  options.base_dir = dir_.path();
  options.scheduler.capacity = 1_GiB;
  options.scheduler.first_alloc_overhead = 0;
  server_ = std::make_unique<SchedulerServer>(std::move(options));
  ASSERT_TRUE(server_->Start().ok());

  ASSERT_TRUE(Register("hog", 1_GiB).ok);
  auto hog_link =
      SocketSchedulerLink::Connect(server_->container_socket_path("hog"),
                                   HelloOptions("hog", 1));
  ASSERT_TRUE(hog_link.ok());
  {
    protocol::AllocRequest request;
    request.container_id = "hog";
    request.pid = 1;
    request.size = 1_GiB;
    auto granted = protocol::Expect<protocol::AllocReply>(
        (*hog_link)->Call(protocol::Message(request)));
    ASSERT_TRUE(granted.ok());
    ASSERT_TRUE(granted->granted);
    protocol::AllocCommit commit;
    commit.container_id = "hog";
    commit.pid = 1;
    commit.address = 0xB16;
    commit.size = 1_GiB;
    ASSERT_TRUE((*hog_link)->Notify(protocol::Message(commit)).ok());
  }

  constexpr int kWaiters = kContainers - 1;  // 63 × 16 MiB ≤ 1 GiB
  std::vector<std::unique_ptr<SocketSchedulerLink>> links;
  for (int c = 0; c < kWaiters; ++c) {
    ASSERT_TRUE(Register("w" + std::to_string(c), 16_MiB).ok);
    const std::string id = "w" + std::to_string(c);
    auto link = SocketSchedulerLink::Connect(server_->container_socket_path(id),
                                             HelloOptions(id, 100 + c));
    ASSERT_TRUE(link.ok());
    links.push_back(std::move(*link));
  }

  std::vector<std::future<bool>> pending;
  pending.reserve(kWaiters);
  for (int c = 0; c < kWaiters; ++c) {
    pending.push_back(std::async(std::launch::async, [&, c] {
      protocol::AllocRequest request;
      request.container_id = "w" + std::to_string(c);
      request.pid = 100 + c;
      request.size = 16_MiB;
      auto reply = protocol::Expect<protocol::AllocReply>(
          links[static_cast<std::size_t>(c)]->Call(
              protocol::Message(request)));
      return reply.ok() && reply->granted;
    }));
  }

  // All genuinely suspended: none resolves while the hog holds everything.
  EXPECT_EQ(pending.front().wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout);

  auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(main.ok());
  protocol::ContainerClose close;
  close.container_id = "hog";
  ASSERT_TRUE(protocol::Notify(**main, protocol::Message(close)).ok());

  int granted = 0;
  for (auto& future : pending) {
    if (future.get()) ++granted;
  }
  EXPECT_EQ(granted, kWaiters);
}

}  // namespace
}  // namespace convgpu
