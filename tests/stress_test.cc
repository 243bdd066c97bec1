// Concurrency stress: many threads hammering one SchedulerCore through the
// same paths the daemon uses, checking the mutex discipline and accounting
// under contention; plus shape pins for the paper's headline results.
//
// Runs with the LedgerAuditor compiled in (every non-Release build), so
// each state transition under contention is also an invariant check; the
// sanitizer legs of tools/check.sh run these same tests under TSan/ASan.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "convgpu/protocol.h"
#include "convgpu/scheduler_core.h"
#include "convgpu/scheduler_link.h"
#include "convgpu/scheduler_server.h"
#include "ipc/message_server.h"
#include "tests/test_util.h"
#include "workload/des.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;

TEST(SchedulerStressTest, ParallelContainersStayConsistent) {
  SchedulerOptions options;
  options.capacity = 5_GiB;
  options.policy = "BF";
  SchedulerCore core(options);

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 40;
  std::atomic<int> errors{0};

  auto worker = [&](int thread_index) {
    for (int round = 0; round < kRoundsPerThread; ++round) {
      const std::string id =
          "t" + std::to_string(thread_index) + "r" + std::to_string(round);
      const Pid pid = 1000 + thread_index;
      const Bytes size = (64 + 64 * ((thread_index + round) % 6)) * kMiB;
      if (!core.RegisterContainer(id, size).ok()) {
        ++errors;
        continue;
      }
      // Blocking-style allocation: wait for the decision like the socket
      // client does.
      std::promise<Status> decided;
      auto future = decided.get_future();
      core.RequestAlloc(id, pid, size,
                        [&decided](const Status& s) { decided.set_value(s); });
      const Status status = future.get();
      if (status.ok()) {
        if (!core.CommitAlloc(id, pid, 0xA000u + static_cast<std::uint64_t>(round),
                              size)
                 .ok()) {
          ++errors;
        }
        if (!core.FreeAlloc(id, pid, 0xA000u + static_cast<std::uint64_t>(round))
                 .ok()) {
          ++errors;
        }
      }
      (void)core.ProcessExit(id, pid);
      if (!core.ContainerClose(id).ok()) ++errors;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) threads.emplace_back(worker, i);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(core.pending_request_count(), 0u);
  EXPECT_EQ(core.free_pool(), 5_GiB);
  EXPECT_TRUE(core.CheckInvariants().ok());
}

// The daemon-level hammer: several threads churn containers through the
// real UNIX-socket surface — register on the main socket, allocate/free on
// the per-container socket — and every few rounds a client vanishes with a
// request still in flight (the SIGKILLed-program path the disconnect
// handler must reclaim). Small capacity forces suspension/redistribution
// under the churn. Must stay clean under TSan with the auditor on.
TEST(SchedulerServerHammerTest, SocketChurnWithMidAllocationDisconnects) {
  using convgpu::testing::HelloOptions;
  using convgpu::testing::TempDir;
  TempDir dir;
  SchedulerServerOptions options;
  options.base_dir = dir.path();
  options.scheduler.capacity = 1_GiB;
  options.scheduler.first_alloc_overhead = 66_MiB;
  SchedulerServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::atomic<int> errors{0};

  auto worker = [&](int thread_index) {
    auto main_client =
        ipc::MessageClient::ConnectUnix(server.main_socket_path());
    if (!main_client.ok()) {
      ++errors;
      return;
    }
    for (int round = 0; round < kRounds; ++round) {
      const std::string id =
          "h" + std::to_string(thread_index) + "r" + std::to_string(round);
      const Pid pid = 100 * (thread_index + 1) + round;
      const Bytes size = (64 + 64 * ((thread_index + round) % 3)) * kMiB;

      protocol::RegisterContainer reg;
      reg.container_id = id;
      reg.memory_limit = 256_MiB;
      auto registered = protocol::Expect<protocol::RegisterReply>(
          protocol::Call(**main_client, protocol::Message(reg)));
      if (!registered.ok() || !registered->ok) {
        ++errors;
        continue;
      }
      const std::string socket_path = server.container_socket_path(id);

      if (round % 3 == 2) {
        // Vanishing client: fire the allocation request, then close the
        // socket without waiting for the reply — possibly while the
        // request sits suspended in the scheduler's queue.
        auto victim = ipc::MessageClient::ConnectUnix(socket_path);
        const std::string hello = convgpu::testing::HelloFrame(id, pid);
        if (victim.ok() && (*victim)->SendFrame(hello).ok()) {
          protocol::AllocRequest request;
          request.container_id = id;
          request.pid = pid;
          request.size = size;
          request.api = "cudaMalloc";
          (void)protocol::Notify(**victim, protocol::Message(request));
        }
        // `victim` drops here; the disconnect handler must cancel the
        // request and reclaim the pid.
      } else {
        auto link =
            SocketSchedulerLink::Connect(socket_path, HelloOptions(id, pid));
        if (!link.ok()) {
          ++errors;
          continue;
        }
        protocol::AllocRequest request;
        request.container_id = id;
        request.pid = pid;
        request.size = size;
        request.api = "cudaMalloc";
        auto response = (*link)->Call(protocol::Message(request));
        if (!response.ok()) {
          ++errors;
        } else if (const auto* reply =
                       std::get_if<protocol::AllocReply>(&*response);
                   reply != nullptr && reply->granted) {
          const std::uint64_t address =
              0xA000u + static_cast<std::uint64_t>(round);
          protocol::AllocCommit commit;
          commit.container_id = id;
          commit.pid = pid;
          commit.address = address;
          commit.size = size;
          if (!(*link)->Notify(protocol::Message(commit)).ok()) ++errors;
          protocol::FreeNotify free_notify;
          free_notify.container_id = id;
          free_notify.pid = pid;
          free_notify.address = address;
          if (!(*link)->Notify(protocol::Message(free_notify)).ok()) ++errors;
          protocol::ProcessExit exit_notify;
          exit_notify.container_id = id;
          exit_notify.pid = pid;
          if (!(*link)->Notify(protocol::Message(exit_notify)).ok()) ++errors;
        }
      }

      protocol::ContainerClose close;
      close.container_id = id;
      if (!protocol::Notify(**main_client, protocol::Message(close)).ok()) {
        ++errors;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) threads.emplace_back(worker, i);
  for (auto& thread : threads) thread.join();

  // Closes and disconnect cleanups flow through the reactor asynchronously.
  convgpu::testing::WaitUntil([&] {
    return server.core().pending_request_count() == 0 &&
           server.core().free_pool() == 1_GiB;
  });
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(server.core().pending_request_count(), 0u);
  EXPECT_EQ(server.core().free_pool(), 1_GiB);
  EXPECT_TRUE(server.core().CheckInvariants().ok());
  server.Stop();
}

// The pipelined-link hammer: 64 containers, each with ONE SocketSchedulerLink
// shared by 4 threads — every thread keeps its own calls outstanding on the
// shared socket, so replies constantly interleave across threads and the
// ReplyRouter demux is exercised at daemon scale (all 64 container sockets
// live on the server's single reactor). Per-container limits are small
// enough that concurrent allocations overrun them: granted=false rejections
// are expected outcomes, misrouted or lost replies are not.
TEST(SchedulerServerHammerTest, PipelinedLinksAcross64Containers) {
  using convgpu::testing::HelloOptions;
  using convgpu::testing::TempDir;
  TempDir dir;
  SchedulerServerOptions options;
  options.base_dir = dir.path();
  options.scheduler.capacity = 5_GiB;
  options.scheduler.first_alloc_overhead = 0;
  SchedulerServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  constexpr int kContainers = 64;
  constexpr int kThreadsPerLink = 4;
  constexpr int kRounds = 3;
  std::atomic<int> errors{0};

  // Register everything up front over the main socket, ids correlated.
  auto main_client = ipc::MessageClient::ConnectUnix(server.main_socket_path());
  ASSERT_TRUE(main_client.ok());
  protocol::ReqId next_req_id = 1;
  std::vector<std::unique_ptr<SocketSchedulerLink>> links;
  for (int c = 0; c < kContainers; ++c) {
    protocol::RegisterContainer reg;
    reg.container_id = "p" + std::to_string(c);
    reg.memory_limit = 64_MiB;
    auto reply = protocol::Expect<protocol::RegisterReply>(protocol::Call(
        **main_client, protocol::Message(reg), next_req_id++));
    ASSERT_TRUE(reply.ok() && reply->ok);
    auto link = SocketSchedulerLink::Connect(
        reply->socket_path, HelloOptions(reg.container_id, 1000 * (c + 1)));
    ASSERT_TRUE(link.ok());
    links.push_back(std::move(*link));
  }

  auto worker = [&](int container, int lane) {
    const std::string id = "p" + std::to_string(container);
    SocketSchedulerLink& link = *links[static_cast<std::size_t>(container)];
    const Pid pid = 1000 * (container + 1) + lane;
    for (int round = 0; round < kRounds; ++round) {
      // 4 lanes x 32 MiB against a 64 MiB limit: some of these must be
      // rejected, and which ones depends on reply interleaving.
      protocol::AllocRequest request;
      request.container_id = id;
      request.pid = pid;
      request.size = 32_MiB;
      request.api = "cudaMalloc";
      auto response = protocol::Expect<protocol::AllocReply>(
          link.Call(protocol::Message(request)));
      if (!response.ok()) {
        ++errors;
      } else if (response->granted) {
        const auto address =
            0xF000u + static_cast<std::uint64_t>(pid * 10 + round);
        protocol::AllocCommit commit;
        commit.container_id = id;
        commit.pid = pid;
        commit.address = address;
        commit.size = 32_MiB;
        if (!link.Notify(protocol::Message(commit)).ok()) ++errors;
        protocol::FreeNotify free_notify;
        free_notify.container_id = id;
        free_notify.pid = pid;
        free_notify.address = address;
        if (!link.Notify(protocol::Message(free_notify)).ok()) ++errors;
      }
      // A stats-style call interleaved on the same link; its reply must
      // never be confused with an alloc reply.
      protocol::MemGetInfoRequest probe;
      probe.container_id = id;
      probe.pid = pid;
      auto info = protocol::Expect<protocol::MemInfoReply>(
          link.Call(protocol::Message(probe)));
      if (!info.ok() || info->total != 64_MiB) ++errors;
    }
    protocol::ProcessExit exit_notify;
    exit_notify.container_id = id;
    exit_notify.pid = pid;
    if (!link.Notify(protocol::Message(exit_notify)).ok()) ++errors;
  };

  std::vector<std::thread> threads;
  threads.reserve(kContainers * kThreadsPerLink);
  for (int c = 0; c < kContainers; ++c) {
    for (int lane = 0; lane < kThreadsPerLink; ++lane) {
      threads.emplace_back(worker, c, lane);
    }
  }
  for (auto& thread : threads) thread.join();

  for (auto& link : links) {
    if (link->outstanding_calls() != 0) ++errors;
  }
  links.clear();  // joins every reader thread

  for (int c = 0; c < kContainers; ++c) {
    protocol::ContainerClose close;
    close.container_id = "p" + std::to_string(c);
    if (!protocol::Notify(**main_client, protocol::Message(close)).ok()) {
      ++errors;
    }
  }
  convgpu::testing::WaitUntil([&] {
    return server.core().pending_request_count() == 0 &&
           server.core().free_pool() == 5_GiB;
  });
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(server.core().pending_request_count(), 0u);
  EXPECT_EQ(server.core().free_pool(), 5_GiB);
  EXPECT_TRUE(server.core().CheckInvariants().ok());
  server.Stop();
}

// Pins the reproduction's headline shapes so regressions in the scheduler
// would show up as test failures, not just drifting bench numbers.
TEST(ReproductionShapeTest, BestFitWinsFinishTimeAtHighLoad) {
  using namespace convgpu::workload;
  double bf_total = 0;
  double rand_total = 0;
  for (std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    for (const char* policy : {"BF", "Rand"}) {
      MultiGpuSimConfig config;
      config.num_containers = 34;
      config.policy = policy;
      config.seed = seed;
      auto result = RunCloudSimulationAveraged(config, 3);
      ASSERT_TRUE(result.ok());
      (policy[0] == 'B' ? bf_total : rand_total) +=
          ToSeconds(result->finished_time);
    }
  }
  // Paper Table IV: BF beats Random at high load.
  EXPECT_LT(bf_total, rand_total);
}

TEST(ReproductionShapeTest, PoliciesTieAtLowLoad) {
  using namespace convgpu::workload;
  std::vector<double> finishes;
  for (const char* policy : {"FIFO", "BF", "RU", "Rand"}) {
    MultiGpuSimConfig config;
    config.num_containers = 6;
    config.policy = policy;
    config.seed = 77;
    auto result = RunCloudSimulationAveraged(config, 4);
    ASSERT_TRUE(result.ok());
    finishes.push_back(ToSeconds(result->finished_time));
  }
  const auto [min_it, max_it] =
      std::minmax_element(finishes.begin(), finishes.end());
  // Paper: "The four algorithms show similar performance when the number
  // of containers is less than 16."
  EXPECT_LT(*max_it - *min_it, 0.10 * *min_it);
}

TEST(ReproductionShapeTest, FinishTimeRoughlyDoublesWithLoad) {
  using namespace convgpu::workload;
  MultiGpuSimConfig config;
  config.seed = 55;
  config.num_containers = 16;
  auto base = RunCloudSimulationAveraged(config, 4);
  config.num_containers = 32;
  auto doubled = RunCloudSimulationAveraged(config, 4);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(doubled.ok());
  const double ratio =
      ToSeconds(doubled->finished_time) / ToSeconds(base->finished_time);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 3.5);
}

}  // namespace
}  // namespace convgpu
