// Daemon-restart survival: the reconnecting scheduler link against the
// fault-injection harness. A scheduler crash must be a blip, not an outage
// — idempotent in-flight calls replay transparently on the next
// incarnation, the reattach handshake rebuilds the ledger from the
// wrapper's snapshot, non-replayable calls surface a typed kUnavailable,
// and a reattach the new daemon cannot honor (epoch mismatch) fails the
// link permanently instead of corrupting the fresh tenancy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "convgpu/convgpu.h"
#include "tests/fault_harness.h"
#include "tests/test_util.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;
using namespace std::chrono_literals;
using convgpu::testing::FaultScheduler;
using convgpu::testing::TempDir;
using convgpu::testing::WaitUntil;

class ReconnectTest : public ::testing::Test {
 protected:
  ReconnectTest() {
    SchedulerServerOptions options;
    options.base_dir = dir_.path();
    options.scheduler.capacity = 5_GiB;
    fault_ = std::make_unique<FaultScheduler>(std::move(options));
    EXPECT_TRUE(fault_->Up().ok());
  }

  /// Registers a container over the main socket, as nvidia-docker would.
  Result<protocol::RegisterReply> Register(const std::string& id,
                                           Bytes limit) {
    auto main = ipc::MessageClient::ConnectUnix(fault_->main_socket_path());
    if (!main.ok()) return main.status();
    protocol::RegisterContainer reg;
    reg.container_id = id;
    reg.memory_limit = limit;
    auto reply = protocol::Expect<protocol::RegisterReply>(
        protocol::Call(**main, protocol::Message(reg), /*req_id=*/1));
    if (reply.ok() && !reply->ok) {
      return Result<protocol::RegisterReply>(InternalError(reply->error));
    }
    return reply;
  }

  /// Reconnect-enabled link options tuned for test time, not production.
  static SocketSchedulerLink::Options FastOptions(const std::string& id,
                                                  Pid pid) {
    SocketSchedulerLink::Options options;
    options.container_id = id;
    options.pid = pid;
    options.auto_reconnect = true;
    options.initial_backoff = 5ms;
    options.max_backoff = 50ms;
    options.handshake_timeout = 500ms;
    return options;
  }

  TempDir dir_;
  std::unique_ptr<FaultScheduler> fault_;
};

TEST_F(ReconnectTest, HelloHandshakeLearnsEpochAndLimit) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), FastOptions("c1", 7));
  ASSERT_TRUE(link.ok());
  EXPECT_EQ((*link)->session_epoch(), fault_->server().session_epoch());
  EXPECT_NE((*link)->session_epoch(), 0u);
  EXPECT_TRUE((*link)->connected());
  EXPECT_EQ((*link)->reconnect_count(), 0u);
}

TEST_F(ReconnectTest, HelloRejectedForUnknownContainerFailsConnect) {
  // A dormant socket (daemon restarted, nobody re-registered or reattached)
  // answers hello with a rejection: the connect fails typed, not silently.
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  ASSERT_TRUE(fault_->Restart().ok());
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), FastOptions("c1", 7));
  ASSERT_FALSE(link.ok());
  EXPECT_EQ(link.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ReconnectTest, ReplaysIdempotentCallsAcrossRestart) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto options = FastOptions("c1", 7);
  options.snapshot = [] {
    return std::vector<protocol::LiveAlloc>{{0xA, 64_MiB}};
  };
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), std::move(options));
  ASSERT_TRUE(link.ok());
  const std::uint64_t first_epoch = (*link)->session_epoch();

  // A committed allocation the restarted daemon must re-learn.
  protocol::AllocRequest request;
  request.container_id = "c1";
  request.pid = 7;
  request.size = 64_MiB;
  auto granted = protocol::Expect<protocol::AllocReply>(
      (*link)->Call(protocol::Message(request)));
  ASSERT_TRUE(granted.ok() && granted->granted);
  protocol::AllocCommit commit;
  commit.pid = 7;
  commit.address = 0xA;
  commit.size = 64_MiB;
  ASSERT_TRUE((*link)->Notify(protocol::Message(commit)).ok());

  fault_->Down();
  // Issued while the daemon is dead: mem_get_info is idempotent, so the
  // call parks and replays on the next incarnation instead of failing.
  protocol::MemGetInfoRequest probe;
  probe.pid = 7;
  auto pending = (*link)->AsyncCall(protocol::Message(probe));
  ASSERT_TRUE(fault_->Up().ok());

  ASSERT_EQ(pending.wait_for(30s), std::future_status::ready);
  auto info = protocol::Expect<protocol::MemInfoReply>(pending.get());
  ASSERT_TRUE(info.ok());
  // The reply reflects the *rebuilt* ledger: snapshot allocation plus the
  // pid's first-allocation overhead are charged again, so the virtualized
  // free matches what the pre-crash daemon reported (the overhead rides in
  // the hidden allowance, exactly as on the normal allocation path).
  EXPECT_EQ(info->total, 1_GiB);
  EXPECT_EQ(info->free, 1_GiB - 64_MiB);

  EXPECT_TRUE(WaitUntil([&] { return (*link)->connected(); }));
  EXPECT_EQ((*link)->reconnect_count(), 1u);
  EXPECT_GE((*link)->replayed_call_count(), 1u);
  EXPECT_NE((*link)->session_epoch(), first_epoch);
  EXPECT_EQ((*link)->session_epoch(), fault_->server().session_epoch());

  auto stats = fault_->core().StatsFor("c1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->used, 64_MiB + 66_MiB);
  EXPECT_TRUE(fault_->core().CheckInvariants().ok());

  // The restored allocation is first-class: its free flows through.
  protocol::FreeNotify free;
  free.pid = 7;
  free.address = 0xA;
  ASSERT_TRUE((*link)->Notify(protocol::Message(free)).ok());
  EXPECT_TRUE(WaitUntil([&] {
    auto s = fault_->core().StatsFor("c1");
    return s.has_value() && s->used == 66_MiB;
  }));
}

TEST_F(ReconnectTest, RestartMidWorkload) {
  ASSERT_TRUE(Register("c1", 2_GiB).ok());
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), FastOptions("c1", 7));
  ASSERT_TRUE(link.ok());

  // Four threads hammer idempotent calls straight through a daemon bounce:
  // every single call must complete successfully (replay hides the outage),
  // and no thread may hang.
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        protocol::MemGetInfoRequest probe;
        probe.pid = static_cast<Pid>(100 + t);
        auto reply = (*link)->Call(protocol::Message(probe));
        if (!reply.ok() ||
            std::get_if<protocol::MemInfoReply>(&*reply) == nullptr) {
          ++failures;
        }
      }
    });
  }
  std::this_thread::sleep_for(20ms);
  ASSERT_TRUE(fault_->Restart(20ms).ok());
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(WaitUntil([&] { return (*link)->connected(); }));
  EXPECT_GE((*link)->reconnect_count(), 1u);
  EXPECT_TRUE(fault_->core().CheckInvariants().ok());
}

TEST_F(ReconnectTest, SuspendedAllocSurfacesUnavailableOnRestart) {
  // Fill the GPU so the victim's allocation suspends daemon-side, then kill
  // the daemon with the alloc in flight. Admission is not replay-safe (the
  // old daemon may or may not have granted before dying), so the caller
  // gets a typed kUnavailable — and the link still recovers underneath.
  ASSERT_TRUE(fault_->core().RegisterContainer("hog", 5_GiB - 66_MiB).ok());
  bool hog_granted = false;
  fault_->core().RequestAlloc("hog", 1, 5_GiB - 66_MiB,
                              [&](const Status& s) { hog_granted = s.ok(); });
  ASSERT_TRUE(hog_granted);
  ASSERT_TRUE(fault_->core().CommitAlloc("hog", 1, 0xB, 5_GiB - 66_MiB).ok());

  ASSERT_TRUE(Register("victim", 4_GiB).ok());
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("victim"), FastOptions("victim", 9));
  ASSERT_TRUE(link.ok());

  protocol::AllocRequest request;
  request.container_id = "victim";
  request.pid = 9;
  request.size = 64_MiB;
  auto suspended = (*link)->AsyncCall(protocol::Message(request));
  ASSERT_TRUE(WaitUntil(
      [&] { return fault_->core().pending_request_count() == 1; }));

  ASSERT_TRUE(fault_->Restart().ok());

  ASSERT_EQ(suspended.wait_for(30s), std::future_status::ready);
  auto result = suspended.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

  // The link itself survived; the fresh daemon has a free pool (the hog was
  // core-side state that died with it), so a retried allocation succeeds.
  EXPECT_TRUE(WaitUntil([&] { return (*link)->connected(); }));
  auto retried = protocol::Expect<protocol::AllocReply>(
      (*link)->Call(protocol::Message(request)));
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried->granted);
  EXPECT_EQ((*link)->reconnect_count(), 1u);
  EXPECT_TRUE(fault_->core().CheckInvariants().ok());
}

TEST_F(ReconnectTest, NotifyDuringOutageIsTypedUnavailable) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), FastOptions("c1", 7));
  ASSERT_TRUE(link.ok());
  fault_->Down();
  ASSERT_TRUE(WaitUntil([&] { return !(*link)->connected(); }));
  // One-way notifications are not queued across the outage — the reattach
  // snapshot reconciles state instead. The caller sees a typed error.
  protocol::AllocCommit commit;
  commit.pid = 7;
  commit.address = 0xC;
  commit.size = 1_MiB;
  auto status = (*link)->Notify(protocol::Message(commit));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(ReconnectTest, DoubleRestartDuringBackoff) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), FastOptions("c1", 7));
  ASSERT_TRUE(link.ok());

  // Two full loss/recovery cycles back to back: the backoff state machine
  // must reset per incarnation, not wedge after the first recovery.
  fault_->Down();
  ASSERT_TRUE(WaitUntil([&] { return !(*link)->connected(); }));
  ASSERT_TRUE(fault_->Up().ok());
  ASSERT_TRUE(WaitUntil([&] { return (*link)->reconnect_count() == 1; }));
  ASSERT_TRUE(WaitUntil([&] { return (*link)->connected(); }));

  fault_->Down();
  ASSERT_TRUE(WaitUntil([&] { return !(*link)->connected(); }));
  ASSERT_TRUE(fault_->Up().ok());
  ASSERT_TRUE(WaitUntil([&] { return (*link)->reconnect_count() == 2; }));

  auto pong = (*link)->Call(protocol::Message(protocol::Ping{}));
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(std::holds_alternative<protocol::Pong>(*pong));
}

TEST_F(ReconnectTest, HungDaemonTimesOutHandshakeAndRetries) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto options = FastOptions("c1", 7);
  options.handshake_timeout = 100ms;
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), std::move(options));
  ASSERT_TRUE(link.ok());

  // The tarpit accepts the reconnect and swallows the reattach: only the
  // handshake deadline gets the worker out of the exchange, after which it
  // keeps retrying instead of declaring the link broken.
  ASSERT_TRUE(fault_->Hang().ok());
  auto parked = (*link)->AsyncCall(protocol::Message(protocol::Ping{}));
  std::this_thread::sleep_for(300ms);  // at least one full handshake timeout
  EXPECT_FALSE((*link)->connected());
  EXPECT_EQ(parked.wait_for(0s), std::future_status::timeout);

  ASSERT_TRUE(fault_->Up().ok());
  ASSERT_EQ(parked.wait_for(30s), std::future_status::ready);
  auto pong = parked.get();
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(std::holds_alternative<protocol::Pong>(*pong));
  EXPECT_TRUE(WaitUntil([&] { return (*link)->connected(); }));
  EXPECT_EQ((*link)->reconnect_count(), 1u);
}

TEST_F(ReconnectTest, ReattachRejectedOnEpochMismatch) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto options = FastOptions("c1", 7);
  // A long backoff opens a deterministic window: first reconnect attempt
  // fails against the dead daemon, and the fresh registration below lands
  // before the second attempt carries the stale epoch in.
  options.initial_backoff = 500ms;
  options.max_backoff = 500ms;
  auto stale = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), std::move(options));
  ASSERT_TRUE(stale.ok());

  fault_->Down();
  ASSERT_TRUE(WaitUntil([&] { return !(*stale)->connected(); }));
  std::this_thread::sleep_for(50ms);  // let the first (refused) attempt pass
  ASSERT_TRUE(fault_->Up().ok());
  ASSERT_TRUE(Register("c1", 1_GiB).ok());

  // The stale wrapper's reattach hits a same-named container freshly
  // registered in the new session: grafting its allocations on would
  // corrupt the new tenancy, so the daemon refuses and the link fails
  // permanently with the rejection.
  auto result = (*stale)->Call(protocol::Message(protocol::Ping{}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE((*stale)->connected());

  // The fresh tenancy is untouched and fully serviceable.
  auto stats = fault_->core().StatsFor("c1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->used, 0u);
  auto fresh = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), FastOptions("c1", 8));
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)->connected());
  EXPECT_TRUE(fault_->core().CheckInvariants().ok());
}

TEST_F(ReconnectTest, SameEpochBlipRestoresReclaimedMemory) {
  // The wrapper's connection drops but the daemon never died: the
  // disconnect handler reclaims the pid's memory, and the same-epoch
  // reattach (with the snapshot) puts it back.
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto options = FastOptions("c1", 7);
  options.snapshot = [] {
    return std::vector<protocol::LiveAlloc>{{0xA, 64_MiB}};
  };
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), std::move(options));
  ASSERT_TRUE(link.ok());
  const std::uint64_t epoch = (*link)->session_epoch();

  protocol::AllocRequest request;
  request.container_id = "c1";
  request.pid = 7;
  request.size = 64_MiB;
  auto granted = protocol::Expect<protocol::AllocReply>(
      (*link)->Call(protocol::Message(request)));
  ASSERT_TRUE(granted.ok() && granted->granted);
  protocol::AllocCommit commit;
  commit.pid = 7;
  commit.address = 0xA;
  commit.size = 64_MiB;
  ASSERT_TRUE((*link)->Notify(protocol::Message(commit)).ok());
  // A round-trip on the same socket fences the fire-and-forget commit: the
  // daemon processes frames in order, so once the pong is back the commit
  // is on the books.
  ASSERT_TRUE((*link)->Call(protocol::Message(protocol::Ping{})).ok());
  {
    auto s = fault_->core().StatsFor("c1");
    ASSERT_TRUE(s.has_value());
    ASSERT_EQ(s->used, 64_MiB + 66_MiB);
  }

  // Sever just this connection; the daemon reclaims, the link reattaches.
  fault_->server().Stop();
  ASSERT_TRUE(WaitUntil([&] { return !(*link)->connected(); }));
  ASSERT_TRUE(fault_->server().Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return (*link)->connected(); }));
  EXPECT_EQ((*link)->session_epoch(), epoch);  // same incarnation
  EXPECT_TRUE(WaitUntil([&] {
    auto s = fault_->core().StatsFor("c1");
    return s.has_value() && s->used == 64_MiB + 66_MiB;
  }));
  EXPECT_TRUE(fault_->core().CheckInvariants().ok());
}

TEST_F(ReconnectTest, RestartWhileACallerLeadsARead) {
  // The first incarnation answers only the hello, so the caller of a
  // mem_get_info is left leading a read on that connection, next to an
  // outstanding alloc. When the daemon dies the leader wakes with EOF and
  // steps down; the alloc is not replay-safe and fails typed, while the
  // mem_get_info is replayed — and the same caller, its slot still open,
  // leads again on the new connection and gets the new daemon's answer.
  fault_->Down();
  const std::string path = fault_->container_socket_path("c1");
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::atomic<int> swallowed{0};
  auto first = std::make_unique<ipc::MessageServer>();
  ASSERT_TRUE(
      first
          ->Start(path,
                  [&](ipc::ConnectionId conn, std::string_view payload) {
                    auto request = protocol::DecodePayload(payload);
                    if (request.ok() &&
                        std::holds_alternative<protocol::Hello>(*request)) {
                      protocol::HelloReply reply;
                      reply.ok = true;
                      reply.epoch = 42;
                      reply.limit = 1_GiB;
                      (void)first->SendBytes(
                          conn, protocol::EncodePayload(
                                    protocol::json_codec(),
                                    protocol::Message(reply),
                                    protocol::PeekPayloadReqId(payload)));
                      return;
                    }
                    ++swallowed;  // never answered
                  })
          .ok());

  auto link = SocketSchedulerLink::Connect(path, FastOptions("c1", 7));
  ASSERT_TRUE(link.ok()) << link.status().ToString();
  protocol::MemGetInfoRequest probe;
  probe.pid = 7;
  auto info = (*link)->AsyncCall(protocol::Message(probe));
  protocol::AllocRequest alloc;
  alloc.container_id = "c1";
  alloc.pid = 7;
  alloc.size = 64_MiB;
  auto admission = (*link)->AsyncCall(protocol::Message(alloc));
  Result<protocol::Message> info_result = InternalError("not set");
  std::thread leader([&] { info_result = info.get(); });
  ASSERT_TRUE(WaitUntil([&] { return swallowed == 2; }));

  first->Stop();  // the daemon dies under the blocked leader
  first.reset();
  ASSERT_TRUE(fault_->Up().ok());  // re-binds the socket, accepts reattach

  ASSERT_EQ(admission.wait_for(30s), std::future_status::ready);
  auto admitted = admission.get();
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.status().code(), StatusCode::kUnavailable);

  leader.join();
  auto reply = protocol::Expect<protocol::MemInfoReply>(std::move(info_result));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->total, 1_GiB);  // the limit the reattach carried over
  EXPECT_EQ((*link)->reconnect_count(), 1u);
  EXPECT_EQ((*link)->replayed_call_count(), 1u);
  EXPECT_EQ((*link)->session_epoch(), fault_->server().session_epoch());
  EXPECT_EQ((*link)->outstanding_calls(), 0u);
  EXPECT_TRUE(fault_->core().CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// RestoreProcess: the core-side half of reattach, unit-tested directly.
// ---------------------------------------------------------------------------

class RestoreProcessTest : public ::testing::Test {
 protected:
  RestoreProcessTest() {
    SchedulerOptions options;
    options.capacity = 5_GiB;
    core_ = std::make_unique<SchedulerCore>(options);
  }

  std::unique_ptr<SchedulerCore> core_;
};

TEST_F(RestoreProcessTest, RegistersContainerAndChargesSnapshot) {
  ASSERT_TRUE(core_
                  ->RestoreProcess("c1", 1_GiB, 7,
                                   {{0xA, 64_MiB}, {0xB, 32_MiB}})
                  .ok());
  auto stats = core_->StatsFor("c1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->limit, 1_GiB);
  EXPECT_EQ(stats->used, 64_MiB + 32_MiB + 66_MiB);
  EXPECT_TRUE(core_->CheckInvariants().ok());
  // Restored allocations are first-class ledger entries.
  EXPECT_TRUE(core_->FreeAlloc("c1", 7, 0xA).ok());
  EXPECT_TRUE(core_->FreeAlloc("c1", 7, 0xB).ok());
  EXPECT_TRUE(core_->CheckInvariants().ok());
}

TEST_F(RestoreProcessTest, DuplicateReattachIsIdempotent) {
  const std::vector<SchedulerCore::RestoredAlloc> snapshot = {{0xA, 64_MiB}};
  ASSERT_TRUE(core_->RestoreProcess("c1", 1_GiB, 7, snapshot).ok());
  // The exact same snapshot again (a reattach duplicated by a connection
  // lost mid-handshake): Ok, nothing double-charged.
  ASSERT_TRUE(core_->RestoreProcess("c1", 1_GiB, 7, snapshot).ok());
  auto stats = core_->StatsFor("c1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->used, 64_MiB + 66_MiB);
  EXPECT_TRUE(core_->CheckInvariants().ok());
}

TEST_F(RestoreProcessTest, ConflictingSnapshotReconcilesToTheSnapshot) {
  // The ledger says {0xA}; the wrapper's snapshot says {0xB} — a commit and
  // a free were lost in the blip. The snapshot mirrors the device, so the
  // ledger converges to it rather than rejecting the wrapper.
  ASSERT_TRUE(core_->RestoreProcess("c1", 1_GiB, 7, {{0xA, 64_MiB}}).ok());
  ASSERT_TRUE(core_->RestoreProcess("c1", 1_GiB, 7, {{0xB, 32_MiB}}).ok());
  auto stats = core_->StatsFor("c1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->used, 32_MiB + 66_MiB);
  EXPECT_TRUE(core_->CheckInvariants().ok());
  EXPECT_TRUE(core_->FreeAlloc("c1", 7, 0xB).ok());
  EXPECT_FALSE(core_->FreeAlloc("c1", 7, 0xA).ok());  // gone with the blip
  EXPECT_TRUE(core_->CheckInvariants().ok());
}

TEST_F(RestoreProcessTest, LostFreeReconcilesToEmptySnapshot) {
  ASSERT_TRUE(core_->RestoreProcess("c1", 1_GiB, 7, {{0xA, 64_MiB}}).ok());
  // The wrapper freed everything during the blip: an empty snapshot
  // releases the stale charge (only the overhead story restarts).
  ASSERT_TRUE(core_->RestoreProcess("c1", 1_GiB, 7, {}).ok());
  auto stats = core_->StatsFor("c1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->used, 0u);
  EXPECT_TRUE(core_->CheckInvariants().ok());
}

TEST_F(RestoreProcessTest, LimitDisagreementIsRejected) {
  ASSERT_TRUE(core_->RegisterContainer("c1", 512_MiB).ok());
  auto status = core_->RestoreProcess("c1", 1_GiB, 7, {});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(RestoreProcessTest, MalformedSnapshotIsRejected) {
  EXPECT_EQ(core_->RestoreProcess("c1", 1_GiB, 7, {{0xA, 0}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(core_
                ->RestoreProcess("c1", 1_GiB, 7, {{0xA, 1_MiB}, {0xA, 2_MiB}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(core_->HasContainer("c1"));  // nothing half-registered
}

TEST_F(RestoreProcessTest, ExhaustedPoolIsResourceExhausted) {
  // Someone else already holds (almost) the whole device: the restored
  // memory physically exists, so there is no suspending — the restore must
  // fail loudly and roll back completely.
  ASSERT_TRUE(core_->RegisterContainer("hog", 5_GiB - 66_MiB).ok());
  bool granted = false;
  core_->RequestAlloc("hog", 1, 5_GiB - 66_MiB,
                      [&](const Status& s) { granted = s.ok(); });
  ASSERT_TRUE(granted);
  ASSERT_TRUE(core_->CommitAlloc("hog", 1, 0xB, 5_GiB - 66_MiB).ok());

  auto status = core_->RestoreProcess("c2", 1_GiB, 7, {{0xA, 256_MiB}});
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(core_->HasContainer("c2"));  // rolled back, not half-alive
  EXPECT_TRUE(core_->CheckInvariants().ok());
}

TEST_F(RestoreProcessTest, EmptySnapshotRegistersWithoutCharges) {
  ASSERT_TRUE(core_->RestoreProcess("c1", 1_GiB, 7, {}).ok());
  auto stats = core_->StatsFor("c1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->limit, 1_GiB);
  // No allocations restored => no overhead charged yet; it falls due on
  // the pid's next real allocation as usual.
  EXPECT_EQ(stats->used, 0u);
  EXPECT_TRUE(core_->CheckInvariants().ok());
}

}  // namespace
}  // namespace convgpu
