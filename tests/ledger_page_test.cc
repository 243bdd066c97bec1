// The ledger page: cudaMemGetInfo answered from a sealed shared page the
// daemon hands over in the handshake reply, with the socket as fallback.
//
//  * LedgerPageTest — the page itself: seqlock, epoch, slots, seals.
//  * LedgerPageIpcTest — the descriptor riding a reactor frame, and the
//    client's frames-sent count the link compares against its slot.
//  * LedgerPageLinkTest — SocketSchedulerLink against a scripted daemon
//    that owns the page, so every fallback rule is driven deterministically.
//  * LedgerPageDaemonTest — the real daemon: read-your-writes after a free,
//    from one thread and from four sharing a link, two pids of one
//    container, restart, teardown, and the tenant's read-only view.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "convgpu/convgpu.h"
#include "convgpu/ledger_page.h"
#include "cudasim/gpu_device.h"
#include "cudasim/sim_cuda_api.h"
#include "tests/fault_harness.h"
#include "tests/test_util.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;
using namespace std::chrono_literals;
using cudasim::CudaError;
using cudasim::DevicePtr;
using convgpu::testing::FaultScheduler;
using convgpu::testing::TempDir;
using convgpu::testing::WaitUntil;

constexpr char kPageName[] = "memfd:convgpu-ledger";

/// Read-only shared mappings of a ledger page in this process — the
/// wrappers' views (the in-process daemon's own mappings are writable).
int ReadOnlyPageMappings() {
  std::ifstream maps("/proc/self/maps");
  int count = 0;
  for (std::string line; std::getline(maps, line);) {
    std::istringstream fields(line);
    std::string range, perms;
    fields >> range >> perms;
    if (perms == "r--s" && line.find(kPageName) != std::string::npos) ++count;
  }
  return count;
}

/// Open descriptors of ledger pages in this process.
int PageDescriptors() {
  int count = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd", ec)) {
    std::error_code link_ec;
    const auto target = std::filesystem::read_symlink(entry.path(), link_ec);
    if (!link_ec && target.string().find(kPageName) != std::string::npos) {
      ++count;
    }
  }
  return count;
}

ipc::Fd Dup(int fd) { return ipc::Fd(::dup(fd)); }

// --- The page ----------------------------------------------------------------

TEST(LedgerPageTest, PublishedValuesReadBackThroughAReadOnlyView) {
  auto page = LedgerPage::Create(/*epoch=*/42);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  const auto slot = (*page)->AcquireSlot(/*applied=*/5);
  ASSERT_TRUE(slot.has_value());
  auto view = LedgerPageView::Map(Dup((*page)->fd()), *slot);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Unpublished, the page matches no epoch.
  auto snapshot = (*view)->Read();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->epoch, 0u);

  (*page)->Publish(100_MiB, 1_GiB);
  snapshot = (*view)->Read();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->epoch, 42u);
  EXPECT_EQ(snapshot->free, 100_MiB);
  EXPECT_EQ(snapshot->total, 1_GiB);
  EXPECT_EQ((*view)->applied(), 5u);
  (*page)->StoreApplied(*slot, 9);
  EXPECT_EQ((*view)->applied(), 9u);

  (*page)->Invalidate();
  snapshot = (*view)->Read();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->epoch, 0u);
}

TEST(LedgerPageTest, OddSequenceFailsTheBoundedRead) {
  auto page = LedgerPage::Create(7);
  ASSERT_TRUE(page.ok());
  (*page)->Publish(1, 2);
  auto view = LedgerPageView::Map(Dup((*page)->fd()), 0);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE((*view)->Read().has_value());
  // A writer that died between its two sequence stores.
  (*page)->BreakSeqlockForTesting();
  EXPECT_FALSE((*view)->Read().has_value());
}

TEST(LedgerPageTest, SlotsGoOutLeastRecentlyReleasedFirstAndReleaseToZero) {
  auto page = LedgerPage::Create(7);
  ASSERT_TRUE(page.ok());
  std::vector<std::size_t> taken;
  for (std::size_t i = 0; i < kLedgerPageSlots; ++i) {
    auto slot = (*page)->AcquireSlot(1);
    ASSERT_TRUE(slot.has_value());
    taken.push_back(*slot);
  }
  EXPECT_FALSE((*page)->AcquireSlot(1).has_value()) << "every slot is taken";

  auto view = LedgerPageView::Map(Dup((*page)->fd()), taken[3]);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->applied(), 1u);
  (*page)->ReleaseSlot(taken[3]);
  EXPECT_EQ((*view)->applied(), 0u) << "a free slot never looks caught up";
  (*page)->ReleaseSlot(taken[0]);
  EXPECT_EQ((*page)->AcquireSlot(1), taken[3]);
  EXPECT_EQ((*page)->AcquireSlot(1), taken[0]);
}

TEST(LedgerPageTest, MapRefusesAnUnsealedDescriptorAndABadSlot) {
  ipc::Fd plain(::memfd_create("not-a-page", MFD_CLOEXEC));
  ASSERT_TRUE(plain.valid());
  ASSERT_EQ(::ftruncate(plain.get(), kLedgerPageBytes), 0);
  EXPECT_FALSE(LedgerPageView::Map(std::move(plain), 0).ok());

  auto page = LedgerPage::Create(7);
  ASSERT_TRUE(page.ok());
  EXPECT_FALSE(LedgerPageView::Map(Dup((*page)->fd()), kLedgerPageSlots).ok());
}

// --- The descriptor on the wire ------------------------------------------------

TEST(LedgerPageIpcTest, DescriptorRidesTheReplyFrame) {
  TempDir dir;
  auto page = LedgerPage::Create(7);
  ASSERT_TRUE(page.ok());
  (*page)->Publish(3, 4);
  ipc::MessageServer server;
  ASSERT_TRUE(server
                  .Start(dir.path() + "/s.sock",
                         [&](ipc::ConnectionId conn, std::string_view) {
                           (void)server.SendBytes(conn, "with-fd",
                                                  (*page)->fd());
                           (void)server.SendBytes(conn, "without");
                         })
                  .ok());
  auto client = ipc::MessageClient::ConnectUnix(dir.path() + "/s.sock");
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->SendFrame("hi").ok());

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  ipc::Fd received;
  auto first = (*client)->RecvFrameView(deadline, &received);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, "with-fd");
  ASSERT_TRUE(received.valid());
  auto view = LedgerPageView::Map(std::move(received), 0);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto snapshot = (*view)->Read();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->free, 3);

  ipc::Fd none;
  auto second = (*client)->RecvFrameView(deadline, &none);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "without");
  EXPECT_FALSE(none.valid());
  server.Stop();
}

TEST(LedgerPageIpcTest, FramesSentCountsEveryFrameOnTheConnection) {
  TempDir dir;
  ipc::MessageServer server;
  ASSERT_TRUE(
      server.Start(dir.path() + "/s.sock", [](ipc::ConnectionId, auto) {}).ok());
  auto client = ipc::MessageClient::ConnectUnix(dir.path() + "/s.sock");
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->frames_sent(), 0u);
  std::vector<std::thread> senders;
  for (int t = 0; t < 4; ++t) {
    senders.emplace_back([&] {
      for (int i = 0; i < 50; ++i) ASSERT_TRUE((*client)->SendFrame("x").ok());
    });
  }
  for (auto& sender : senders) sender.join();
  EXPECT_EQ((*client)->frames_sent(), 200u);
  server.Stop();
}

// --- The link against a scripted daemon ------------------------------------------

constexpr std::uint64_t kEpoch = 0xE90C;

/// Answers hello with a test-owned page on slot 0 and mem_get_info over the
/// socket with {1, 2}; the page carries other numbers, so every answer says
/// which path it took. Slot 0's applied count moves only when the test
/// moves it.
class LedgerPageLinkTest : public ::testing::Test {
 protected:
  void StartDaemon(std::uint64_t page_epoch, bool send_descriptor = true) {
    auto page = LedgerPage::Create(page_epoch);
    ASSERT_TRUE(page.ok());
    page_ = std::move(*page);
    ASSERT_EQ(page_->AcquireSlot(0), std::size_t{0});
    page_->Publish(kPageFree, kPageTotal);
    ASSERT_TRUE(
        server_
            .Start(path_,
                   [this, send_descriptor](ipc::ConnectionId conn,
                                           std::string_view payload) {
                     const std::uint64_t frame = ++frames_;
                     std::optional<protocol::ReqId> req_id;
                     (void)protocol::DispatchFrame(
                         payload, req_id,
                         protocol::Visitor{
                             [&](const protocol::Hello&) {
                               protocol::HelloReply reply;
                               reply.ok = true;
                               reply.epoch = kEpoch;
                               reply.limit = kPageTotal;
                               reply.page_slot = 0;
                               page_->StoreApplied(0, frame);
                               (void)server_.SendBytes(
                                   conn,
                                   protocol::EncodePayload(
                                       protocol::json_codec(), reply, req_id),
                                   send_descriptor ? page_->fd() : -1);
                             },
                             [&](const protocol::MemGetInfoRequest&) {
                               protocol::MemInfoReply reply;
                               reply.free = 1;
                               reply.total = 2;
                               (void)server_.SendBytes(
                                   conn,
                                   protocol::EncodePayload(
                                       protocol::json_codec(), reply, req_id));
                             },
                             [](const auto&) {},
                         });
                   })
            .ok());
    SocketSchedulerLink::Options options;
    options.container_id = "c1";
    options.pid = 7;
    options.enable_binary = false;
    auto link = SocketSchedulerLink::Connect(path_, options);
    ASSERT_TRUE(link.ok()) << link.status().ToString();
    link_ = std::move(*link);
  }

  ~LedgerPageLinkTest() override {
    link_.reset();
    server_.Stop();
  }

  /// One mem_get_info through the link; {free, total, went to the socket}.
  std::tuple<Bytes, Bytes, bool> MemGetInfo() {
    protocol::MemGetInfoRequest request;
    request.pid = 7;
    auto pending = link_->AsyncCall(protocol::Message(request));
    const bool round_trip = pending.round_trip();
    auto reply = protocol::Expect<protocol::MemInfoReply>(pending.get());
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    if (!reply.ok()) return {0, 0, round_trip};
    return {reply->free, reply->total, round_trip};
  }

  static constexpr Bytes kPageFree = 10;
  static constexpr Bytes kPageTotal = 20;

  TempDir dir_;
  std::string path_ = dir_.path() + "/c1.sock";
  std::shared_ptr<LedgerPage> page_;
  std::atomic<std::uint64_t> frames_{0};
  ipc::MessageServer server_;
  std::unique_ptr<SocketSchedulerLink> link_;
};

TEST_F(LedgerPageLinkTest, AnswersLocallyOnlyWhenTheSlotHasCaughtUp) {
  StartDaemon(kEpoch);
  ASSERT_TRUE(link_->has_ledger_page());
  EXPECT_EQ(MemGetInfo(), std::make_tuple(kPageFree, kPageTotal, false));

  // A fire-and-forget frame the daemon has not handled yet: the call takes
  // the socket at once instead of answering without it.
  protocol::FreeNotify free;
  free.pid = 7;
  free.address = 0x1000;
  ASSERT_TRUE(link_->Notify(protocol::Message(free)).ok());
  EXPECT_EQ(MemGetInfo(), std::make_tuple(Bytes{1}, Bytes{2}, true));

  // Once the slot reports every frame handled, the page answers again.
  ASSERT_TRUE(WaitUntil([&] { return frames_ == 3; }));
  page_->StoreApplied(0, 3);
  EXPECT_EQ(MemGetInfo(), std::make_tuple(kPageFree, kPageTotal, false));

  const LedgerPageCounters counters = link_->page_counters();
  EXPECT_EQ(counters.local_answers, 2u);
  EXPECT_EQ(counters.slot_behind, 1u);
  EXPECT_EQ(counters.no_page + counters.disconnected_or_epoch +
                counters.seqlock_retries_exhausted,
            0u);
}

TEST_F(LedgerPageLinkTest, PageOfAnotherEpochIsIgnored) {
  StartDaemon(kEpoch + 1);
  ASSERT_TRUE(link_->has_ledger_page());
  EXPECT_EQ(MemGetInfo(), std::make_tuple(Bytes{1}, Bytes{2}, true));
  EXPECT_EQ(link_->page_counters().disconnected_or_epoch, 1u);
  EXPECT_EQ(link_->page_counters().local_answers, 0u);
}

TEST_F(LedgerPageLinkTest, OddSequenceFallsBackAfterBoundedRetries) {
  StartDaemon(kEpoch);
  EXPECT_EQ(MemGetInfo(), std::make_tuple(kPageFree, kPageTotal, false));
  page_->BreakSeqlockForTesting();  // the writer died mid-update
  EXPECT_EQ(MemGetInfo(), std::make_tuple(Bytes{1}, Bytes{2}, true));
  EXPECT_EQ(link_->page_counters().seqlock_retries_exhausted, 1u);
}

TEST_F(LedgerPageLinkTest, SlotWithoutDescriptorMeansNoPage) {
  StartDaemon(kEpoch, /*send_descriptor=*/false);
  EXPECT_FALSE(link_->has_ledger_page());
  EXPECT_EQ(MemGetInfo(), std::make_tuple(Bytes{1}, Bytes{2}, true));
  EXPECT_EQ(link_->page_counters().no_page, 1u);
}

// --- The real daemon -----------------------------------------------------------------

class LedgerPageDaemonTest : public ::testing::Test {
 protected:
  LedgerPageDaemonTest() {
    SchedulerServerOptions options;
    options.base_dir = dir_.path();
    options.scheduler.capacity = 5_GiB;
    fault_ = std::make_unique<FaultScheduler>(std::move(options));
    EXPECT_TRUE(fault_->Up().ok());
  }

  Status Register(const std::string& id, Bytes limit) {
    auto main = ipc::MessageClient::ConnectUnix(fault_->main_socket_path());
    if (!main.ok()) return main.status();
    protocol::RegisterContainer reg;
    reg.container_id = id;
    reg.memory_limit = limit;
    auto reply = protocol::Expect<protocol::RegisterReply>(
        protocol::Call(**main, protocol::Message(reg), /*req_id=*/1));
    if (!reply.ok()) return reply.status();
    return reply->ok ? Status::Ok() : InternalError(reply->error);
  }

  std::unique_ptr<SocketSchedulerLink> Connect(const std::string& id, Pid pid,
                                               bool reconnect = false) {
    SocketSchedulerLink::Options options;
    options.container_id = id;
    options.pid = pid;
    options.auto_reconnect = reconnect;
    options.initial_backoff = 5ms;
    options.max_backoff = 50ms;
    options.handshake_timeout = 500ms;
    auto link = SocketSchedulerLink::Connect(
        fault_->container_socket_path(id), options);
    EXPECT_TRUE(link.ok()) << link.status().ToString();
    return link.ok() ? std::move(*link) : nullptr;
  }

  static Result<protocol::MemInfoReply> MemGetInfo(SchedulerLink& link,
                                                   Pid pid) {
    protocol::MemGetInfoRequest request;
    request.pid = pid;
    return protocol::Expect<protocol::MemInfoReply>(
        link.Call(protocol::Message(request)));
  }

  static Status Alloc(SchedulerLink& link, Pid pid, std::uint64_t address,
                      Bytes size) {
    protocol::AllocRequest request;
    request.pid = pid;
    request.size = size;
    auto reply = protocol::Expect<protocol::AllocReply>(
        link.Call(protocol::Message(request)));
    if (!reply.ok()) return reply.status();
    if (!reply->granted) return ResourceExhaustedError(reply->error);
    protocol::AllocCommit commit;
    commit.pid = pid;
    commit.address = address;
    commit.size = size;
    return link.Notify(protocol::Message(commit));
  }

  TempDir dir_;
  std::unique_ptr<FaultScheduler> fault_;
};

TEST_F(LedgerPageDaemonTest, FreeThenMemGetInfoIsExactOnOneThread) {
  constexpr Bytes kLimit = 1_GiB;
  constexpr Pid kPid = 11;
  ASSERT_TRUE(Register("c1", kLimit).ok());
  auto link = Connect("c1", kPid);
  ASSERT_NE(link, nullptr);
  ASSERT_TRUE(link->has_ledger_page());
  cudasim::GpuDevice device(0, cudasim::TeslaK20m());
  cudasim::SimCudaApi sim(&device, kPid);
  WrapperCore wrapper(&sim, link.get(), kPid);

  Rng rng(0x1ED6E7);
  std::vector<std::pair<DevicePtr, Bytes>> slots(8);
  Bytes live = 0;
  auto expect_exact = [&](const char* after) {
    std::size_t free_bytes = 0, total = 0;
    ASSERT_EQ(wrapper.MemGetInfo(&free_bytes, &total), CudaError::kSuccess);
    EXPECT_EQ(static_cast<Bytes>(total), kLimit) << after;
    EXPECT_EQ(static_cast<Bytes>(free_bytes), kLimit - live) << after;
  };
  for (int op = 0; op < 400; ++op) {
    auto& [ptr, size] = slots[rng.UniformBelow(slots.size())];
    if (ptr == cudasim::kNullDevicePtr) {
      size = static_cast<Bytes>(4_KiB * (1 + rng.UniformBelow(256)));
      ASSERT_EQ(wrapper.Malloc(&ptr, static_cast<std::size_t>(size)),
                CudaError::kSuccess);
      live += size;
      expect_exact("malloc");
    } else {
      ASSERT_EQ(wrapper.Free(ptr), CudaError::kSuccess);
      ptr = cudasim::kNullDevicePtr;
      live -= size;
      expect_exact("free");
    }
    // Nothing is in flight after an answer, so the next call is local.
    const std::uint64_t local = link->page_counters().local_answers;
    expect_exact("a second query");
    EXPECT_EQ(link->page_counters().local_answers, local + 1);
  }

  // Only calls that reached the daemon count as round trips.
  const WrapperStats stats = wrapper.stats();
  const LedgerPageCounters counters = link->page_counters();
  EXPECT_GT(counters.local_answers, 0u);
  EXPECT_EQ(stats.mem_get_info, 800u);
  EXPECT_EQ(stats.scheduler_round_trips,
            stats.alloc_requests + stats.mem_get_info - counters.local_answers);
}

TEST_F(LedgerPageDaemonTest, FreeThenMemGetInfoIsExactAcrossFourThreads) {
  // Four threads share one link. In each round every thread mallocs or
  // frees one of its own buffers, all meet at a barrier, and then every
  // thread's cudaMemGetInfo must count every thread's change — another
  // thread's fire-and-forget free included.
  constexpr Bytes kLimit = 1_GiB;
  constexpr Pid kPid = 12;
  constexpr int kThreads = 4;
  constexpr int kRounds = 150;
  ASSERT_TRUE(Register("c1", kLimit).ok());
  auto link = Connect("c1", kPid);
  ASSERT_NE(link, nullptr);
  cudasim::GpuDevice device(0, cudasim::TeslaK20m());
  cudasim::SimCudaApi sim(&device, kPid);
  WrapperCore wrapper(&sim, link.get(), kPid);

  std::atomic<Bytes> live{0};
  std::atomic<int> wrong{0};
  std::barrier changed(kThreads);
  std::barrier checked(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xF00D + static_cast<std::uint64_t>(t));
      std::vector<std::pair<DevicePtr, Bytes>> slots(4);
      for (int round = 0; round < kRounds; ++round) {
        auto& [ptr, size] = slots[rng.UniformBelow(slots.size())];
        if (ptr == cudasim::kNullDevicePtr) {
          size = static_cast<Bytes>(4_KiB * (1 + rng.UniformBelow(256)));
          if (wrapper.Malloc(&ptr, static_cast<std::size_t>(size)) !=
              CudaError::kSuccess) {
            ++wrong;
          }
          live += size;
        } else {
          if (wrapper.Free(ptr) != CudaError::kSuccess) ++wrong;
          ptr = cudasim::kNullDevicePtr;
          live -= size;
        }
        changed.arrive_and_wait();
        std::size_t free_bytes = 0, total = 0;
        if (wrapper.MemGetInfo(&free_bytes, &total) != CudaError::kSuccess ||
            static_cast<Bytes>(free_bytes) != kLimit - live.load()) {
          ++wrong;
        }
        checked.arrive_and_wait();
      }
      for (auto& [ptr, size] : slots) {
        if (ptr != cudasim::kNullDevicePtr) (void)wrapper.Free(ptr);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(link->page_counters().local_answers, 0u);
}

TEST_F(LedgerPageDaemonTest, TwoPidsInOneContainerSeeEachOthersAllocations) {
  constexpr Bytes kLimit = 1_GiB;
  ASSERT_TRUE(Register("c1", kLimit).ok());
  auto first = Connect("c1", 21);
  auto second = Connect("c1", 22);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(first->has_ledger_page() && second->has_ledger_page());

  ASSERT_TRUE(Alloc(*first, 21, 0xA000, 100_MiB).ok());
  auto seen = MemGetInfo(*second, 22);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->free, kLimit - 100_MiB);
  EXPECT_EQ(second->page_counters().local_answers, 1u)
      << "the other pid's page slot was already caught up";

  ASSERT_TRUE(Alloc(*second, 22, 0xB000, 50_MiB).ok());
  // The first link's commit may still be in flight; whichever path the
  // answer takes, it counts both pids.
  seen = MemGetInfo(*first, 21);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->free, kLimit - 150_MiB);
}

TEST_F(LedgerPageDaemonTest, DeferredGrantFromAnotherContainersCloseIsPublished) {
  // "b" suspends on an allocation its share of the 5 GiB cannot hold; the
  // grant fires when "a" closes, on a frame that is not b's. b's page must
  // show it before b's next call, which its caught-up slot answers locally.
  ASSERT_TRUE(Register("a", 3_GiB).ok());
  ASSERT_TRUE(Register("b", 3_GiB).ok());
  auto link = Connect("b", 71);
  ASSERT_NE(link, nullptr);
  protocol::AllocRequest request;
  request.pid = 71;
  request.size = 2560_MiB;
  auto admission = link->AsyncCall(protocol::Message(request));
  ASSERT_TRUE(WaitUntil([&] { return fault_->core().pending_request_count() == 1; }));

  auto main = ipc::MessageClient::ConnectUnix(fault_->main_socket_path());
  ASSERT_TRUE(main.ok());
  protocol::ContainerClose close;
  close.container_id = "a";
  ASSERT_TRUE(protocol::Notify(**main, protocol::Message(close)).ok());
  auto granted = protocol::Expect<protocol::AllocReply>(admission.get());
  ASSERT_TRUE(granted.ok() && granted->granted) << granted.status().ToString();

  const std::uint64_t local = link->page_counters().local_answers;
  auto info = MemGetInfo(*link, 71);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->free, 3_GiB - 2560_MiB);
  EXPECT_EQ(link->page_counters().local_answers, local + 1);
}

TEST_F(LedgerPageDaemonTest, RestartIgnoresTheOldPageAndReattachBringsANewOne) {
  constexpr Bytes kLimit = 1_GiB;
  ASSERT_TRUE(Register("c1", kLimit).ok());
  auto link = Connect("c1", 31, /*reconnect=*/true);
  ASSERT_NE(link, nullptr);
  link->SetSnapshotProvider([] {
    return std::vector<protocol::LiveAlloc>{{.address = 0xA000,
                                             .size = 64_MiB}};
  });
  ASSERT_TRUE(Alloc(*link, 31, 0xA000, 64_MiB).ok());
  ASSERT_TRUE(MemGetInfo(*link, 31).ok());
  ASSERT_TRUE(MemGetInfo(*link, 31).ok());
  const std::uint64_t local_before = link->page_counters().local_answers;
  EXPECT_GT(local_before, 0u);
  EXPECT_EQ(ReadOnlyPageMappings(), 1);
  const std::uint64_t epoch_before = link->session_epoch();

  fault_->Down();
  // The old page reads epoch 0 now and the link is losing its connection:
  // the call must not be answered from it. It parks and replays instead.
  protocol::MemGetInfoRequest probe;
  probe.pid = 31;
  auto pending = link->AsyncCall(protocol::Message(probe));
  EXPECT_TRUE(pending.round_trip());
  ASSERT_TRUE(fault_->Up().ok());
  auto replayed = protocol::Expect<protocol::MemInfoReply>(pending.get());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->free, kLimit - 64_MiB);
  EXPECT_EQ(link->page_counters().local_answers, local_before);

  ASSERT_TRUE(WaitUntil([&] {
    return link->connected() && link->has_ledger_page() &&
           link->session_epoch() != epoch_before;
  }));
  // The reattach rebuilt the ledger and brought the new daemon's page; the
  // old mapping is gone.
  auto info = MemGetInfo(*link, 31);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->free, kLimit - 64_MiB);
  EXPECT_EQ(link->page_counters().local_answers, local_before + 1);
  EXPECT_EQ(ReadOnlyPageMappings(), 1);
}

TEST_F(LedgerPageDaemonTest, LinkTeardownAndReconnectUnmapAndCloseThePage) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  EXPECT_EQ(PageDescriptors(), 0) << "the page is made on the first hello";
  auto link = Connect("c1", 41, /*reconnect=*/true);
  ASSERT_NE(link, nullptr);
  ASSERT_TRUE(link->has_ledger_page());
  // One descriptor, the daemon's: the link closed its copy once mapped.
  EXPECT_EQ(PageDescriptors(), 1);
  EXPECT_EQ(ReadOnlyPageMappings(), 1);

  ASSERT_TRUE(fault_->Restart().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return link->reconnect_count() > 0 && link->has_ledger_page();
  }));
  EXPECT_EQ(ReadOnlyPageMappings(), 1) << "the old page is still mapped";
  EXPECT_EQ(PageDescriptors(), 1);

  link.reset();
  EXPECT_EQ(ReadOnlyPageMappings(), 0);
  fault_->Down();
  EXPECT_EQ(PageDescriptors(), 0);
}

TEST_F(LedgerPageDaemonTest, ClosedContainerStopsLocalAnswers) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto link = Connect("c1", 51);
  ASSERT_NE(link, nullptr);
  ASSERT_TRUE(MemGetInfo(*link, 51).ok());
  EXPECT_EQ(link->page_counters().local_answers, 1u);
  // Closed in the core while the connection is still up — the moment
  // between the ledger's close and the socket's removal: the page's epoch
  // is 0 now, so the call goes to the socket.
  ASSERT_TRUE(fault_->core().ContainerClose("c1").ok());
  protocol::MemGetInfoRequest probe;
  probe.pid = 51;
  auto pending = link->AsyncCall(protocol::Message(probe));
  EXPECT_TRUE(pending.round_trip());
  auto info = protocol::Expect<protocol::MemInfoReply>(pending.get());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->total, 0) << "the daemon no longer knows the container";
  EXPECT_EQ(link->page_counters().local_answers, 1u);
  EXPECT_EQ(link->page_counters().disconnected_or_epoch, 1u);
}

TEST_F(LedgerPageDaemonTest, ReceivedPageIsReadOnlyForTheTenant) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto client =
      ipc::MessageClient::ConnectUnix(fault_->container_socket_path("c1"));
  ASSERT_TRUE(client.ok());
  protocol::Hello hello;
  hello.container_id = "c1";
  hello.pid = 61;
  ipc::Fd fd;
  auto reply = protocol::Expect<protocol::HelloReply>(protocol::Call(
      **client, protocol::Message(hello), /*req_id=*/1, 5s, &fd));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->page_slot.has_value());
  ASSERT_TRUE(fd.valid());

  errno = 0;
  void* writable = ::mmap(nullptr, kLedgerPageBytes, PROT_READ | PROT_WRITE,
                          MAP_SHARED, fd.get(), 0);
  EXPECT_EQ(writable, MAP_FAILED);
  EXPECT_EQ(errno, EPERM);
  const char byte = 1;
  EXPECT_EQ(::pwrite(fd.get(), &byte, 1, 0), -1);
  EXPECT_NE(::ftruncate(fd.get(), 0), 0);
  EXPECT_NE(::ftruncate(fd.get(), 2 * kLedgerPageBytes), 0);
  void* readable =
      ::mmap(nullptr, kLedgerPageBytes, PROT_READ, MAP_SHARED, fd.get(), 0);
  ASSERT_NE(readable, MAP_FAILED);
  EXPECT_NE(::mprotect(readable, kLedgerPageBytes, PROT_READ | PROT_WRITE), 0)
      << "a read-only view must not be upgradable";
  ::munmap(readable, kLedgerPageBytes);
}

}  // namespace
}  // namespace convgpu
