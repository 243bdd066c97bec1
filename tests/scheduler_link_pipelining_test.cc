// The pipelined scheduler link: request ids on the wire, a demultiplexing
// reader per link, and N threads with N outstanding calls on one socket.
//
// Three layers under test:
//   * ReplyRouter — id issue/route/fail mechanics, including the
//     kFailedPrecondition rejection of duplicate/unknown ids;
//   * SocketSchedulerLink against scripted servers that *reorder* replies
//     or send one without an id — every reply must still reach exactly its
//     caller, and an id-less one nobody;
//   * the end-to-end liveness the old serialized link could not provide: a
//     suspended alloc_request parks only its own thread while sibling
//     calls and the un-suspending release keep flowing on the same link.
//
// Runs under the TSan and ASan legs of tools/check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "convgpu/codec.h"
#include "convgpu/convgpu.h"
#include "ipc/message_server.h"
#include "tests/test_util.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;
using convgpu::testing::AnswerHandshake;
using convgpu::testing::HelloOptions;
using convgpu::testing::TempDir;

constexpr auto kGenerousTimeout = std::chrono::seconds(30);

// --- ReplyRouter unit tests -------------------------------------------------

TEST(ReplyRouterTest, IdsStartAtOneAndIncrement) {
  ReplyRouter router;
  EXPECT_EQ(router.Issue().id, 1u);
  EXPECT_EQ(router.Issue().id, 2u);
  EXPECT_EQ(router.Issue().id, 3u);
  EXPECT_EQ(router.pending_count(), 3u);
}

TEST(ReplyRouterTest, RoutesReplyToItsIssuer) {
  ReplyRouter router;
  auto a = router.Issue();
  auto b = router.Issue();
  // Answer b first — out of order.
  ASSERT_TRUE(router
                  .Route(b.id, Result<protocol::Message>(
                                   protocol::Message(protocol::Pong{})))
                  .ok());
  auto b_reply = b.reply.get();
  ASSERT_TRUE(b_reply.ok());
  EXPECT_TRUE(std::holds_alternative<protocol::Pong>(*b_reply));
  EXPECT_EQ(router.pending_count(), 1u);

  protocol::MemInfoReply info;
  info.total = 512_MiB;
  ASSERT_TRUE(
      router.Route(a.id, Result<protocol::Message>(protocol::Message(info)))
          .ok());
  auto a_reply = a.reply.get();
  ASSERT_TRUE(a_reply.ok());
  EXPECT_EQ(std::get<protocol::MemInfoReply>(*a_reply).total, 512_MiB);
}

TEST(ReplyRouterTest, DuplicateReplyRejectedWithFailedPrecondition) {
  ReplyRouter router;
  auto issued = router.Issue();
  ASSERT_TRUE(router
                  .Route(issued.id, Result<protocol::Message>(
                                        protocol::Message(protocol::Pong{})))
                  .ok());
  const Status duplicate = router.Route(
      issued.id, Result<protocol::Message>(protocol::Message(protocol::Pong{})));
  EXPECT_EQ(duplicate.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(duplicate.message().find("duplicate"), std::string::npos);
}

TEST(ReplyRouterTest, NeverIssuedReplyRejectedWithFailedPrecondition) {
  ReplyRouter router;
  (void)router.Issue();
  const Status unknown = router.Route(
      999, Result<protocol::Message>(protocol::Message(protocol::Pong{})));
  EXPECT_EQ(unknown.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(unknown.message().find("never-issued"), std::string::npos);
  EXPECT_EQ(router.pending_count(), 1u);  // the real caller is untouched
}

TEST(ReplyRouterTest, FailAllCompletesEveryPendingCall) {
  ReplyRouter router;
  auto a = router.Issue();
  auto b = router.Issue();
  router.FailAll(UnavailableError("daemon died"));
  for (auto* issued : {&a, &b}) {
    auto reply = issued->reply.get();
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(router.pending_count(), 0u);
}

TEST(ReplyRouterTest, IdsWrapPastWireMaxBackToOne) {
  // Ids ride in a signed JSON integer, so the space is [1, kMaxWireReqId];
  // the issuer past the end wraps to 1, and calls on both sides of the wrap
  // stay routable.
  ReplyRouter router;
  router.SetNextIdForTesting(protocol::kMaxWireReqId);
  auto last = router.Issue();
  EXPECT_EQ(last.id, protocol::kMaxWireReqId);
  auto wrapped = router.Issue();
  EXPECT_EQ(wrapped.id, 1u);

  ASSERT_TRUE(router
                  .Route(last.id, Result<protocol::Message>(
                                      protocol::Message(protocol::Pong{})))
                  .ok());
  protocol::MemInfoReply info;
  info.total = 2_GiB;
  ASSERT_TRUE(
      router.Route(wrapped.id, Result<protocol::Message>(protocol::Message(info)))
          .ok());
  auto last_reply = last.reply.get();
  ASSERT_TRUE(last_reply.ok());
  EXPECT_TRUE(std::holds_alternative<protocol::Pong>(*last_reply));
  auto wrapped_reply = wrapped.reply.get();
  ASSERT_TRUE(wrapped_reply.ok());
  EXPECT_EQ(std::get<protocol::MemInfoReply>(*wrapped_reply).total, 2_GiB);
}

TEST(ReplyRouterTest, WrapSkipsIdsStillPendingFromThePreviousLap) {
  // A call can stay outstanding for a whole lap of the id space (a suspended
  // alloc on a busy link). The wrap must not reissue its id to a new call —
  // the daemon's eventual reply would route to the wrong caller.
  ReplyRouter router;
  auto one = router.Issue();  // id 1, pending across the wrap
  auto two = router.Issue();  // id 2, pending across the wrap
  router.SetNextIdForTesting(protocol::kMaxWireReqId);
  EXPECT_EQ(router.Issue().id, protocol::kMaxWireReqId);
  EXPECT_EQ(router.Issue().id, 3u);  // skipped 1 and 2, both still owned
  EXPECT_EQ(router.pending_count(), 4u);

  // The long-lived calls are untouched and still route.
  protocol::MemInfoReply info;
  info.total = 1_GiB;
  ASSERT_TRUE(
      router.Route(one.id, Result<protocol::Message>(protocol::Message(info)))
          .ok());
  auto reply = one.reply.get();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(std::get<protocol::MemInfoReply>(*reply).total, 1_GiB);
  EXPECT_EQ(two.reply.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
}

// --- Demultiplexing against a reply-reordering server -----------------------

/// Adversarial scheduler stand-in: buffers every request-bearing frame
/// until one whole wave (one call per client thread) has arrived, then
/// replies in REVERSE arrival order, echoing each request's req_id. Replies
/// carry a nonce derived from the request so a misrouted reply is
/// detectable, not just a reordered one.
class ReorderingServer {
 public:
  ReorderingServer(const std::string& path, std::size_t wave_size)
      : wave_size_(wave_size) {
    const Status started = server_.Start(
        path, [this](ipc::ConnectionId conn, std::string_view payload) {
          OnFrame(conn, payload);
        });
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~ReorderingServer() { server_.Stop(); }

 private:
  // Runs on the reactor thread only — no locking needed.
  void OnFrame(ipc::ConnectionId conn, std::string_view payload) {
    if (AnswerHandshake(server_, conn, payload)) return;
    const auto req_id = protocol::PeekPayloadReqId(payload);
    auto parsed = protocol::DecodePayload(payload);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    protocol::Message reply;
    if (const auto* info = std::get_if<protocol::MemGetInfoRequest>(&*parsed)) {
      protocol::MemInfoReply out;
      out.free = static_cast<Bytes>(info->pid);  // nonce: pid reflected back
      out.total = 1_GiB;
      reply = protocol::Message(out);
    } else if (const auto* alloc = std::get_if<protocol::AllocRequest>(&*parsed)) {
      protocol::AllocReply out;
      out.granted = false;
      out.error = "nonce:" + std::to_string(alloc->size);  // nonce: size
      reply = protocol::Message(out);
    } else if (std::holds_alternative<protocol::Ping>(*parsed)) {
      reply = protocol::Message(protocol::Pong{});
    } else {
      return;  // one-way notifications don't join the wave
    }
    held_.emplace_back(
        conn, protocol::EncodePayload(protocol::json_codec(), reply, req_id));
    if (held_.size() < wave_size_) return;
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      EXPECT_TRUE(server_.SendBytes(it->first, it->second).ok());
    }
    held_.clear();
  }

  ipc::MessageServer server_;
  std::size_t wave_size_;
  std::vector<std::pair<ipc::ConnectionId, std::string>> held_;
};

TEST(SchedulerLinkPipeliningTest, SixteenThreadsSurviveReorderedReplies) {
  constexpr int kThreads = 16;
  constexpr int kRounds = 8;
  TempDir dir;
  const std::string path = dir.path() + "/reorder.sock";
  ReorderingServer server(path, kThreads);

  auto link = SocketSchedulerLink::Connect(path, HelloOptions("c", 1));
  ASSERT_TRUE(link.ok());

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  auto worker = [&](int thread_index) {
    for (int round = 0; round < kRounds; ++round) {
      const auto nonce = static_cast<Bytes>(1000 * (thread_index + 1) + round);
      switch ((thread_index + round) % 3) {
        case 0: {  // stats-style call, nonce in pid → free
          protocol::MemGetInfoRequest request;
          request.container_id = "c";
          request.pid = static_cast<Pid>(nonce);
          auto reply = protocol::Expect<protocol::MemInfoReply>(
              (*link)->Call(protocol::Message(request)));
          if (!reply.ok()) {
            ++failures;
          } else if (reply->free != nonce) {
            ++mismatches;
          }
          break;
        }
        case 1: {  // alloc-style call, nonce in size → error string
          protocol::AllocRequest request;
          request.container_id = "c";
          request.pid = static_cast<Pid>(thread_index);
          request.size = static_cast<Bytes>(nonce);
          request.api = "cudaMalloc";
          auto reply = protocol::Expect<protocol::AllocReply>(
              (*link)->Call(protocol::Message(request)));
          if (!reply.ok()) {
            ++failures;
          } else if (reply->error != "nonce:" + std::to_string(nonce)) {
            ++mismatches;
          }
          // Interleave a one-way free between calls, like a real wrapper.
          protocol::FreeNotify free_notify;
          free_notify.container_id = "c";
          free_notify.pid = static_cast<Pid>(thread_index);
          free_notify.address = static_cast<std::uint64_t>(nonce);
          if (!(*link)->Notify(protocol::Message(free_notify)).ok()) ++failures;
          break;
        }
        default: {  // type-checked only; a misroute shows as a wrong type
          auto reply = protocol::Expect<protocol::Pong>(
              (*link)->Call(protocol::Message(protocol::Ping{})));
          if (!reply.ok()) ++failures;
          break;
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) threads.emplace_back(worker, i);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ((*link)->outstanding_calls(), 0u);
}

// --- Fresh id space per connection ------------------------------------------

/// Echo server that records every req_id it sees (reactor thread writes,
/// test thread reads after the traffic quiesces — guarded anyway).
class RecordingEchoServer {
 public:
  explicit RecordingEchoServer(const std::string& path) {
    const Status started = server_.Start(
        path, [this](ipc::ConnectionId conn, std::string_view payload) {
          if (AnswerHandshake(server_, conn, payload)) return;
          const auto id = protocol::PeekPayloadReqId(payload);
          {
            MutexLock lock(mutex_);
            if (id) seen_.push_back(*id);
          }
          (void)server_.SendBytes(
              conn, protocol::EncodePayload(protocol::json_codec(),
                                            protocol::Message(protocol::Pong{}),
                                            id));
        });
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~RecordingEchoServer() { server_.Stop(); }

  std::vector<protocol::ReqId> seen() const {
    MutexLock lock(mutex_);
    return seen_;
  }

 private:
  ipc::MessageServer server_;
  mutable Mutex mutex_;
  std::vector<protocol::ReqId> seen_ GUARDED_BY(mutex_);
};

TEST(SchedulerLinkPipeliningTest, ReconnectGetsAFreshIdSpace) {
  TempDir dir;
  const std::string path = dir.path() + "/echo.sock";
  RecordingEchoServer server(path);

  {
    auto link = SocketSchedulerLink::Connect(path, HelloOptions("c", 1));
    ASSERT_TRUE(link.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*link)->Call(protocol::Message(protocol::Ping{})).ok());
    }
  }
  auto reconnected = SocketSchedulerLink::Connect(path, HelloOptions("c", 1));
  ASSERT_TRUE(reconnected.ok());
  ASSERT_TRUE((*reconnected)->Call(protocol::Message(protocol::Ping{})).ok());

  EXPECT_EQ(server.seen(), (std::vector<protocol::ReqId>{1, 2, 3, 1}));
}

// --- Caller-driven reads (leader/follower) ----------------------------------

protocol::MemGetInfoRequest NoncedProbe(Pid nonce) {
  protocol::MemGetInfoRequest request;
  request.container_id = "c";
  request.pid = nonce;
  return request;
}

TEST(SchedulerLinkPipeliningTest, OneThreadWaitsOnEightCallsInReverseOrder) {
  // No other thread reads for this caller: its first wait leads, reads the
  // whole reversed wave, and completes the seven calls nobody waits on yet.
  constexpr int kCalls = 8;
  TempDir dir;
  const std::string path = dir.path() + "/reverse.sock";
  ReorderingServer server(path, kCalls);
  auto link = SocketSchedulerLink::Connect(path, HelloOptions("c", 1));
  ASSERT_TRUE(link.ok());

  std::vector<SchedulerLink::ReplyFuture> futures;
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back((*link)->AsyncCall(
        protocol::Message(NoncedProbe(static_cast<Pid>(500 + i)))));
  }
  for (int i = kCalls - 1; i >= 0; --i) {
    auto& future = futures[static_cast<std::size_t>(i)];
    ASSERT_EQ(future.wait_for(kGenerousTimeout), std::future_status::ready);
    auto reply = protocol::Expect<protocol::MemInfoReply>(future.get());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->free, static_cast<Bytes>(500 + i));  // its own reply
  }
  EXPECT_EQ((*link)->outstanding_calls(), 0u);
}

TEST(SchedulerLinkPipeliningTest, ReplyFutureOutlivesItsLink) {
  // A silent peer, two calls outstanding, and the link destroyed under
  // them: one caller is blocked leading a read at that moment, the other
  // future is only read after the link is gone. Both get kUnavailable; the
  // futures share the router's state, so nothing dangles (ASan leg).
  TempDir dir;
  const std::string path = dir.path() + "/silent.sock";
  ipc::MessageServer silent;
  std::atomic<int> received{0};
  ASSERT_TRUE(
      silent
          .Start(path,
                 [&](ipc::ConnectionId conn, std::string_view payload) {
                   if (AnswerHandshake(silent, conn, payload)) return;
                   ++received;
                 })
          .ok());
  auto link = SocketSchedulerLink::Connect(path, HelloOptions("c", 1));
  ASSERT_TRUE(link.ok());

  SchedulerLink::ReplyFuture late =
      (*link)->AsyncCall(protocol::Message(protocol::Ping{}));
  SchedulerLink::ReplyFuture led =
      (*link)->AsyncCall(protocol::Message(protocol::Ping{}));
  Result<protocol::Message> led_result = InternalError("not set");
  std::thread leader([&led, &led_result] { led_result = led.get(); });
  ASSERT_TRUE(convgpu::testing::WaitUntil([&] { return received == 2; }));

  link->reset();  // the link dies with both calls in flight
  leader.join();
  ASSERT_FALSE(led_result.ok());
  EXPECT_EQ(led_result.status().code(), StatusCode::kUnavailable);
  ASSERT_EQ(late.wait_for(kGenerousTimeout), std::future_status::ready);
  auto late_result = late.get();
  ASSERT_FALSE(late_result.ok());
  EXPECT_EQ(late_result.status().code(), StatusCode::kUnavailable);
  silent.Stop();
}

TEST(SchedulerLinkPipeliningTest, DroppedFutureDoesNotWedgeTheLink) {
  // A caller drops its future unread. Its reply still arrives; the next
  // caller to lead routes it into the orphaned slot and then gets its own.
  TempDir dir;
  const std::string path = dir.path() + "/echo.sock";
  RecordingEchoServer server(path);
  auto link = SocketSchedulerLink::Connect(path, HelloOptions("c", 1));
  ASSERT_TRUE(link.ok());

  { auto dropped = (*link)->AsyncCall(protocol::Message(protocol::Ping{})); }
  auto pong = (*link)->Call(protocol::Message(protocol::Ping{}));
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(std::holds_alternative<protocol::Pong>(*pong));
  EXPECT_EQ((*link)->outstanding_calls(), 0u);
  EXPECT_EQ(server.seen(), (std::vector<protocol::ReqId>{1, 2}));
}

TEST(SchedulerLinkPipeliningTest, IdlessReplyIsDroppedAndTheCallerGetsItsOwn) {
  // A reply without an id belongs to no caller: the link drops it instead
  // of handing it to the oldest call, and the caller gets its own reply.
  TempDir dir;
  const std::string path = dir.path() + "/idless.sock";
  ipc::MessageServer server;
  ASSERT_TRUE(
      server
          .Start(path,
                 [&server](ipc::ConnectionId conn, std::string_view payload) {
                   if (AnswerHandshake(server, conn, payload)) return;
                   protocol::MemInfoReply stray;
                   stray.total = 1_GiB;
                   (void)server.SendBytes(
                       conn, protocol::EncodePayload(protocol::json_codec(),
                                                     protocol::Message(stray)));
                   protocol::MemInfoReply own;
                   own.total = 2_GiB;
                   (void)server.SendBytes(
                       conn, protocol::EncodePayload(
                                 protocol::json_codec(), protocol::Message(own),
                                 protocol::PeekPayloadReqId(payload)));
                 })
          .ok());
  auto link = SocketSchedulerLink::Connect(path, HelloOptions("c", 1));
  ASSERT_TRUE(link.ok());
  auto reply = protocol::Expect<protocol::MemInfoReply>(
      (*link)->Call(protocol::Message(NoncedProbe(1))));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->total, 2_GiB);
  EXPECT_EQ((*link)->outstanding_calls(), 0u);
  link->reset();
  server.Stop();
}

TEST(SchedulerLinkPipeliningTest, BlockingCallRejectsMismatchedEcho) {
  // protocol::Call over a raw client refuses a reply correlated to some
  // *other* request, or to none, instead of silently consuming it.
  TempDir dir;
  for (const bool echo_an_id : {true, false}) {
    const std::string path =
        dir.path() + (echo_an_id ? "/liar.sock" : "/mute.sock");
    ipc::MessageServer server;
    ASSERT_TRUE(
        server
            .Start(path,
                   [&](ipc::ConnectionId conn, std::string_view payload) {
                     auto id = protocol::PeekPayloadReqId(payload);
                     if (id) ++*id;  // some other request's id
                     if (!echo_an_id) id.reset();
                     (void)server.SendBytes(
                         conn, protocol::EncodePayload(
                                   protocol::json_codec(),
                                   protocol::Message(protocol::Pong{}), id));
                   })
            .ok());
    auto client = ipc::MessageClient::ConnectUnix(path);
    ASSERT_TRUE(client.ok());
    auto reply = protocol::Call(**client, protocol::Message(protocol::Ping{}),
                                /*req_id=*/7);
    ASSERT_FALSE(reply.ok()) << "echo_an_id=" << echo_an_id;
    EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
    server.Stop();
  }
}

// --- Suspended alloc no longer blocks the link ------------------------------

class PipelinedLinkFixture : public ::testing::Test {
 protected:
  PipelinedLinkFixture() {
    SchedulerServerOptions options;
    options.base_dir = dir_.path();
    options.scheduler.capacity = 1_GiB;
    options.scheduler.first_alloc_overhead = 0;
    server_ = std::make_unique<SchedulerServer>(std::move(options));
    EXPECT_TRUE(server_->Start().ok());
  }

  /// Registers a container over the real main socket so it owns a socket.
  std::string Register(const std::string& id, Bytes limit) {
    auto client = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
    EXPECT_TRUE(client.ok());
    protocol::RegisterContainer request;
    request.container_id = id;
    request.memory_limit = limit;
    auto reply = protocol::Expect<protocol::RegisterReply>(
        protocol::Call(**client, protocol::Message(request), /*req_id=*/1));
    EXPECT_TRUE(reply.ok() && reply->ok);
    return reply->socket_path;
  }

  TempDir dir_;
  std::unique_ptr<SchedulerServer> server_;
};

TEST_F(PipelinedLinkFixture, SuspendedAllocDoesNotBlockSiblingCallsOrFrees) {
  // "hog" owns the whole pool; "victim"'s allocation must suspend.
  ASSERT_TRUE(server_->core().RegisterContainer("hog", 1_GiB).ok());
  bool hog_granted = false;
  server_->core().RequestAlloc("hog", 1, 1_GiB,
                               [&](const Status& s) { hog_granted = s.ok(); });
  ASSERT_TRUE(hog_granted);
  ASSERT_TRUE(server_->core().CommitAlloc("hog", 1, 0xB0B, 1_GiB).ok());

  const std::string victim_socket = Register("victim", 512_MiB);
  auto link =
      SocketSchedulerLink::Connect(victim_socket, HelloOptions("victim", 7));
  ASSERT_TRUE(link.ok());

  // Thread A: the alloc that parks daemon-side.
  protocol::AllocRequest parked;
  parked.container_id = "victim";
  parked.pid = 7;
  parked.size = 256_MiB;
  parked.api = "cudaMalloc";
  auto parked_future = (*link)->AsyncCall(protocol::Message(parked));

  ASSERT_TRUE(convgpu::testing::WaitUntil(
      [&] { return server_->core().pending_request_count() != 0; }));
  ASSERT_EQ(server_->core().pending_request_count(), 1u);

  // Sibling call on the SAME link while the alloc is parked. Under the old
  // serialized link this blocked forever behind the suspended Call — the
  // deadlock this suite exists to prevent.
  protocol::MemGetInfoRequest probe;
  probe.container_id = "victim";
  probe.pid = 8;
  auto probe_future = (*link)->AsyncCall(protocol::Message(probe));
  ASSERT_EQ(probe_future.wait_for(kGenerousTimeout), std::future_status::ready);
  auto probe_reply = protocol::Expect<protocol::MemInfoReply>(probe_future.get());
  ASSERT_TRUE(probe_reply.ok());
  EXPECT_EQ(probe_reply->total, 512_MiB);
  // The ledger page may have answered that probe without a frame; a ping
  // always crosses the socket.
  auto ping_future = (*link)->AsyncCall(protocol::Message(protocol::Ping{}));
  ASSERT_EQ(ping_future.wait_for(kGenerousTimeout), std::future_status::ready);
  EXPECT_TRUE(protocol::Expect<protocol::Pong>(ping_future.get()).ok());

  // The parked alloc is still parked — the probe didn't steal its reply.
  EXPECT_EQ(parked_future.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_EQ((*link)->outstanding_calls(), 1u);

  // The hog's close releases its assignment back to the pool and the
  // redistribution loop un-suspends the victim; the deferred grant must
  // land on the parked caller, correlated by the echoed req_id.
  ASSERT_TRUE(server_->core().ContainerClose("hog").ok());
  ASSERT_EQ(parked_future.wait_for(kGenerousTimeout),
            std::future_status::ready);
  auto granted = protocol::Expect<protocol::AllocReply>(parked_future.get());
  ASSERT_TRUE(granted.ok());
  EXPECT_TRUE(granted->granted);
  EXPECT_EQ((*link)->outstanding_calls(), 0u);
}

TEST_F(PipelinedLinkFixture, ManyOutstandingAllocsResolveIndependently) {
  // N parked allocs on ONE link, released one at a time: each release
  // completes exactly one future (FIFO by the scheduler's pending queue).
  ASSERT_TRUE(server_->core().RegisterContainer("hog", 1_GiB).ok());
  bool hog_granted = false;
  server_->core().RequestAlloc("hog", 1, 1_GiB,
                               [&](const Status& s) { hog_granted = s.ok(); });
  ASSERT_TRUE(hog_granted);
  ASSERT_TRUE(server_->core().CommitAlloc("hog", 1, 0xB0B, 1_GiB).ok());

  const std::string victim_socket = Register("victim", 1_GiB);
  auto link = SocketSchedulerLink::Connect(victim_socket,
                                          HelloOptions("victim", 100));
  ASSERT_TRUE(link.ok());

  constexpr int kParked = 4;
  std::vector<SchedulerLink::ReplyFuture> futures;
  for (int i = 0; i < kParked; ++i) {
    protocol::AllocRequest request;
    request.container_id = "victim";
    request.pid = 100 + i;
    request.size = 256_MiB;
    request.api = "cudaMalloc";
    futures.push_back((*link)->AsyncCall(protocol::Message(request)));
  }
  ASSERT_TRUE(convgpu::testing::WaitUntil([&] {
    return server_->core().pending_request_count() >=
           static_cast<std::size_t>(kParked);
  }));
  ASSERT_EQ(server_->core().pending_request_count(),
            static_cast<std::size_t>(kParked));
  EXPECT_EQ((*link)->outstanding_calls(), static_cast<std::size_t>(kParked));

  // Closing the hog returns its whole assignment to the pool; all four
  // grants then race out together. Every future completes granted — each
  // matched to its own req_id, not merely "four replies arrived" — and the
  // link drains to zero outstanding.
  ASSERT_TRUE(server_->core().ContainerClose("hog").ok());
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(kGenerousTimeout), std::future_status::ready);
    auto reply = protocol::Expect<protocol::AllocReply>(future.get());
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply->granted);
  }
  EXPECT_EQ((*link)->outstanding_calls(), 0u);
}

}  // namespace
}  // namespace convgpu
