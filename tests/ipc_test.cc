#include <gtest/gtest.h>

#include <sys/ioctl.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "convgpu/codec.h"
#include "ipc/framing.h"
#include "ipc/message_server.h"
#include "ipc/socket.h"
#include "tests/test_util.h"

namespace convgpu::ipc {
namespace {

using convgpu::testing::TempDir;

TEST(FramingTest, RoundTripsOverSocketPair) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(WriteFrame(pair->first.get(), "hello").ok());
  auto frame = ReadFrame(pair->second.get());
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, "hello");
}

TEST(FramingTest, EmptyFrameAllowed) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(WriteFrame(pair->first.get(), "").ok());
  auto frame = ReadFrame(pair->second.get());
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, "");
}

TEST(FramingTest, MultipleFramesStayDelimited) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(WriteFrame(pair->first.get(), "one").ok());
  ASSERT_TRUE(WriteFrame(pair->first.get(), "two").ok());
  EXPECT_EQ(*ReadFrame(pair->second.get()), "one");
  EXPECT_EQ(*ReadFrame(pair->second.get()), "two");
}

TEST(FramingTest, CleanEofIsAborted) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  pair->first.Reset();
  auto frame = ReadFrame(pair->second.get());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(FramingTest, OversizedFrameRejected) {
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  const std::string big(kMaxFrameBytes + 1, 'x');
  EXPECT_FALSE(WriteFrame(pair->first.get(), big).ok());
}

TEST(FramingTest, JsonMessagesRoundTrip) {
  // Framing carries encoded messages untouched: a JSON-encoded request
  // comes out of ReadFrame byte-identical and decodes to the same message.
  auto pair = SocketPair();
  ASSERT_TRUE(pair.ok());
  protocol::AllocRequest request;
  request.container_id = "c";
  request.pid = 42;
  request.size = 1 << 20;
  request.api = "cudaMalloc";
  const protocol::Message message(request);
  const std::string payload =
      protocol::EncodePayload(protocol::json_codec(), message, /*req_id=*/7);
  ASSERT_TRUE(WriteFrame(pair->first.get(), payload).ok());
  auto received = ReadFrame(pair->second.get());
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, payload);
  auto decoded = protocol::DecodePayload(*received);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == message);
  EXPECT_EQ(protocol::PeekPayloadReqId(*received), 7u);
}

TEST(UnixListenerTest, AcceptsConnections) {
  TempDir dir;
  auto listener = UnixListener::Bind(dir.path() + "/test.sock");
  ASSERT_TRUE(listener.ok());

  std::thread client([&] {
    auto fd = UnixConnect(dir.path() + "/test.sock");
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteFrame(fd->get(), "from-client").ok());
  });
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(*ReadFrame(conn->get()), "from-client");
  client.join();
}

TEST(UnixConnectTest, MissingSocketIsUnavailable) {
  auto fd = UnixConnect("/tmp/definitely-not-a-socket-xyz");
  EXPECT_EQ(fd.status().code(), StatusCode::kUnavailable);
}

TEST(TcpTest, LoopbackRoundTrip) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  ASSERT_GT(listener->port(), 0);

  std::thread client([port = listener->port()] {
    auto fd = TcpConnect(port);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteFrame(fd->get(), "tcp-hello").ok());
  });
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(*ReadFrame(conn->get()), "tcp-hello");
  client.join();
}

/// One request frame out, one reply frame back.
Result<std::string> CallBytes(MessageClient& client, std::string_view request) {
  CONVGPU_RETURN_IF_ERROR(client.SendFrame(request));
  return client.RecvFrame();
}

class MessageServerTest : public ::testing::Test {
 protected:
  TempDir dir_;
  MessageServer server_;

  std::string SocketPath() { return dir_.path() + "/srv.sock"; }
};

TEST_F(MessageServerTest, EchoesImmediately) {
  ASSERT_TRUE(server_
                  .Start(SocketPath(),
                         [this](ConnectionId conn, std::string_view payload) {
                           (void)server_.SendBytes(
                               conn, "echo:" + std::string(payload));
                         })
                  .ok());

  auto client = MessageClient::ConnectUnix(SocketPath());
  ASSERT_TRUE(client.ok());
  auto reply = CallBytes(**client, "ping");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo:ping");
}

TEST_F(MessageServerTest, CarriesOpaqueBytes) {
  // The reactor does not interpret payloads: arbitrary non-JSON bytes
  // (NULs, high bits, a lone 0xBF) survive the byte-level
  // Start/SendBytes/SendFrame/RecvFrame path untouched.
  ASSERT_TRUE(server_
                  .Start(SocketPath(),
                         [this](ConnectionId conn, std::string_view view) {
                           std::string payload(view);
                           payload.push_back('!');
                           (void)server_.SendBytes(conn, payload);
                         })
                  .ok());

  auto client = MessageClient::ConnectUnix(SocketPath());
  ASSERT_TRUE(client.ok());
  const std::string blob = std::string("\xBF\x00\x01binary\xFF", 9);
  ASSERT_TRUE((*client)->SendFrame(blob).ok());
  auto reply = (*client)->RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, blob + "!");
}

TEST_F(MessageServerTest, DeferredReplyFromAnotherThread) {
  // The suspension pattern: handler stores the connection; a different
  // thread answers later.
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<ConnectionId> waiting;

  ASSERT_TRUE(server_
                  .Start(SocketPath(),
                         [&](ConnectionId conn, std::string_view) {
                           std::lock_guard lock(mutex);
                           waiting = conn;
                           cv.notify_one();
                         })
                  .ok());

  std::thread releaser([&] {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return waiting.has_value(); });
    EXPECT_TRUE(server_.SendBytes(*waiting, "granted").ok());
  });

  auto client = MessageClient::ConnectUnix(SocketPath());
  ASSERT_TRUE(client.ok());
  auto reply = CallBytes(**client, "alloc");  // blocks until the releaser acts
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "granted");
  releaser.join();
}

TEST_F(MessageServerTest, DisconnectHandlerFires) {
  std::atomic<int> disconnects{0};
  ASSERT_TRUE(server_
                  .Start(
                      SocketPath(), [](ConnectionId, std::string_view) {},
                      [&](ConnectionId) { ++disconnects; })
                  .ok());
  {
    auto client = MessageClient::ConnectUnix(SocketPath());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->SendFrame("hello").ok());
  }  // client destroyed -> connection closes
  for (int i = 0; i < 200 && disconnects.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(disconnects.load(), 1);
}

TEST_F(MessageServerTest, ManyConcurrentClients) {
  std::atomic<int> received{0};
  ASSERT_TRUE(server_
                  .Start(SocketPath(),
                         [&](ConnectionId conn, std::string_view payload) {
                           ++received;
                           (void)server_.SendBytes(conn, payload);
                         })
                  .ok());
  constexpr int kClients = 16;
  constexpr int kMessages = 20;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = MessageClient::ConnectUnix(SocketPath());
      ASSERT_TRUE(client.ok());
      for (int m = 0; m < kMessages; ++m) {
        const std::string request =
            std::to_string(c) + ":" + std::to_string(m);
        auto reply = CallBytes(**client, request);
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(*reply, request);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(received.load(), kClients * kMessages);
}

TEST_F(MessageServerTest, SendToUnknownConnectionIsNotFound) {
  ASSERT_TRUE(
      server_.Start(SocketPath(), [](ConnectionId, std::string_view) {}).ok());
  EXPECT_EQ(server_.SendBytes(9999, "x").code(), StatusCode::kNotFound);
}

TEST_F(MessageServerTest, StopIsIdempotent) {
  ASSERT_TRUE(
      server_.Start(SocketPath(), [](ConnectionId, std::string_view) {}).ok());
  server_.Stop();
  server_.Stop();
}

TEST_F(MessageServerTest, MultipleListenersShareOneReactor) {
  // Two sockets, one server: handlers see which listener the connection
  // arrived on, and an echo on either carries a listener-specific tag.
  ASSERT_TRUE(server_.Start().ok());

  std::atomic<int> disconnects{0};
  auto add = [&](const std::string& path,
                 const std::string& tag) -> ListenerId {
    auto id = server_.AddListener(
        path,
        [&, tag](ListenerId listener, ConnectionId conn, std::string_view) {
          (void)server_.SendBytes(conn,
                                  tag + ":" + std::to_string(listener));
        },
        [&](ListenerId, ConnectionId) { ++disconnects; });
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  };
  const std::string path_a = dir_.path() + "/a.sock";
  const std::string path_b = dir_.path() + "/b.sock";
  const ListenerId a = add(path_a, "alpha");
  const ListenerId b = add(path_b, "beta");
  ASSERT_NE(a, b);
  EXPECT_EQ(server_.listener_count(), 2u);
  EXPECT_EQ(server_.listener_path(a), path_a);
  EXPECT_EQ(server_.listener_path(b), path_b);

  {
    auto client = MessageClient::ConnectUnix(path_a);
    ASSERT_TRUE(client.ok());
    auto reply = CallBytes(**client, "ping");
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(*reply, "alpha:" + std::to_string(a));
  }
  {
    auto client = MessageClient::ConnectUnix(path_b);
    ASSERT_TRUE(client.ok());
    auto reply = CallBytes(**client, "ping");
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(*reply, "beta:" + std::to_string(b));
  }
  for (int i = 0; i < 200 && disconnects.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(disconnects.load(), 2);
}

TEST_F(MessageServerTest, RemoveListenerUnlinksPathAndDropsConnections) {
  ASSERT_TRUE(server_.Start().ok());
  std::atomic<int> disconnects{0};
  auto id = server_.AddListener(
      SocketPath(),
      [&](ListenerId, ConnectionId conn, std::string_view payload) {
        (void)server_.SendBytes(conn, payload);
      },
      [&](ListenerId, ConnectionId) { ++disconnects; });
  ASSERT_TRUE(id.ok());

  auto client = MessageClient::ConnectUnix(SocketPath());
  ASSERT_TRUE(client.ok());
  // Round-trip first so the connection is accepted onto the reactor (a
  // connection still in the listen backlog is simply reset with the
  // listening socket — no disconnect callback for something never served).
  ASSERT_TRUE(CallBytes(**client, "hello").ok());

  ASSERT_TRUE(server_.RemoveListener(*id).ok());
  EXPECT_EQ(server_.listener_count(), 0u);
  EXPECT_EQ(server_.RemoveListener(*id).code(), StatusCode::kNotFound);

  // The path is unlinked: new connections fail...
  for (int i = 0; i < 200 && MessageClient::ConnectUnix(SocketPath()).ok();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(MessageClient::ConnectUnix(SocketPath()).ok());
  // ...and the existing connection is dropped (with its handler told).
  for (int i = 0; i < 200 && disconnects.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(disconnects.load(), 1);
  EXPECT_EQ((*client)->RecvFrame().status().code(), StatusCode::kAborted);
}

TEST_F(MessageServerTest, HandlersSurviveRemoveListenerForLiveConnections) {
  // A connection's callbacks are pinned at accept time; removing another
  // listener (or this one) must not leave live connections with dangling
  // handlers. Exercised here by removing listener B while A still chats.
  ASSERT_TRUE(server_.Start().ok());
  auto a = server_.AddListener(
      dir_.path() + "/a.sock",
      [&](ListenerId, ConnectionId conn, std::string_view payload) {
        (void)server_.SendBytes(conn, payload);
      });
  auto b = server_.AddListener(dir_.path() + "/b.sock",
                               [](ListenerId, ConnectionId, std::string_view) {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto client = MessageClient::ConnectUnix(dir_.path() + "/a.sock");
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(server_.RemoveListener(*b).ok());

  auto reply = CallBytes(**client, "seq:7");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "seq:7");
}

TEST(MessageServerBackpressureTest, SlowConsumerIsDisconnected) {
  // A consumer that never reads must not grow the daemon's write queues
  // unboundedly: once the per-connection cap trips, SendBytes() reports
  // kResourceExhausted and the connection is kicked.
  TempDir dir;
  MessageServer::Options options;
  options.max_queued_bytes_per_connection = 64 * 1024;
  MessageServer server(options);

  std::mutex mutex;
  std::condition_variable cv;
  std::optional<ConnectionId> victim;
  std::atomic<int> disconnects{0};
  const std::string path = dir.path() + "/srv.sock";
  ASSERT_TRUE(server
                  .Start(
                      path,
                      [&](ConnectionId conn, std::string_view) {
                        std::lock_guard lock(mutex);
                        victim = conn;
                        cv.notify_one();
                      },
                      [&](ConnectionId) { ++disconnects; })
                  .ok());

  auto client = MessageClient::ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->SendFrame("hello").ok());
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return victim.has_value(); });
  }

  // Flood the non-reading client until the cap trips. The socket's kernel
  // buffers absorb some; the 64 KiB queue cap bounds the rest.
  const std::string blob(8 * 1024, 'x');
  Status status = Status::Ok();
  for (int i = 0; i < 1000 && status.ok(); ++i) {
    status = server.SendBytes(*victim, blob);
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);

  for (int i = 0; i < 200 && disconnects.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(disconnects.load(), 1);
  // The connection is gone for good: further sends are kNotFound.
  for (int i = 0; i < 200 && server.SendBytes(*victim, blob).code() !=
                                 StatusCode::kNotFound;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.SendBytes(*victim, blob).code(), StatusCode::kNotFound);
}

TEST(MessageClientTest, ShutdownTwiceIsSafeAndWakesBlockedRecv) {
  // Shutdown() is documented idempotent and callable from any thread: the
  // link's hang-up watcher calls it on teardown while a caller may call it
  // again on a send failure. Both orders must leave a client whose
  // blocked RecvFrame() has woken and whose later calls fail cleanly.
  TempDir dir;
  MessageServer server;
  const std::string path = dir.path() + "/srv.sock";
  ASSERT_TRUE(server.Start(path, [](ConnectionId, std::string_view) {}).ok());

  auto client = MessageClient::ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  std::thread reader([&] {
    auto frame = (*client)->RecvFrame();  // blocks: the server never replies
    EXPECT_FALSE(frame.ok());
  });
  (*client)->Shutdown();
  reader.join();
  (*client)->Shutdown();  // second call: no crash, no error

  EXPECT_FALSE((*client)->SendFrame("late").ok());
  EXPECT_FALSE((*client)->RecvFrame().ok());
}

// --- Buffered receive side of MessageClient ---------------------------------

/// A MessageClient connected to a bare accepted socket, so a test writes
/// exactly the bytes (and the write boundaries) it wants the client to see.
class MessageClientBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto listener = UnixListener::Bind(dir_.path() + "/raw.sock");
    ASSERT_TRUE(listener.ok());
    auto client = MessageClient::ConnectUnix(listener->path());
    ASSERT_TRUE(client.ok());
    auto peer = listener->Accept();
    ASSERT_TRUE(peer.ok());
    client_ = std::move(*client);
    peer_ = std::move(*peer);
  }

  /// One write(2) carrying `bytes`.
  void WriteRaw(const std::string& bytes) {
    ASSERT_TRUE(WriteExact(peer_.get(), bytes.data(), bytes.size()).ok());
  }

  /// Bytes still queued in the client's socket, i.e. not yet read into its
  /// buffer.
  int UnreadBytes() const {
    int unread = -1;
    EXPECT_EQ(::ioctl(client_->fd(), FIONREAD, &unread), 0);
    return unread;
  }

  static std::string Frames(std::initializer_list<std::string_view> payloads) {
    std::string bytes;
    for (std::string_view payload : payloads) AppendFrame(bytes, payload);
    return bytes;
  }

  TempDir dir_;
  std::unique_ptr<MessageClient> client_;
  Fd peer_;
};

TEST_F(MessageClientBufferTest, TwoFramesInOneWriteComeBackFromTwoReceives) {
  WriteRaw(Frames({"first", "second"}));
  auto first = client_->RecvFrame();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, "first");
  // One read brought both: the second is already buffered.
  EXPECT_EQ(UnreadBytes(), 0);
  auto second = client_->RecvFrame();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, "second");
}

TEST_F(MessageClientBufferTest, TimedReceiveServesTheBufferWithoutWaiting) {
  WriteRaw(Frames({"one", "two"}));
  ASSERT_TRUE(client_->RecvFrame().ok());  // the read takes both frames
  // The socket is empty now; a zero timeout can only succeed from the
  // buffer, never by polling the socket.
  ASSERT_EQ(UnreadBytes(), 0);
  auto buffered = client_->RecvFrame(std::chrono::milliseconds(0));
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_EQ(*buffered, "two");
  // And with nothing buffered the same call times out instead of blocking.
  EXPECT_EQ(client_->RecvFrame(std::chrono::milliseconds(0)).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(MessageClientBufferTest, FrameSplitAcrossReadsIsReassembled) {
  const std::string payload(100, 'p');
  const std::string bytes = Frames({payload, "tail"});
  // Half a header, then half the payload, then the rest: each timed receive
  // buffers what arrived and times out without losing it.
  WriteRaw(bytes.substr(0, 2));
  EXPECT_EQ(client_->RecvFrame(std::chrono::milliseconds(0)).status().code(),
            StatusCode::kDeadlineExceeded);
  WriteRaw(bytes.substr(2, 50));
  EXPECT_EQ(client_->RecvFrame(std::chrono::milliseconds(0)).status().code(),
            StatusCode::kDeadlineExceeded);
  WriteRaw(bytes.substr(52));
  auto whole = client_->RecvFrame();
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(*whole, payload);
  auto tail = client_->RecvFrame();
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(*tail, "tail");
}

TEST_F(MessageClientBufferTest, OversizedLengthIsRejectedFromTheHeader) {
  // Only the header is sent: a client that waited to buffer the announced
  // payload would time out instead of failing typed at once.
  std::string header;
  AppendFrame(header, "");
  const auto length = static_cast<std::uint32_t>(kMaxFrameBytes + 1);
  header[0] = static_cast<char>(length >> 24);
  header[1] = static_cast<char>((length >> 16) & 0xFF);
  header[2] = static_cast<char>((length >> 8) & 0xFF);
  header[3] = static_cast<char>(length & 0xFF);
  WriteRaw(header);
  auto frame = client_->RecvFrame(std::chrono::seconds(5));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInternal);
  EXPECT_NE(frame.status().message().find("oversized"), std::string::npos);
}

TEST_F(MessageClientBufferTest, EofInsideAFrameIsATypedError) {
  WriteRaw(Frames({"complete"}) + Frames({"truncated"}).substr(0, 7));
  auto complete = client_->RecvFrame();
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(*complete, "complete");
  peer_.Reset();  // the peer dies three bytes into the next payload
  auto truncated = client_->RecvFrame();
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInternal);
  EXPECT_NE(truncated.status().message().find("EOF inside frame"),
            std::string::npos);
  // A clean EOF between frames stays kAborted.
  EXPECT_NE(truncated.status().code(), StatusCode::kAborted);
}

TEST_F(MessageClientBufferTest, CleanEofBetweenFramesIsAborted) {
  WriteRaw(Frames({"last"}));
  peer_.Reset();
  ASSERT_TRUE(client_->RecvFrame().ok());
  EXPECT_EQ(client_->RecvFrame().status().code(), StatusCode::kAborted);
}

TEST(MessageServerRaceTest, RemoveListenerRacesUndeliveredDeferredReply) {
  // The scheduler holds a suspended alloc's (listener, connection) pair and
  // answers much later, possibly while ContainerClose is tearing the
  // listener down. SendBytes() racing RemoveListener() must resolve to
  // delivery or kNotFound — never a crash, deadlock, or use-after-free (this
  // runs under the TSan/ASan legs of tools/check.sh).
  for (int round = 0; round < 50; ++round) {
    TempDir dir;
    MessageServer server;
    ASSERT_TRUE(server.Start().ok());

    std::mutex mutex;
    std::condition_variable cv;
    std::optional<ConnectionId> conn;
    auto listener = server.AddListener(
        dir.path() + "/srv.sock",
        [&](ListenerId, ConnectionId c, std::string_view) {
          std::lock_guard lock(mutex);
          conn = c;
          cv.notify_one();
        });
    ASSERT_TRUE(listener.ok());

    auto client = MessageClient::ConnectUnix(dir.path() + "/srv.sock");
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->SendFrame("alloc").ok());
    {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return conn.has_value(); });
    }

    // The deferred grant fires on its own thread, racing the removal.
    std::thread deferred([&] {
      const Status sent = server.SendBytes(*conn, "granted");
      EXPECT_TRUE(sent.ok() || sent.code() == StatusCode::kNotFound)
          << sent.ToString();
    });
    ASSERT_TRUE(server.RemoveListener(*listener).ok());
    deferred.join();
    // The client saw the grant or a clean EOF — nothing else.
    auto got = (*client)->RecvFrame();
    if (got.ok()) {
      EXPECT_EQ(*got, "granted");
    }
    server.Stop();
  }
}

TEST(MessageServerBackpressureTest, KicksAreCountedPerListener) {
  // Observability companion to SlowConsumerIsDisconnected: every kicked
  // connection increments its listener's counter and the server-wide total,
  // and the counters survive RemoveListener so stats keep attributing past
  // kicks.
  TempDir dir;
  MessageServer::Options options;
  options.max_queued_bytes_per_connection = 64 * 1024;
  MessageServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::mutex mutex;
  std::condition_variable cv;
  std::optional<ConnectionId> victim;
  auto on_message = [&](ListenerId, ConnectionId conn, std::string_view) {
    std::lock_guard lock(mutex);
    victim = conn;
    cv.notify_one();
  };
  auto quiet = server.AddListener(dir.path() + "/quiet.sock", on_message);
  ASSERT_TRUE(quiet.ok());
  auto busy = server.AddListener(dir.path() + "/busy.sock", on_message);
  ASSERT_TRUE(busy.ok());

  auto client = MessageClient::ConnectUnix(dir.path() + "/busy.sock");
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->SendFrame("hello").ok());
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return victim.has_value(); });
  }

  EXPECT_EQ(server.total_kicked_connections(), 0u);
  const std::string blob(8 * 1024, 'x');
  Status status = Status::Ok();
  for (int i = 0; i < 1000 && status.ok(); ++i) {
    status = server.SendBytes(*victim, blob);
  }
  ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(convgpu::testing::WaitUntil(
      [&] { return server.total_kicked_connections() == 1; }));
  EXPECT_EQ(server.kicked_connections(*busy), 1u);   // attributed here
  EXPECT_EQ(server.kicked_connections(*quiet), 0u);  // not here
  EXPECT_EQ(server.kicked_connections(9999), 0u);    // unknown listener

  // The attribution outlives the listener itself.
  ASSERT_TRUE(server.RemoveListener(*busy).ok());
  EXPECT_EQ(server.kicked_connections(*busy), 1u);
  EXPECT_EQ(server.total_kicked_connections(), 1u);
}

TEST(MessageServerRaceTest, AddListenerDuringStopFailsCleanly) {
  // Regression test (run under TSan/ASan via tools/check.sh): AddListener
  // racing Stop() must either succeed before the shutdown or fail with
  // kFailedPrecondition — never crash, deadlock, or leak the bound fd.
  for (int round = 0; round < 50; ++round) {
    TempDir dir;
    MessageServer server;
    ASSERT_TRUE(server.Start().ok());

    std::thread adder([&] {
      for (int i = 0; i < 8; ++i) {
        auto id = server.AddListener(
            dir.path() + "/race-" + std::to_string(i) + ".sock",
            [](ListenerId, ConnectionId, std::string_view) {});
        if (!id.ok()) {
          EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
        }
      }
    });
    server.Stop();
    adder.join();

    // Either way the server restarts from scratch without tripping over
    // leftover state.
    ASSERT_TRUE(server.Start().ok());
    auto id = server.AddListener(dir.path() + "/after.sock",
                                 [](ListenerId, ConnectionId, std::string_view) {});
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    server.Stop();
  }
}

}  // namespace
}  // namespace convgpu::ipc
