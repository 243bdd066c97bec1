// Wire-encoding interop: a link and a daemon must converge on an encoding
// both sides speak, with zero configuration. The link always asks for
// binary and the daemon grants it; a daemon whose reply does not grant it
// (a scripted one here) keeps the link on JSON, byte-for-byte the paper's
// wire format, and so does a raw JSON peer whose hello does not ask. A
// reconnect onto a daemon that answers differently re-negotiates from
// scratch without dropping the in-flight calls it replays.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "convgpu/codec.h"
#include "convgpu/convgpu.h"
#include "tests/fault_harness.h"
#include "tests/test_util.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;
using namespace std::chrono_literals;
using convgpu::testing::AnswerHandshake;
using convgpu::testing::FaultScheduler;
using convgpu::testing::HandshakeAnswer;
using convgpu::testing::HelloFrame;
using convgpu::testing::TempDir;
using convgpu::testing::WaitUntil;

/// A scripted daemon on one socket: accepts every hello and reattach,
/// granting binary only when `binary`; grants every alloc_request and
/// answers mem_get_info with a 1 GiB total, each reply in the request's own
/// encoding.
class ScriptedDaemon {
 public:
  ScriptedDaemon(const std::string& path, bool binary) {
    HandshakeAnswer answer;
    answer.binary = binary;
    answer.limit = 1_GiB;
    const Status started = server_.Start(
        path, [this, answer](ipc::ConnectionId conn, std::string_view payload) {
          if (AnswerHandshake(server_, conn, payload, answer)) return;
          std::optional<protocol::ReqId> req_id;
          auto request = protocol::DecodePayload(payload, req_id);
          if (!request.ok()) return;
          protocol::Message reply;
          if (std::holds_alternative<protocol::MemGetInfoRequest>(*request)) {
            protocol::MemInfoReply info;
            info.total = 1_GiB;
            reply = info;
          } else if (std::holds_alternative<protocol::AllocRequest>(
                         *request)) {
            protocol::AllocReply granted;
            granted.granted = true;
            reply = granted;
          } else {
            return;  // notifications
          }
          (void)server_.SendBytes(
              conn, protocol::EncodePayload(protocol::DetectCodec(payload),
                                            reply, req_id));
        });
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~ScriptedDaemon() { server_.Stop(); }

 private:
  ipc::MessageServer server_;
};

class WireInteropTest : public ::testing::Test {
 protected:
  WireInteropTest() {
    SchedulerServerOptions options;
    options.base_dir = dir_.path();
    options.scheduler.capacity = 5_GiB;
    fault_ = std::make_unique<FaultScheduler>(std::move(options));
    EXPECT_TRUE(fault_->Up().ok());
  }

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

  /// One full admission exchange — proof the negotiated encoding actually
  /// carries scheduler traffic, not just the handshake.
  static void ExpectAllocWorks(SchedulerLink& link, const std::string& id,
                               Pid pid) {
    protocol::AllocRequest request;
    request.container_id = id;
    request.pid = pid;
    request.size = 16_MiB;
    request.api = "cudaMalloc";
    auto granted = protocol::Expect<protocol::AllocReply>(
        link.Call(protocol::Message(request)));
    ASSERT_TRUE(granted.ok()) << granted.status().ToString();
    EXPECT_TRUE(granted->granted) << granted->error;
    protocol::AllocAbort abort;
    abort.container_id = id;
    abort.pid = pid;
    abort.size = 16_MiB;
    ASSERT_TRUE(link.Notify(protocol::Message(abort)).ok());
  }

  TempDir dir_;
  std::unique_ptr<FaultScheduler> fault_;
};

TEST_F(WireInteropTest, TwoBinaryCapablePeersUpgrade) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), FastOptions("c1", 7));
  ASSERT_TRUE(link.ok());
  EXPECT_EQ((*link)->wire_codec_name(), "binary");
  ExpectAllocWorks(**link, "c1", 7);
}

TEST_F(WireInteropTest, BinaryLinkAgainstJsonOnlyDaemonFallsBack) {
  // The daemon parses the hello fine (the advertisement is just an extra
  // key) but its reply does not grant the upgrade.
  const std::string path = dir_.path() + "/scripted.sock";
  ScriptedDaemon daemon(path, /*binary=*/false);
  auto link = SocketSchedulerLink::Connect(path, FastOptions("c1", 7));
  ASSERT_TRUE(link.ok());
  EXPECT_EQ((*link)->wire_codec_name(), "json");
  ExpectAllocWorks(**link, "c1", 7);
}

TEST_F(WireInteropTest, RawJsonPeerSeesOnlyJsonBytes) {
  // A raw peer says an id-less JSON hello that does not ask for binary,
  // then speaks id-less JSON frames. Every reply must come back as JSON —
  // the daemon may only switch a connection that asked.
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto client =
      ipc::MessageClient::ConnectUnix(fault_->container_socket_path("c1"));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->SendFrame(HelloFrame("c1", 3)).ok());
  auto hello_reply = (*client)->RecvFrame();
  ASSERT_TRUE(hello_reply.ok());
  EXPECT_EQ(hello_reply->front(), '{') << *hello_reply;

  protocol::MemGetInfoRequest info;
  info.container_id = "c1";
  info.pid = 3;
  ASSERT_TRUE(
      (*client)
          ->SendFrame(protocol::EncodePayload(protocol::json_codec(),
                                              protocol::Message(info)))
          .ok());
  auto raw = (*client)->RecvFrame();
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw->empty());
  EXPECT_EQ(raw->front(), '{') << *raw;
  auto reply = protocol::Expect<protocol::MemInfoReply>(
      protocol::DecodePayload(*raw));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->total, 1_GiB);
}

TEST_F(WireInteropTest, HandshakeRepliesRideJsonThenTrafficSwitches) {
  // The upgrade takes effect strictly *after* the handshake exchange: the
  // hello reply itself arrives in JSON (the encoding the hello was sent
  // in), and only subsequent replies are binary. A raw client pins the
  // actual bytes.
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto client =
      ipc::MessageClient::ConnectUnix(fault_->container_socket_path("c1"));
  ASSERT_TRUE(client.ok());

  protocol::Hello hello;
  hello.container_id = "c1";
  hello.pid = 5;
  hello.binary = true;
  ASSERT_TRUE((*client)
                  ->SendFrame(protocol::EncodePayload(
                      protocol::json_codec(), protocol::Message(hello),
                      /*req_id=*/1))
                  .ok());
  auto raw = (*client)->RecvFrame();
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->front(), '{') << "hello reply must ride JSON: " << *raw;
  auto accepted =
      protocol::Expect<protocol::HelloReply>(protocol::DecodePayload(*raw));
  ASSERT_TRUE(accepted.ok() && accepted->ok);
  EXPECT_TRUE(accepted->binary);

  // From here on the daemon answers this connection in binary.
  ASSERT_TRUE((*client)
                  ->SendFrame(protocol::EncodePayload(
                      protocol::binary_codec(),
                      protocol::Message(protocol::Ping{}), /*req_id=*/2))
                  .ok());
  raw = (*client)->RecvFrame();
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw->empty());
  EXPECT_EQ(static_cast<unsigned char>(raw->front()), protocol::kBinaryMagic);
  EXPECT_EQ(protocol::PeekPayloadReqId(*raw), protocol::ReqId{2});
  auto pong = protocol::Expect<protocol::Pong>(protocol::DecodePayload(*raw));
  EXPECT_TRUE(pong.ok()) << pong.status().ToString();
}

TEST_F(WireInteropTest, ReconnectRenegotiatesOntoJsonOnlyDaemon) {
  // A binary connection dies; the daemon that comes back does not grant
  // binary. The reattach must downgrade the link — and the idempotent call
  // replayed across the outage must still get its answer, on the new
  // encoding.
  const std::string path = dir_.path() + "/scripted.sock";
  auto daemon = std::make_unique<ScriptedDaemon>(path, /*binary=*/true);
  auto link = SocketSchedulerLink::Connect(path, FastOptions("c1", 7));
  ASSERT_TRUE(link.ok());
  ASSERT_EQ((*link)->wire_codec_name(), "binary");

  daemon.reset();
  // In flight while the daemon is dark: replayable, so its future survives
  // the outage and resolves on the downgraded connection.
  protocol::MemGetInfoRequest info;
  info.container_id = "c1";
  info.pid = 7;
  auto pending = (*link)->AsyncCall(protocol::Message(info));

  daemon = std::make_unique<ScriptedDaemon>(path, /*binary=*/false);

  auto reply = protocol::Expect<protocol::MemInfoReply>(pending.get());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->total, 1_GiB);
  EXPECT_EQ((*link)->wire_codec_name(), "json");
  EXPECT_GE((*link)->reconnect_count(), 1u);
  ExpectAllocWorks(**link, "c1", 7);
  link->reset();
}

TEST_F(WireInteropTest, ReconnectUpgradesOntoBinaryCapableDaemon) {
  // The reverse migration: a link that met a daemon not granting binary
  // keeps advertising on every reattach, so the daemon that replaces it
  // can upgrade the wire without touching the wrapper.
  const std::string path = dir_.path() + "/scripted.sock";
  auto daemon = std::make_unique<ScriptedDaemon>(path, /*binary=*/false);
  auto link = SocketSchedulerLink::Connect(path, FastOptions("c1", 7));
  ASSERT_TRUE(link.ok());
  ASSERT_EQ((*link)->wire_codec_name(), "json");

  const std::uint64_t reconnects_before = (*link)->reconnect_count();
  daemon.reset();
  daemon = std::make_unique<ScriptedDaemon>(path, /*binary=*/true);

  // connected() alone is not enough: a fast Down/Up can finish before the
  // link's reader even notices the EOF, so wait for the reattach itself.
  ASSERT_TRUE(WaitUntil([&] {
    return (*link)->reconnect_count() > reconnects_before &&
           (*link)->connected();
  }));
  EXPECT_EQ((*link)->wire_codec_name(), "binary");
  ExpectAllocWorks(**link, "c1", 7);
  link->reset();
}

}  // namespace
}  // namespace convgpu
