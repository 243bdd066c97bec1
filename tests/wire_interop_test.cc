// Wire-encoding interop: the daemon answers every frame in the encoding
// that frame arrived in, so nothing is negotiated and a link needs no
// configuration. The link sends its handshake as JSON and every frame after
// it as binary; a raw JSON peer sees only JSON bytes, byte-for-byte the
// paper's wire format.
#include <gtest/gtest.h>

#include <chrono>
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
using convgpu::testing::FaultScheduler;
using convgpu::testing::HelloFrame;
using convgpu::testing::HelloOptions;
using convgpu::testing::TempDir;
using convgpu::testing::WaitUntil;

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

  /// One full admission exchange — proof the link's binary frames carry
  /// scheduler traffic, not just the handshake.
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

  /// Sends `message` encoded with `codec` and tagged `req_id`.
  static Status SendIn(ipc::MessageClient& client,
                       const protocol::Codec& codec,
                       const protocol::Message& message,
                       protocol::ReqId req_id) {
    return client.SendFrame(protocol::EncodePayload(codec, message, req_id));
  }

  /// Receives one frame, checks that it rides `codec` and echoes `req_id`,
  /// and decodes it.
  static Result<protocol::Message> RecvIn(ipc::MessageClient& client,
                                          const protocol::Codec& codec,
                                          protocol::ReqId req_id) {
    auto raw = client.RecvFrame(5s);
    if (!raw.ok()) return raw.status();
    EXPECT_EQ(protocol::DetectCodec(*raw).name(), codec.name())
        << "reply to req_id " << req_id;
    EXPECT_EQ(protocol::PeekPayloadReqId(*raw), req_id);
    return protocol::DecodePayload(*raw);
  }

  TempDir dir_;
  std::unique_ptr<FaultScheduler> fault_;
};

TEST_F(WireInteropTest, TwoBinaryCapablePeersUpgrade) {
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto link = SocketSchedulerLink::Connect(
      fault_->container_socket_path("c1"), HelloOptions("c1", 7));
  ASSERT_TRUE(link.ok());
  EXPECT_EQ((*link)->wire_codec_name(), "binary");
  ExpectAllocWorks(**link, "c1", 7);
}

TEST_F(WireInteropTest, RawJsonPeerSeesOnlyJsonBytes) {
  // A raw peer says an id-less JSON hello, then speaks id-less JSON
  // frames. Every reply must come back as JSON.
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
  // The link's exchange, pinned byte by byte with a raw client: the hello
  // travels as JSON and its reply arrives in JSON, and the binary frames
  // after it are answered in binary.
  ASSERT_TRUE(Register("c1", 1_GiB).ok());
  auto client =
      ipc::MessageClient::ConnectUnix(fault_->container_socket_path("c1"));
  ASSERT_TRUE(client.ok());

  protocol::Hello hello;
  hello.container_id = "c1";
  hello.pid = 5;
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

TEST_F(WireInteropTest, EachFrameIsAnsweredInItsOwnEncoding) {
  // Nothing is negotiated. After a JSON hello that says nothing about
  // encodings, one connection gets a binary answer to a binary frame and a
  // JSON answer to a JSON one; a suspended request's deferred grant rides
  // the request's encoding; and the main socket follows the same rule.
  const protocol::Codec& json = protocol::json_codec();
  const protocol::Codec& binary = protocol::binary_codec();
  ASSERT_TRUE(Register("hog", 4_GiB).ok());
  ASSERT_TRUE(Register("c1", 2_GiB).ok());
  auto hog = SocketSchedulerLink::Connect(
      fault_->container_socket_path("hog"), HelloOptions("hog", 1));
  ASSERT_TRUE(hog.ok());
  protocol::AllocRequest hog_request;
  hog_request.container_id = "hog";
  hog_request.pid = 1;
  hog_request.size = 4_GiB;
  auto hog_granted = protocol::Expect<protocol::AllocReply>(
      (*hog)->Call(protocol::Message(hog_request)));
  ASSERT_TRUE(hog_granted.ok() && hog_granted->granted);

  auto client =
      ipc::MessageClient::ConnectUnix(fault_->container_socket_path("c1"));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->SendFrame(HelloFrame("c1", 3)).ok());
  auto hello_reply = (*client)->RecvFrame(5s);
  ASSERT_TRUE(hello_reply.ok());
  EXPECT_EQ(hello_reply->front(), '{') << *hello_reply;

  const protocol::Message ping{protocol::Ping{}};
  ASSERT_TRUE(SendIn(**client, binary, ping, 2).ok());
  EXPECT_TRUE(
      protocol::Expect<protocol::Pong>(RecvIn(**client, binary, 2)).ok());
  ASSERT_TRUE(SendIn(**client, json, ping, 3).ok());
  EXPECT_TRUE(protocol::Expect<protocol::Pong>(RecvIn(**client, json, 3)).ok());

  protocol::AllocRequest request;
  request.container_id = "c1";
  request.pid = 3;
  request.size = 2_GiB;
  ASSERT_TRUE(SendIn(**client, binary, protocol::Message(request), 4).ok());
  ASSERT_TRUE(WaitUntil([&] {
    auto stats = fault_->core().StatsFor("c1");
    return stats.has_value() && stats->suspended;
  }));

  auto main = ipc::MessageClient::ConnectUnix(fault_->main_socket_path());
  ASSERT_TRUE(main.ok());
  ASSERT_TRUE(SendIn(**main, binary, ping, 5).ok());
  EXPECT_TRUE(protocol::Expect<protocol::Pong>(RecvIn(**main, binary, 5)).ok());
  // Closing the hog's container frees the pool and grants the parked call.
  protocol::ContainerClose close;
  close.container_id = "hog";
  ASSERT_TRUE(protocol::Notify(**main, protocol::Message(close)).ok());

  auto granted =
      protocol::Expect<protocol::AllocReply>(RecvIn(**client, binary, 4));
  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  EXPECT_TRUE(granted->granted) << granted->error;
}

}  // namespace
}  // namespace convgpu
