// Shared reactor for UNIX-domain message sockets.
//
// One MessageServer owns ONE reactor thread serving ANY number of listening
// sockets (paper §III-D deploys a socket per container; Guardian-style
// middleware multiplexes all of them in a single manager loop). Listeners
// are added and removed at runtime: AddListener(path) → ListenerId, and
// every handler receives the listener its connection arrived on, so N
// containers cost one thread and one wake-up pipe instead of N+1.
//
// The critical requirement (paper §III-D): a memory-allocation request may
// be *suspended* — no reply is sent until another container releases memory
// — so the server decouples request receipt from reply: handlers get a
// ConnectionId and any thread may SendBytes() a reply later. A self-pipe
// wakes the event loop when replies are queued from outside the reactor
// thread.
//
// The reactor runs a persistent epoll set (connections register once;
// EPOLLOUT is armed only while a write queue is non-empty).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "ipc/fd.h"
#include "ipc/socket.h"

namespace convgpu::ipc {

using ConnectionId = std::uint64_t;
using ListenerId = std::uint64_t;

/// Multiplexed message server over any number of UNIX listeners. The
/// reactor carries *opaque frame payloads* — it peels length-prefixed
/// frames off the stream and hands the raw bytes to the handler without
/// interpreting them, so one reactor serves JSON and binary (codec.h)
/// connections alike; decoding, and skipping malformed payloads, is the
/// handler's job. Start() spawns the reactor thread; Stop() joins it.
/// Handlers run on the reactor thread.
class MessageServer {
 public:
  /// Per-listener handlers: invoked for traffic on connections accepted on
  /// that listener, with the listener's id first. The string is one frame's
  /// payload, header stripped, encoding uninterpreted.
  using MessageHandler =
      std::function<void(ListenerId, ConnectionId, std::string)>;
  using DisconnectHandler = std::function<void(ListenerId, ConnectionId)>;

  /// Single-listener convenience signatures (see the two-argument Start()).
  using SimpleMessageHandler = std::function<void(ConnectionId, std::string)>;
  using SimpleDisconnectHandler = std::function<void(ConnectionId)>;

  struct Options {
    /// Backpressure cap: a connection whose un-flushed write queue exceeds
    /// this many bytes is disconnected (a consumer that stopped reading
    /// must not grow the daemon's memory unboundedly).
    std::size_t max_queued_bytes_per_connection = 4u << 20;
  };

  MessageServer() = default;
  explicit MessageServer(Options options) : options_(options) {}
  MessageServer(const MessageServer&) = delete;
  MessageServer& operator=(const MessageServer&) = delete;
  ~MessageServer();

  /// Starts the reactor with no listeners yet (add them with AddListener).
  Status Start();

  /// Convenience: Start() + AddListener(path) with listener-agnostic
  /// handlers — the shape of the original one-socket server.
  Status Start(const std::string& path, SimpleMessageHandler on_message,
               SimpleDisconnectHandler on_disconnect = nullptr);

  /// Binds `path` and serves it on the shared reactor. Safe from any
  /// thread; fails with kFailedPrecondition once Stop() has begun (the
  /// listener fd is released, never leaked).
  Result<ListenerId> AddListener(const std::string& path,
                                 MessageHandler on_message,
                                 DisconnectHandler on_disconnect = nullptr);

  /// Closes the listening socket (unlinking its path) and disconnects its
  /// connections once their queued writes drain. kNotFound if unknown.
  Status RemoveListener(ListenerId listener);

  /// Queues one frame payload on `conn`'s write queue (the 4-byte header
  /// is added here). Safe from any thread, including reentrantly from the
  /// message handler. Returns kNotFound if the connection is gone (the
  /// caller treats that as a vanished client) and kResourceExhausted if the
  /// connection just blew its write-queue cap (it is disconnected; the
  /// payload is not queued).
  Status SendBytes(ConnectionId conn, std::string_view payload);

  /// Closes one connection (flushing already-queued writes first).
  void CloseConnection(ConnectionId conn);

  /// Stops the reactor and closes everything. Idempotent.
  void Stop();

  /// Path of the first listener ever added (the two-argument Start()
  /// convenience); empty when none.
  [[nodiscard]] std::string socket_path() const;
  [[nodiscard]] std::string listener_path(ListenerId listener) const;
  [[nodiscard]] std::size_t connection_count() const;
  [[nodiscard]] std::size_t listener_count() const;

  /// Connections kicked for blowing the write-queue cap on `listener`
  /// (backpressure observability; counters survive RemoveListener so stats
  /// keep attributing past kicks). Zero for unknown listeners.
  [[nodiscard]] std::uint64_t kicked_connections(ListenerId listener) const;
  /// Total kicked connections across all listeners, past and present.
  [[nodiscard]] std::uint64_t total_kicked_connections() const;

 private:
  /// Handler pair shared by a listener and every connection accepted on it
  /// (connections keep the callbacks alive across RemoveListener).
  struct Callbacks {
    MessageHandler on_message;
    DisconnectHandler on_disconnect;
  };

  struct Listener {
    std::optional<UnixListener> socket;
    std::shared_ptr<const Callbacks> callbacks;
  };

  struct Connection {
    Fd fd;
    ListenerId listener = 0;
    std::shared_ptr<const Callbacks> callbacks;
    std::string read_buffer;
    std::deque<std::string> write_queue;  // framed bytes, header included
    std::size_t write_offset = 0;         // progress into front frame
    std::size_t queued_bytes = 0;         // total un-flushed framed bytes
    bool closing = false;                 // close once write queue drains
    bool kicked = false;                  // drop immediately, skip flushing
    bool want_write = false;              // epoll: EPOLLOUT currently armed
  };

  // Event-source keys (epoll user data / dispatch tags): 0 is the wake
  // pipe; listeners and connections draw ids from one counter and encode
  // the kind in the low bit.
  static constexpr std::uint64_t kWakeKey = 0;
  static std::uint64_t ConnectionKey(ConnectionId id) { return id << 1; }
  static std::uint64_t ListenerKey(ListenerId id) { return (id << 1) | 1; }

  Status StartLocked() REQUIRES(mutex_);
  void Run();
  /// Interrupts the reactor's wait. Must hold the mutex: the wake pipe is
  /// closed under it by Stop(), so an unlocked write could hit a closed
  /// (or recycled) fd.
  void WakeLocked() REQUIRES(mutex_);
  void AcceptPending(ListenerId id);
  void HandleReadable(ConnectionId id);
  void HandleWritable(ConnectionId id);
  void DropConnection(ConnectionId id);
  /// Services connections named by SendBytes()/CloseConnection() since the
  /// last iteration: flushes queues, drops kicked connections.
  void FlushDirty();

  // Registration with the epoll set.
  void PollerAdd(int fd, std::uint64_t key) REQUIRES(mutex_);
  void PollerRemove(int fd) REQUIRES(mutex_);
  /// Arms/disarms write-readiness for a connection.
  void PollerWantWrite(Connection& conn, ConnectionId id, bool enable)
      REQUIRES(mutex_);

  Options options_;
  Fd wake_read_, wake_write_;
  Fd epoll_;
  std::thread reactor_;

  mutable Mutex mutex_;
  std::map<ListenerId, Listener> listeners_ GUARDED_BY(mutex_);
  std::map<ListenerId, std::uint64_t> kicked_ GUARDED_BY(mutex_);
  std::map<ConnectionId, Connection> connections_ GUARDED_BY(mutex_);
  std::vector<ConnectionId> dirty_ GUARDED_BY(mutex_);  // need FlushDirty()
  std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;  // connections & listeners
  std::string first_path_ GUARDED_BY(mutex_);
  // SendBytes() skips the wake-up when already on the reactor thread.
  std::thread::id reactor_tid_ GUARDED_BY(mutex_);
  bool running_ GUARDED_BY(mutex_) = false;
};

/// Blocking frame client (used by the wrapper module, the customized
/// nvidia-docker, and the plugin, through protocol::Call/Notify). A
/// suspended allocation request simply blocks in RecvFrame() until the
/// scheduler finally replies — exactly the paper's "the response from the
/// scheduler will be suspended".
class MessageClient {
 public:
  static Result<std::unique_ptr<MessageClient>> ConnectUnix(
      const std::string& path);

  /// Connect with a deadline (non-blocking connect + poll). Used by the
  /// reconnecting scheduler link so a wedged daemon cannot park the
  /// reconnect worker in connect(2) forever.
  static Result<std::unique_ptr<MessageClient>> ConnectUnix(
      const std::string& path, std::chrono::milliseconds timeout);

  MessageClient(const MessageClient&) = delete;
  MessageClient& operator=(const MessageClient&) = delete;

  /// Raw frame primitives: one length-prefixed frame, payload encoding
  /// uninterpreted (JSON or binary — see convgpu/codec.h). SendFrame is
  /// thread-safe against itself; RecvFrame is single-reader.
  Status SendFrame(std::string_view payload);
  Result<std::string> RecvFrame();

  /// RecvFrame with a deadline: polls for readability first and fails with
  /// kDeadlineExceeded if no frame *starts* arriving within `timeout`.
  /// Used for handshakes against a possibly-hung peer.
  Result<std::string> RecvFrame(std::chrono::milliseconds timeout);

  /// Shuts down both socket directions without closing the fd: a thread
  /// blocked in RecvFrame() wakes with EOF and later SendFrame()s fail
  /// cleanly.
  /// How SocketSchedulerLink's demux reader is stopped; safe to call from
  /// any thread, idempotent.
  void Shutdown();

  [[nodiscard]] int fd() const { return fd_.get(); }

 private:
  explicit MessageClient(Fd fd) : fd_(std::move(fd)) {}

  Fd fd_;
  Mutex write_mutex_;  // SendFrame() may race with itself across threads
};

}  // namespace convgpu::ipc
