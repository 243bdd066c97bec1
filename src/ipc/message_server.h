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
// The per-frame path is built to cost one read, one send and one lock:
//  * Level-triggered epoll, and one read(2) per readiness event into the
//    connection's input buffer; bytes still in the socket are reported
//    again on the next epoll_wait.
//  * Frames are parsed in place: the handler gets a std::string_view into
//    the input buffer, valid for the duration of the call — no per-frame
//    copy, no vector of payloads.
//  * SendBytes() frames the reply straight into the connection's one
//    contiguous output buffer. Called on the reactor thread (the handler
//    answering at once), it also writes the buffer inline, under the same
//    single lock acquisition; only a write that would block arms EPOLLOUT.
//    Called from any other thread (a deferred grant), it queues, marks the
//    connection dirty and wakes the reactor, which flushes it.
//  * The input buffer and the connection table's structure belong to the
//    reactor thread, which alone inserts and erases connections; it reads
//    them without the lock. Everything other threads touch — the output
//    buffer, the close/kick flags, the dirty list — is under the mutex.
// In steady state the path allocates nothing (bench/codec_microbench checks
// a whole echo round trip through a listener).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
  /// that listener, with the listener's id first. The view is one frame's
  /// payload, header stripped, encoding uninterpreted; it points into the
  /// connection's input buffer and is valid only during the call (copy what
  /// must outlive it).
  using MessageHandler =
      std::function<void(ListenerId, ConnectionId, std::string_view)>;
  using DisconnectHandler = std::function<void(ListenerId, ConnectionId)>;

  /// Single-listener convenience signatures (see the two-argument Start()).
  using SimpleMessageHandler =
      std::function<void(ConnectionId, std::string_view)>;
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

  /// Frames one payload into `conn`'s output buffer (the 4-byte header is
  /// added here). Safe from any thread, including reentrantly from the
  /// message handler; on the reactor thread the buffer is written at once.
  /// Returns kNotFound if the connection is gone (the caller treats that
  /// as a vanished client) and kResourceExhausted if the connection just
  /// blew its write-queue cap (it is disconnected; the payload is not
  /// queued).
  ///
  /// With `fd` >= 0 the descriptor is passed along (SCM_RIGHTS) by a
  /// sendmsg(2) made at once, on the frame's first byte. That needs the
  /// frame to be first in line: when earlier output is still queued, or
  /// the socket takes nothing, the frame goes out without the descriptor
  /// (logged) — a peer must treat a missing descriptor as "none offered".
  Status SendBytes(ConnectionId conn, std::string_view payload, int fd = -1);

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
    // Reactor thread only: set at accept, read and written without the lock.
    Fd fd;
    ListenerId listener = 0;
    std::shared_ptr<const Callbacks> callbacks;
    std::string in;          // input buffer; frames are parsed in place
    std::size_t in_end = 0;  // bytes of `in` holding unparsed input
    // Shared with SendBytes()/CloseConnection() callers: under mutex_.
    std::string out;          // framed bytes not yet written, contiguous
    std::size_t out_sent = 0; // progress into `out`
    bool closing = false;     // close once the output drains
    bool kicked = false;      // drop immediately, skip flushing
    bool failed = false;      // a write failed: drop without flushing
    bool want_write = false;  // epoll: EPOLLOUT currently armed
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
  /// Names `id` for the next FlushDirty(): from the reactor thread a flag
  /// suffices, any other thread interrupts the wait.
  void MarkDirtyLocked(ConnectionId id) REQUIRES(mutex_);
  /// The reactor thread's lock-free view of the connection table: only the
  /// reactor inserts and erases, so its own reads cannot race a writer.
  Connection* ReactorFind(ConnectionId id) NO_THREAD_SAFETY_ANALYSIS;
  void AcceptPending(ListenerId id);
  /// One read(2) into the input buffer, then every complete frame is
  /// dispatched in place. False once nothing more can be read (EOF, error,
  /// EAGAIN, or the connection is gone); the connection is dropped on EOF,
  /// error or a malformed stream.
  bool HandleReadable(ConnectionId id);
  /// Writes as much of `conn.out` as the socket takes without blocking;
  /// arms EPOLLOUT for the rest. Sets `conn.failed` on a write error.
  void WriteLocked(Connection& conn, ConnectionId id) REQUIRES(mutex_);
  void HandleWritable(ConnectionId id);
  void DropConnection(ConnectionId id);
  /// Services connections named by MarkDirtyLocked() since the last
  /// iteration: flushes output, drops kicked, failed and drained closing
  /// connections. False once Stop() has begun.
  bool FlushDirty();

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
  // SendBytes() writes inline and skips the wake-up on the reactor thread.
  std::thread::id reactor_tid_ GUARDED_BY(mutex_);
  bool running_ GUARDED_BY(mutex_) = false;
  /// Reactor thread only: dirty_ gained entries from the reactor thread
  /// itself (which does not wake itself), so this iteration must flush.
  bool flush_pending_ = false;
};

/// Blocking frame client (used by the wrapper module, the customized
/// nvidia-docker, and the plugin, through protocol::Call/Notify). A
/// suspended allocation request simply blocks in RecvFrame() until the
/// scheduler finally replies — exactly the paper's "the response from the
/// scheduler will be suspended".
///
/// Each frame costs one syscall each way: SendFrame() hands header and
/// payload to one sendmsg(2), and the receive side reads into a per-client
/// buffer, so one read(2) returns a whole reply — or several, which the
/// following receives serve without touching the socket.
class MessageClient {
 public:
  using Deadline = std::chrono::steady_clock::time_point;

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
  /// thread-safe against itself; the receive calls are single-reader.
  Status SendFrame(std::string_view payload);
  Result<std::string> RecvFrame();

  /// RecvFrame with a deadline: fails with kDeadlineExceeded if no complete
  /// frame arrives within `timeout`. A frame already buffered is returned
  /// without waiting. Used for handshakes against a possibly-hung peer.
  Result<std::string> RecvFrame(std::chrono::milliseconds timeout);

  /// Frames SendFrame() has written on this connection, counted under the
  /// send lock: a value k means the first k frames are in the socket, in
  /// order. Read with acquire ordering.
  [[nodiscard]] std::uint64_t frames_sent() const {
    return frames_sent_.load(std::memory_order_acquire);
  }

  /// The receive primitive the two RecvFrame()s copy out of: the next
  /// frame's payload as a view into the client's buffer, valid until the
  /// next receive call. Reads only when no complete frame is buffered, then
  /// polls until `deadline` first (no deadline: blocks). Errors: kAborted
  /// on EOF between frames, kInternal on EOF inside a frame or an oversized
  /// length (rejected from the header, before any payload is buffered),
  /// kDeadlineExceeded on timeout. With `received`, the reads are
  /// recvmsg(2)s and a descriptor passed with the frame's bytes
  /// (SCM_RIGHTS) lands there — the handshake read that receives the
  /// ledger page; otherwise the kernel discards such a descriptor.
  Result<std::string_view> RecvFrameView(std::optional<Deadline> deadline,
                                         Fd* received = nullptr);

  /// Shuts down both socket directions without closing the fd: a thread
  /// blocked in a receive wakes with EOF and later SendFrame()s fail
  /// cleanly. How SocketSchedulerLink's hang-up watcher and its reading
  /// caller are stopped; safe to call from any thread, idempotent.
  void Shutdown();

  [[nodiscard]] int fd() const { return fd_.get(); }

 private:
  explicit MessageClient(Fd fd) : fd_(std::move(fd)) {}

  Fd fd_;
  Mutex write_mutex_;  // SendFrame() may race with itself across threads
  std::atomic<std::uint64_t> frames_sent_{0};  // bumped under write_mutex_
  // Receive buffer. Not locked: receives are single-reader by contract.
  std::string in_;
  std::size_t in_begin_ = 0;  // first unconsumed byte
  std::size_t in_end_ = 0;    // one past the last buffered byte
};

}  // namespace convgpu::ipc
