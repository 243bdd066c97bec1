// SchedulerServer: the GPU memory scheduler as a socket daemon.
//
// Mirrors the paper's deployment (§III-D): a standalone host-side program
// (Go there, C++ here). It listens on a main socket for registration (from
// the customized nvidia-docker), close signals (from the plugin), and
// tooling queries; for every registered container it creates a dedicated
// directory containing that container's own UNIX socket (and a copy of the
// wrapper module when configured) — the directory nvidia-docker bind-mounts
// into the container.
//
// All sockets — the main one and every per-container one — are listeners on
// ONE shared ipc::MessageServer reactor: with N registered containers the
// daemon runs exactly one reactor thread, not N+1. A container channel is a
// ListenerId on that reactor, added at registration and removed at close.
//
// Each container also gets a ledger page (ledger_page.h) on its first hello
// or reattach: the core publishes the container's cudaMemGetInfo answer on
// it, the reactor stores in each connection's slot how many of its frames
// have been handled, and the handshake reply carries the page's descriptor
// and the slot index, so a wrapper answers cudaMemGetInfo without a frame.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/mutex.h"
#include "common/result.h"
#include "convgpu/codec.h"
#include "convgpu/ledger_page.h"
#include "convgpu/protocol.h"
#include "convgpu/scheduler_core.h"
#include "ipc/message_server.h"

namespace convgpu {

struct SchedulerServerOptions {
  /// Root of all scheduler state: main socket + per-container directories.
  std::string base_dir;
  SchedulerOptions scheduler;
  /// When non-empty, this file (libgpushare_preload.so) is copied into each
  /// container directory, as the paper's scheduler does with libgpushare.so.
  std::string wrapper_module_path;
  /// Shared-reactor tuning (tests lower the write-queue cap to exercise
  /// backpressure kicks).
  ipc::MessageServer::Options reactor;
};

class SchedulerServer {
 public:
  explicit SchedulerServer(SchedulerServerOptions options,
                           const Clock* clock = nullptr);
  ~SchedulerServer();

  SchedulerServer(const SchedulerServer&) = delete;
  SchedulerServer& operator=(const SchedulerServer&) = delete;

  Status Start();
  void Stop();

  /// The registration/control socket (what nvidia-docker and the plugin
  /// connect to).
  [[nodiscard]] std::string main_socket_path() const;
  /// Per-container socket path, empty if the container is unknown.
  [[nodiscard]] std::string container_socket_path(const std::string& id) const;

  [[nodiscard]] SchedulerCore& core() { return core_; }
  [[nodiscard]] const SchedulerCore& core() const { return core_; }

  /// Live listener count on the shared reactor: main socket + one per
  /// registered container (introspection for tests/tooling).
  [[nodiscard]] std::size_t listener_count() const {
    return reactor_.listener_count();
  }

  /// This daemon incarnation's session epoch: sent in every hello/reattach
  /// reply so wrappers can tell a connection blip from a daemon restart.
  /// Unique across in-process restarts, nonzero, fits a signed JSON int.
  [[nodiscard]] std::uint64_t session_epoch() const { return session_epoch_; }

 private:
  /// What the daemon keeps per connection. Created on a connection's first
  /// frame and erased on its disconnect — reactor thread only, so the frame
  /// path reads it without a lock.
  struct ConnectionState {
    /// Negotiated in hello/reattach: JSON until the peer asks for binary.
    /// Per connection, not per container — one container can host a JSON
    /// peer and a binary one side by side — and it dies with the connection
    /// (ids are never reused), so a reconnecting peer renegotiates from a
    /// clean JSON slate.
    const protocol::Codec* codec = &protocol::json_codec();
    /// Set by this connection's first accepted hello or reattach. Before
    /// that, any other frame closes the connection unread by the core: the
    /// daemon acts only for a peer that said who it is.
    bool admitted = false;
    /// Pids that spoke on this connection — lets a crashed process (socket
    /// dropped without process_exit) still be cleaned up.
    std::set<Pid> pids;
    /// Frames received on this connection, handshake included — what its
    /// ledger-page slot reads once the daemon has handled them all.
    std::uint64_t frames = 0;
    /// This connection's slot on the container's ledger page, from its
    /// hello/reattach on; released at disconnect.
    std::optional<std::size_t> slot;
  };

  struct ContainerChannel {
    ipc::ListenerId listener = 0;  // this container's socket on the reactor
    std::string socket_path;
    std::string dir;
    /// Set by close (and Stop): frames still arriving on the channel's
    /// draining connections are ignored from then on.
    std::atomic<bool> closed{false};
    /// Reactor thread only (every handler runs there).
    std::map<ipc::ConnectionId, ConnectionState> connections;
    /// Created on the container's first hello or reattach; reactor thread
    /// only (the core holds its own reference for publishing).
    std::shared_ptr<LedgerPage> page;
  };

  void HandleMain(ipc::ConnectionId conn, std::string_view payload);
  void HandleContainer(ContainerChannel& channel,
                       const std::string& container_id,
                       ipc::ConnectionId conn, std::string_view payload);
  void HandleContainerDisconnect(ContainerChannel& channel,
                                 const std::string& container_id,
                                 ipc::ConnectionId conn);
  protocol::RegisterReply DoRegister(const protocol::RegisterContainer& request);
  void DoContainerClose(const std::string& container_id);
  /// Reattach admission (daemon-restart recovery): decides blip vs rebuild
  /// vs reject by comparing the wrapper's remembered epoch against this
  /// incarnation's, then rebuilds the pid's ledger state from the snapshot.
  protocol::ReattachReply DoReattach(const std::string& container_id,
                                     ContainerChannel& channel,
                                     ipc::ConnectionId conn,
                                     const protocol::Reattach& request);
  /// Creates (or returns the existing) channel for `id`: per-container
  /// directory plus a listener on the shared reactor. Used by registration
  /// and by Start()'s dormant-socket recovery scan; the caller owns core
  /// registration.
  Result<std::shared_ptr<ContainerChannel>> EnsureChannel(
      const std::string& id);
  protocol::StatsReply BuildStats() const;
  /// Gives `state`'s connection a slot on the container's ledger page,
  /// creating the page on first use, and returns the page's descriptor for
  /// the handshake reply; -1 when no page can be shared (the connection
  /// then answers cudaMemGetInfo over the socket).
  int ShareLedgerPage(ContainerChannel& channel,
                      const std::string& container_id, ConnectionState& state);
  /// Encodes `message` with `codec` (the connection's negotiated encoding)
  /// and queues it on `conn`, echoing the correlation id of the request it
  /// answers (absent for an id-less request); a failed send (vanished
  /// client, backpressure kick) is the client's problem, not the daemon's.
  /// `fd` (a ledger page), when given, rides the frame with SCM_RIGHTS.
  /// Safe from any thread — deferred grants fire from whichever thread
  /// releases memory.
  void Reply(ipc::ConnectionId conn, const protocol::Codec& codec,
             const protocol::Message& message,
             std::optional<protocol::ReqId> req_id, int fd = -1);
  /// Records `conn`'s encoding after a hello or reattach handshake. Takes
  /// effect for the frames after the handshake reply, which itself rode
  /// the old encoding.
  static void NegotiateCodec(ConnectionState& state, ipc::ConnectionId conn,
                             bool binary);

  SchedulerServerOptions options_;
  /// Declared before core_ so a grant callback firing during core_ teardown
  /// still finds a live (stopped) reactor.
  ipc::MessageServer reactor_;
  SchedulerCore core_;
  const std::uint64_t session_epoch_;

  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<ContainerChannel>> channels_
      GUARDED_BY(mutex_);
  /// Containers whose ledger state was rebuilt from cross-epoch reattaches
  /// (as opposed to a fresh registration in this incarnation). Later
  /// cross-epoch reattaches for these are accepted; a fresh DoRegister
  /// erases the mark and stale reattaches are rejected from then on.
  std::set<std::string> reattach_built_ GUARDED_BY(mutex_);
  /// From the start of Start() until Stop(). Starting counts as serving:
  /// the main socket accepts as soon as Start() binds it, before Start()
  /// returns, and a registration in that window is served. Only a stopped
  /// daemon refuses one.
  bool serving_ GUARDED_BY(mutex_) = false;
};

}  // namespace convgpu
