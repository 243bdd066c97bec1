// SchedulerLink: the wrapper module's channel to the GPU memory scheduler.
//
// Two implementations:
//  * SocketSchedulerLink — length-prefixed frames over the container's
//    UNIX socket (production path, what the paper measures in Fig. 4).
//    Every connection opens with a hello (a reconnect with a reattach) that
//    names the container and pid; the daemon acts on nothing a connection
//    sends before it. The payload encoding — the paper's JSON, or the
//    compact binary layout from codec.h — is negotiated in that handshake;
//  * DirectSchedulerLink — calls a SchedulerCore in-process (unit tests and
//    the zero-IPC rung of the transport ablation).
//
// The link is *pipelined*: every request carries a protocol::ReqId, replies
// are demultiplexed back to their callers by a ReplyRouter, and AsyncCall()
// lets N threads keep N requests outstanding on one socket. In particular a
// *suspended* alloc_request — parked daemon-side until another container
// releases memory — no longer blocks sibling threads' calls, commits, or
// frees. (The paper's wrapper had no ids on the wire and kept one call in
// flight; here a reply is routed by its id alone, and one without an id is
// dropped.)
//
// Who reads the socket — leader/follower. There is no demux thread on the
// reply path. A caller waiting on its ReplyFuture *leads*: when no other
// thread is reading, it reads the socket itself and routes every reply it
// receives. A reply for another caller completes that caller's slot and
// wakes only that thread; everyone else waiting is a *follower*, asleep on
// its own slot. A leader that receives its own reply returns with it at
// once and hands the reader role to exactly one caller that is still
// waiting; frames its last read brought along stay in the client's buffer
// for that caller, who routes them without a syscall. A lone caller therefore pays one send and one
// read per call, and no thread hand-off at all. wait_for() keeps its
// deadline while leading: it reads behind a bounded poll, and on timeout
// hands the role on like any leader.
//
// The link's worker thread is only the *hang-up watcher*: it polls the
// socket for POLLRDHUP and nothing else, so it sleeps through steady-state
// traffic. On hang-up (peer gone, or a local Shutdown() after a send
// failure, an unparsable frame, or the link's destruction) it shuts the
// socket down so a leader blocked in read wakes with EOF, waits for that
// leader to step down, drains whatever replies arrived before the EOF,
// and then runs the connection-loss paths: fail everything (no
// auto_reconnect), or fail the non-replayable calls, park the replayable
// ones, reconnect, reattach, reissue them and install the new connection —
// whereupon one waiting caller is promoted to lead on it. A caller that was
// leading on the dead connection simply finds its slot still open and leads
// again on the new one (a replayed mem_get_info), or finds it failed (an
// alloc).
//
// cudaMemGetInfo usually never leaves the process. The handshake reply
// hands the link the container's ledger page (ledger_page.h) and its
// connection's slot; AsyncCall(mem_get_info) answers from the page when
// the daemon has handled every frame this connection has sent (the slot's
// applied count has reached the client's frames-sent count), a bounded
// seqlock read succeeds, and the page's epoch is the link's. That keeps
// read-your-writes: a free or commit sent a moment ago is either in the
// page or makes the call take the socket path at once — the link never
// waits for the slot to catch up. The socket path stays the fallback
// (no page, link down, epoch mismatch, slot behind, seqlock contended),
// counted per reason in page_counters(). A reconnect unmaps the old page
// before installing the new connection's; teardown unmaps it.
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "convgpu/codec.h"
#include "convgpu/ledger_page.h"
#include "convgpu/protocol.h"
#include "convgpu/scheduler_core.h"
#include "ipc/message_server.h"

namespace convgpu {

namespace link_internal {
struct CallSlot;
class RouterCore;
}  // namespace link_internal

/// Completion of one request/reply exchange: a handle on the call's
/// completion slot, shaped like std::future (get(), wait(), wait_for()
/// returning std::future_status). The slot is completed by whichever thread
/// receives (or synthesizes) the reply; for a suspended allocation that can
/// be a long time, which is exactly the paper's suspension mechanism. While
/// a socket link's caller waits, it may read the socket itself (see the
/// file comment). Also wraps a plain std::future, so links that complete
/// calls by other means (DirectSchedulerLink, decorators) return one
/// unchanged. Move-only; a handle may outlive the link that issued it.
class ReplyFuture {
 public:
  ReplyFuture() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a std::future is a reply.
  ReplyFuture(std::future<Result<protocol::Message>> future)
      : future_(std::move(future)) {}
  ReplyFuture(ReplyFuture&&) noexcept = default;
  ReplyFuture& operator=(ReplyFuture&&) noexcept = default;
  ~ReplyFuture() = default;

  /// A reply the link produced without a frame to the scheduler: an answer
  /// from the ledger page, or an immediate failure.
  static ReplyFuture Ready(Result<protocol::Message> reply);
  /// False for a Ready() reply — the call never reached the scheduler.
  [[nodiscard]] bool round_trip() const { return !ready_here_; }

  /// Blocks until the reply is in and returns it; the handle is then empty.
  Result<protocol::Message> get();
  void wait() const { (void)WaitUntil(std::nullopt); }
  /// std::future_status::ready or ::timeout (never ::deferred).
  template <class Rep, class Period>
  std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& timeout) const {
    return WaitUntil(
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            timeout));
  }

 private:
  friend class ReplyRouter;
  ReplyFuture(std::shared_ptr<link_internal::RouterCore> core,
              std::shared_ptr<link_internal::CallSlot> slot);

  std::future_status WaitUntil(
      std::optional<std::chrono::steady_clock::time_point> deadline) const;

  std::future<Result<protocol::Message>> future_;
  std::shared_ptr<link_internal::RouterCore> core_;
  std::shared_ptr<link_internal::CallSlot> slot_;
  std::optional<Result<protocol::Message>> ready_;  // Ready(), until get()
  bool ready_here_ = false;
};

class SchedulerLink {
 public:
  using ReplyFuture = convgpu::ReplyFuture;

  virtual ~SchedulerLink() = default;

  /// Starts a request/reply exchange without blocking on the answer.
  /// Multiple calls may be in flight simultaneously, from any threads; each
  /// future receives exactly the reply to its own request.
  virtual ReplyFuture AsyncCall(const protocol::Message& request) = 0;

  /// One-way notification (alloc_commit, free, process_exit, ...). Never
  /// waits on an in-flight call.
  virtual Status Notify(const protocol::Message& message) = 0;

  /// Blocking request/reply — a thin wrapper over AsyncCall.
  Result<protocol::Message> Call(const protocol::Message& request) {
    return AsyncCall(request).get();
  }
};

/// Matches replies to outstanding requests by protocol::ReqId, and owns the
/// reader role of the connection it serves (leader/follower, see the file
/// comment). One router per link; its id space is per connection
/// *incarnation*: ids are issued from a counter starting at 1, and a
/// reconnect resets the space (see DrainForReplay). Ids wrap within
/// [1, protocol::kMaxWireReqId] — the wire carries them in a signed JSON
/// integer — skipping any id still pending after a wrap. Thread-safe. The
/// state lives in a shared core that every issued ReplyFuture also holds,
/// so a future stays usable after the router is gone.
class ReplyRouter {
 public:
  struct Issued {
    protocol::ReqId id = 0;
    SchedulerLink::ReplyFuture reply;
  };

  /// A replay-eligible call pulled out by DrainForReplay (or created by
  /// Park while the link is down): the original request plus the slot its
  /// caller is still waiting on. Reissue() puts it back under a fresh id on
  /// the next connection.
  struct Parked {
    protocol::Message request;
    std::shared_ptr<link_internal::CallSlot> slot;
  };

  ReplyRouter();
  /// Fails whatever is still pending (kUnavailable): no future outliving
  /// the router waits forever.
  ~ReplyRouter();
  ReplyRouter(const ReplyRouter&) = delete;
  ReplyRouter& operator=(const ReplyRouter&) = delete;

  /// Issues the next request id together with the future its reply will
  /// complete. This overload records nothing for replay — on connection
  /// loss the call fails like any other.
  Issued Issue();

  /// Issue() that additionally remembers `request`; when `replayable` the
  /// call survives connection loss via DrainForReplay instead of failing.
  Issued Issue(const protocol::Message& request, bool replayable);

  /// A replayable call made while no connection is up: pending on nothing
  /// until Reissue(parked). Returns its future; `parked` receives the
  /// handle.
  SchedulerLink::ReplyFuture Park(const protocol::Message& request,
                                  Parked& parked);

  /// Completes the pending call `req_id` names. kFailedPrecondition for a
  /// duplicate or never-issued id: the reply is dropped, never delivered to
  /// the wrong caller. (A reply frame without an id never gets here: the
  /// reader drops it.)
  Status Route(protocol::ReqId req_id, Result<protocol::Message> reply);

  /// Fails every outstanding call with `status` (peer vanished). Later
  /// Route()s find nothing pending.
  void FailAll(const Status& status);

  /// Fails parked calls that will never be reissued.
  void FailParked(std::vector<Parked>& parked, const Status& status);

  /// Connection loss on a reconnecting link: fails every *non*-replayable
  /// pending call with `status`, returns the replayable ones oldest-first
  /// (their callers keep waiting), and resets the id space to 1 for the
  /// next connection incarnation.
  std::vector<Parked> DrainForReplay(const Status& status);

  /// Re-enqueues a parked call on the fresh connection under a new id. The
  /// caller's original future stays attached — only the id changes.
  protocol::ReqId Reissue(Parked parked);

  /// Reader role. Attach makes `source` the connection waiting callers read
  /// from, and promotes one of them to lead on it.
  void Attach(std::shared_ptr<ipc::MessageClient> source);
  /// Stops callers from reading: returns once no caller is leading. The
  /// hang-up watcher owns the connection from then on.
  void Detach();
  /// After Detach: reads and routes frames from `client` until the stream
  /// ends, and returns the status that ended it (kAborted on a clean EOF).
  Status DrainFrames(ipc::MessageClient& client);

  [[nodiscard]] std::size_t pending_count() const;

  /// Test hook for exercising id wraparound.
  void SetNextIdForTesting(protocol::ReqId next);

 private:
  /// Makes `slot` pending under the next id.
  Issued Track(std::shared_ptr<link_internal::CallSlot> slot);

  std::shared_ptr<link_internal::RouterCore> core_;
};

/// Configuration for a link. Without auto_reconnect, a lost daemon is a
/// sticky kUnavailable on every outstanding and future call.
struct SocketSchedulerLinkOptions {
  /// Named in the hello and every reattach; required.
  std::string container_id;
  Pid pid = 0;

  /// Reconnect transparently after daemon loss: capped exponential backoff,
  /// reattach with the wrapper's ledger snapshot, replay of idempotent
  /// in-flight calls (mem_get_info, ping, stats).
  bool auto_reconnect = false;
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{1000};
  /// Bounds connect(2) and each handshake reply wait, so a hung (accepting
  /// but unresponsive) daemon cannot wedge the reconnect worker.
  std::chrono::milliseconds handshake_timeout{2000};

  /// The wrapper's live-allocation snapshot, sent with reattach so a
  /// restarted daemon can rebuild this pid's ledger state. May also be set
  /// later via SetSnapshotProvider (the wrapper is built after the link).
  std::function<std::vector<protocol::LiveAlloc>()> snapshot;
};

/// How a SocketSchedulerLink answered mem_get_info: from the ledger page,
/// or over the socket and why.
struct LedgerPageCounters {
  std::uint64_t local_answers = 0;
  std::uint64_t no_page = 0;  // this connection was handed no page
  /// The link was reconnecting, or the page's epoch was not the link's
  /// (the container closed or the daemon stopped).
  std::uint64_t disconnected_or_epoch = 0;
  std::uint64_t slot_behind = 0;  // sent frames the daemon had not handled
  std::uint64_t seqlock_retries_exhausted = 0;
};

class SocketSchedulerLink final : public SchedulerLink {
 public:
  using Options = SocketSchedulerLinkOptions;

  /// Connects and says hello, advertising the binary encoding; the link
  /// speaks binary only when the reply grants it. The handshake runs
  /// synchronously here: kInvalidArgument without options.container_id,
  /// and a daemon that refuses the hello fails the connect.
  static Result<std::unique_ptr<SocketSchedulerLink>> Connect(
      const std::string& socket_path, Options options);

  ~SocketSchedulerLink() override;

  ReplyFuture AsyncCall(const protocol::Message& request) override;
  Status Notify(const protocol::Message& message) override;

  /// Installs/replaces the reattach snapshot provider.
  void SetSnapshotProvider(
      std::function<std::vector<protocol::LiveAlloc>()> snapshot);

  /// Calls whose replies have not arrived yet (introspection for tests).
  [[nodiscard]] std::size_t outstanding_calls() const {
    return router_.pending_count();
  }
  /// Daemon session epoch learned at hello/reattach.
  [[nodiscard]] std::uint64_t session_epoch() const;
  /// Completed reattaches (0 until the first daemon loss is survived).
  [[nodiscard]] std::uint64_t reconnect_count() const;
  /// Idempotent calls resent on a fresh connection across all reconnects.
  [[nodiscard]] std::uint64_t replayed_call_count() const;
  /// True while a healthy connection is up (false during backoff and after
  /// a permanent failure).
  [[nodiscard]] bool connected() const;
  /// Name of the encoding this connection negotiated ("json" or "binary").
  /// Re-negotiated on every reconnect — a restarted daemon may answer
  /// differently than the one the link first met.
  [[nodiscard]] std::string wire_codec_name() const;
  /// True while the current connection holds a mapped ledger page.
  [[nodiscard]] bool has_ledger_page() const;
  [[nodiscard]] LedgerPageCounters page_counters() const;

 private:
  enum class LinkState { kConnected, kReconnecting, kBroken };

  SocketSchedulerLink(std::unique_ptr<ipc::MessageClient> client,
                      std::string socket_path, Options options,
                      std::uint64_t epoch, Bytes limit, bool binary,
                      std::unique_ptr<LedgerPageView> page);

  /// Worker thread: alternates watching the connection for hang-up with
  /// the connection-loss paths (fail everything, or drain/reconnect/replay)
  /// until close or permanent failure.
  void WorkerLoop();
  /// Backoff/connect/reattach loop; true when a fresh connection is
  /// installed, false on close or permanent (reattach-rejected) failure.
  bool Reconnect();
  /// Sends reattach on `client` and validates the reply. kUnavailable-class
  /// errors mean "retry"; kFailedPrecondition means the daemon rejected the
  /// reattach (stale epoch) and the link is done for good.
  Status ReattachHandshake(ipc::MessageClient& client,
                           std::unique_ptr<LedgerPageView>& page);
  /// The mem_get_info answer from the ledger page, when the page may give
  /// it (see the file comment); counts the outcome either way.
  std::optional<protocol::MemInfoReply> PageAnswerLocked()
      REQUIRES(state_mutex_);
  /// Marks the link permanently broken and fails every waiting caller.
  void FailEverything(const Status& status);

  /// First permanent-loss status, sticky; AsyncCall/Notify fail fast.
  Status BrokenStatus() const;

  const std::string socket_path_;
  const Options options_;
  ReplyRouter router_;

  mutable Mutex state_mutex_;
  CondVar backoff_cv_;  // interrupts backoff on close
  /// Shared so AsyncCall can send, and callers read, outside the lock while
  /// the worker swaps in a fresh connection.
  std::shared_ptr<ipc::MessageClient> client_ GUARDED_BY(state_mutex_);
  LinkState state_ GUARDED_BY(state_mutex_) = LinkState::kConnected;
  Status broken_ GUARDED_BY(state_mutex_);
  bool closing_ GUARDED_BY(state_mutex_) = false;
  /// Replay-eligible calls that arrived (or were drained) while the link
  /// was down; flushed onto the next connection after reattach.
  std::vector<ReplyRouter::Parked> waiting_ GUARDED_BY(state_mutex_);
  std::uint64_t epoch_ GUARDED_BY(state_mutex_) = 0;
  Bytes limit_ GUARDED_BY(state_mutex_) = 0;
  /// The encoding this connection incarnation sends with. Points at one of
  /// the immortal stateless codec singletons, so the pointer read under the
  /// lock is safe to *use* outside it. Replies are decoded by sniffing each
  /// payload (DecodePayload), never by this state. Reset by every
  /// reattach handshake.
  const protocol::Codec* codec_ GUARDED_BY(state_mutex_) =
      &protocol::json_codec();
  std::function<std::vector<protocol::LiveAlloc>()> snapshot_
      GUARDED_BY(state_mutex_);
  std::uint64_t reconnects_ GUARDED_BY(state_mutex_) = 0;
  std::uint64_t replayed_ GUARDED_BY(state_mutex_) = 0;
  /// The current connection's ledger page; null without one, and from the
  /// moment the connection is lost.
  std::unique_ptr<LedgerPageView> page_ GUARDED_BY(state_mutex_);
  LedgerPageCounters page_counters_ GUARDED_BY(state_mutex_);

  std::thread worker_;
};

class DirectSchedulerLink final : public SchedulerLink {
 public:
  /// `core` must outlive the link. `container_id` scopes every message —
  /// the in-process analogue of the per-container socket.
  DirectSchedulerLink(SchedulerCore* core, std::string container_id)
      : core_(core), container_id_(std::move(container_id)) {}

  ReplyFuture AsyncCall(const protocol::Message& request) override;
  Status Notify(const protocol::Message& message) override;

 private:
  SchedulerCore* core_;
  std::string container_id_;
};

}  // namespace convgpu
