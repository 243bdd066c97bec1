#include "convgpu/scheduler_server.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "common/log.h"
#include "common/rng.h"
#include "convgpu/codec.h"

namespace convgpu {

namespace {
constexpr char kTag[] = "sched-srv";
namespace fs = std::filesystem;

/// A fresh epoch per SchedulerServer instance: pid + an in-process counter
/// + the monotonic clock, whitened through splitmix64. Distinct across both
/// daemon restarts (new pid / new clock) and in-process restarts in tests
/// (the counter). Shifted into [1, 2^63) so it rides a signed JSON integer.
std::uint64_t NextSessionEpoch() {
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t state =
      (static_cast<std::uint64_t>(::getpid()) << 32) ^
      counter.fetch_add(1, std::memory_order_relaxed) ^
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  const std::uint64_t epoch = SplitMix64(state) >> 1;
  return epoch == 0 ? 1 : epoch;
}
}  // namespace

SchedulerServer::SchedulerServer(SchedulerServerOptions options,
                                 const Clock* clock)
    : options_(std::move(options)),
      reactor_(options_.reactor),
      core_(options_.scheduler, clock),
      session_epoch_(NextSessionEpoch()) {}

SchedulerServer::~SchedulerServer() { Stop(); }

std::string SchedulerServer::main_socket_path() const {
  return options_.base_dir + "/scheduler.sock";
}

std::string SchedulerServer::container_socket_path(const std::string& id) const {
  MutexLock lock(mutex_);
  auto it = channels_.find(id);
  return it == channels_.end() ? std::string() : it->second->socket_path;
}

Status SchedulerServer::Start() {
  std::error_code ec;
  fs::create_directories(options_.base_dir + "/containers", ec);
  if (ec) {
    return InternalError("cannot create base dir " + options_.base_dir + ": " +
                         ec.message());
  }
  {
    // From here on registrations are served: the main socket accepts the
    // moment it is bound, before this function returns.
    MutexLock lock(mutex_);
    if (serving_) return FailedPreconditionError("scheduler already started");
    serving_ = true;
  }
  auto status = reactor_.Start();
  if (!status.ok()) {
    MutexLock lock(mutex_);
    serving_ = false;
    return status;
  }

  // Re-bind any per-container sockets a previous daemon incarnation left
  // behind, before the main socket opens: reconnecting wrappers find a
  // listener to reattach on, and no registration can race the scan. The
  // channels are *dormant* — no core state until a reattach (or a fresh
  // registration) rebuilds it.
  std::error_code scan_ec;
  fs::directory_iterator dirs(options_.base_dir + "/containers", scan_ec);
  if (!scan_ec) {
    for (const auto& entry : dirs) {
      if (!entry.is_directory()) continue;
      const std::string id = entry.path().filename().string();
      auto channel = EnsureChannel(id);
      if (channel.ok()) {
        CONVGPU_LOG(kInfo, kTag)
            << "re-bound dormant container socket for " << id;
      } else {
        CONVGPU_LOG(kWarn, kTag) << "cannot re-bind container socket for "
                                 << id << ": " << channel.status().ToString();
      }
    }
  }

  auto main_listener = reactor_.AddListener(
      main_socket_path(),
      [this](ipc::ListenerId, ipc::ConnectionId conn,
             std::string_view payload) { HandleMain(conn, payload); });
  if (!main_listener.ok()) {
    Stop();
    return main_listener.status();
  }
  CONVGPU_LOG(kInfo, kTag) << "scheduler listening on " << main_socket_path()
                           << " (policy " << core_.policy_name() << ", capacity "
                           << FormatByteSize(core_.capacity()) << ")";
  return Status::Ok();
}

void SchedulerServer::Stop() {
  {
    MutexLock lock(mutex_);
    if (!serving_) return;
    serving_ = false;
    for (auto& [id, channel] : channels_) channel->closed = true;
    channels_.clear();
  }
  core_.DetachLedgerPages();
  // One reactor serves every socket: stopping it tears down the main
  // listener, all container listeners, and all connections at once.
  reactor_.Stop();
}

void SchedulerServer::Reply(ipc::ConnectionId conn,
                            const protocol::Codec& codec,
                            const protocol::Message& message,
                            std::optional<protocol::ReqId> req_id, int fd) {
  // Per-thread scratch: deferred grants encode on whichever thread released
  // the memory, and reusing the buffer keeps the steady-state encode path
  // allocation-free (see bench/codec_microbench).
  thread_local std::string scratch;
  codec.Encode(message, req_id, scratch);
  (void)reactor_.SendBytes(conn, scratch, fd);
}

int SchedulerServer::ShareLedgerPage(ContainerChannel& channel,
                                     const std::string& container_id,
                                     ConnectionState& state) {
  if (channel.page == nullptr) {
    auto page = LedgerPage::Create(session_epoch_);
    if (!page.ok()) {
      CONVGPU_LOG(kWarn, kTag) << "no ledger page for " << container_id
                               << ": " << page.status().ToString();
      return -1;
    }
    if (!core_.AttachLedgerPage(container_id, *page).ok()) return -1;
    channel.page = std::move(*page);
  }
  if (state.slot) {
    // A second handshake on the same connection keeps its slot.
    channel.page->StoreApplied(*state.slot, state.frames);
  } else {
    state.slot = channel.page->AcquireSlot(state.frames);
    if (!state.slot) return -1;  // every slot taken
  }
  return channel.page->fd();
}

void SchedulerServer::NegotiateCodec(ConnectionState& state,
                                     ipc::ConnectionId conn, bool binary) {
  const protocol::Codec* codec =
      binary ? &protocol::binary_codec() : &protocol::json_codec();
  if (state.codec != codec) {
    CONVGPU_LOG(kDebug, kTag)
        << "conn " << conn << " negotiated " << codec->name() << " encoding";
  }
  state.codec = codec;
}

protocol::RegisterReply SchedulerServer::DoRegister(
    const protocol::RegisterContainer& request) {
  protocol::RegisterReply reply;
  {
    // A registration racing Stop() must not add a channel listener that
    // nobody will ever remove.
    MutexLock lock(mutex_);
    if (!serving_) {
      reply.error = "scheduler is shutting down";
      return reply;
    }
  }
  auto status = core_.RegisterContainer(request.container_id,
                                        request.memory_limit);
  if (!status.ok()) {
    reply.error = status.ToString();
    return reply;
  }

  auto channel = EnsureChannel(request.container_id);
  if (!channel.ok()) {
    (void)core_.ContainerClose(request.container_id);
    reply.error = channel.status().ToString();
    return reply;
  }

  if (!options_.wrapper_module_path.empty()) {
    std::error_code ec;
    fs::copy_file(options_.wrapper_module_path,
                  (*channel)->dir + "/libgpushare.so",
                  fs::copy_options::overwrite_existing, ec);
    if (ec) {
      CONVGPU_LOG(kWarn, kTag) << "cannot copy wrapper module: " << ec.message();
    }
  }

  {
    MutexLock lock(mutex_);
    if (!serving_) {
      // Stop() ran while the channel was being built; it will never see
      // this channel, so tear it down here.
      (*channel)->closed = true;
      channels_.erase(request.container_id);
      lock.Unlock();
      (void)reactor_.RemoveListener((*channel)->listener);
      (void)core_.ContainerClose(request.container_id);
      reply.error = "scheduler is shutting down";
      return reply;
    }
    // A fresh registration supersedes any state a previous incarnation's
    // wrappers rebuilt: their stale cross-epoch reattaches are rejected
    // from here on (see DoReattach).
    reattach_built_.erase(request.container_id);
  }
  reply.ok = true;
  reply.socket_dir = (*channel)->dir;
  reply.socket_path = (*channel)->socket_path;
  return reply;
}

Result<std::shared_ptr<SchedulerServer::ContainerChannel>>
SchedulerServer::EnsureChannel(const std::string& id) {
  {
    MutexLock lock(mutex_);
    auto it = channels_.find(id);
    if (it != channels_.end()) return it->second;  // dormant or live
  }

  // Per-container directory with its own UNIX socket — what nvidia-docker
  // bind-mounts into the container (§III-D).
  const std::string dir = options_.base_dir + "/containers/" + id;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return InternalError("cannot create container dir: " + ec.message());
  }

  auto channel = std::make_shared<ContainerChannel>();
  channel->dir = dir;
  channel->socket_path = dir + "/convgpu.sock";
  // The container's socket is one more listener on the shared reactor — no
  // thread or wake-pipe of its own. Its handlers hold the channel itself,
  // so a frame needs no lookup by name.
  auto listener = reactor_.AddListener(
      channel->socket_path,
      [this, channel, id](ipc::ListenerId, ipc::ConnectionId conn,
                          std::string_view payload) {
        HandleContainer(*channel, id, conn, payload);
      },
      [this, channel, id](ipc::ListenerId, ipc::ConnectionId conn) {
        HandleContainerDisconnect(*channel, id, conn);
      });
  if (!listener.ok()) return listener.status();
  channel->listener = *listener;

  MutexLock lock(mutex_);
  auto [it, inserted] = channels_.emplace(id, channel);
  if (!inserted) {
    // Lost a race with a concurrent EnsureChannel for the same id: keep the
    // winner's channel, drop ours.
    auto existing = it->second;
    channel->closed = true;
    lock.Unlock();
    (void)reactor_.RemoveListener(channel->listener);
    return existing;
  }
  return channel;
}

void SchedulerServer::DoContainerClose(const std::string& container_id) {
  // Releasing memory first lets suspended requests of *other* containers be
  // granted (their replies are queued before this container's listener is
  // removed), and answers this container's own suspended requests with
  // kAborted — those replies flush before the connections drop.
  (void)core_.ContainerClose(container_id);
  std::shared_ptr<ContainerChannel> channel;
  {
    MutexLock lock(mutex_);
    auto it = channels_.find(container_id);
    if (it != channels_.end()) {
      channel = it->second;
      channel->closed = true;
      channels_.erase(it);
    }
  }
  if (channel) (void)reactor_.RemoveListener(channel->listener);
}

protocol::StatsReply SchedulerServer::BuildStats() const {
  protocol::StatsReply reply;
  reply.capacity = core_.capacity();
  reply.free_pool = core_.free_pool();
  reply.policy = std::string(core_.policy_name());
  reply.kicked_connections = reactor_.total_kicked_connections();
  std::map<std::string, ipc::ListenerId> listeners;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, channel] : channels_) {
      listeners[id] = channel->listener;
    }
  }
  for (const auto& snapshot : core_.Stats()) {
    protocol::ContainerStatsWire wire;
    wire.container_id = snapshot.id;
    wire.limit = snapshot.limit;
    wire.assigned = snapshot.assigned;
    wire.used = snapshot.used;
    wire.suspended = snapshot.suspended;
    wire.total_suspended_sec = ToSeconds(snapshot.total_suspended);
    wire.suspend_episodes = snapshot.suspend_episodes;
    auto it = listeners.find(snapshot.id);
    if (it != listeners.end()) {
      wire.kicked_connections = reactor_.kicked_connections(it->second);
    }
    reply.containers.push_back(std::move(wire));
  }
  return reply;
}

void SchedulerServer::HandleMain(ipc::ConnectionId conn,
                                 std::string_view payload) {
  // The main socket never negotiates: tooling and nvidia-docker speak JSON.
  const protocol::Codec& json = protocol::json_codec();
  std::optional<protocol::ReqId> req_id;
  auto dispatched = protocol::DispatchFrame(
      payload, req_id,
      protocol::Visitor{
          [&](const protocol::RegisterContainer& request) {
            Reply(conn, json, DoRegister(request), req_id);
          },
          [&](const protocol::ContainerClose& close) {
            DoContainerClose(close.container_id);
          },
          [&](const protocol::Ping&) {
            Reply(conn, json, protocol::Pong{}, req_id);
          },
          [&](const protocol::StatsRequest&) {
            Reply(conn, json, BuildStats(), req_id);
          },
          [&](const auto& other) {
            CONVGPU_LOG(kWarn, kTag)
                << "unexpected message on main socket: "
                << protocol::TypeName(protocol::Message(other));
          },
      });
  if (!dispatched.ok()) {
    CONVGPU_LOG(kWarn, kTag) << "bad main-socket message: "
                             << dispatched.ToString();
  }
}

void SchedulerServer::HandleContainer(ContainerChannel& channel,
                                      const std::string& container_id,
                                      ipc::ConnectionId conn,
                                      std::string_view payload) {
  if (channel.closed.load(std::memory_order_acquire)) return;
  ConnectionState& state = channel.connections[conn];
  ++state.frames;
  const protocol::Codec& codec = *state.codec;
  // The frame counts as handled in the connection's ledger-page slot once
  // its effect is in the ledger: after the handler, and also before an
  // immediate reply, so a wrapper holding the reply finds its slot caught
  // up.
  auto mark_handled = [&] {
    if (state.slot) channel.page->StoreApplied(*state.slot, state.frames);
  };

  // Record the speaking pid for crash cleanup.
  auto note_pid = [&](Pid pid) { state.pids.insert(pid); };

  std::optional<protocol::ReqId> req_id;
  auto dispatched = protocol::DispatchFrame(
      payload, req_id,
      protocol::Visitor{
          [&](const protocol::AllocRequest& request) {
            note_pid(request.pid);
            // The reply may be deferred (suspension) and fire from whichever
            // thread releases memory, possibly after this container was
            // closed and its listener removed — the shared reactor outlives
            // every channel, and SendBytes() on a vanished connection is a
            // clean kNotFound. The captured req_id makes the deferred grant land
            // on the caller that parked, however many sibling calls the
            // pipelined link issued in between.
            core_.RequestAlloc(
                container_id, request.pid, request.size,
                [this, conn, codec = &codec, req_id](const Status& status) {
                  protocol::AllocReply reply;
                  reply.granted = status.ok();
                  if (!status.ok()) reply.error = status.ToString();
                  Reply(conn, *codec, reply, req_id);
                });
          },
          [&](const protocol::AllocCommit& commit) {
            note_pid(commit.pid);
            (void)core_.CommitAlloc(container_id, commit.pid, commit.address,
                                    commit.size);
          },
          [&](const protocol::AllocAbort& abort) {
            (void)core_.AbortAlloc(container_id, abort.pid, abort.size);
          },
          [&](const protocol::FreeNotify& free) {
            (void)core_.FreeAlloc(container_id, free.pid, free.address);
          },
          [&](const protocol::MemGetInfoRequest&) {
            protocol::MemInfoReply reply;
            auto result = core_.MemGetInfo(container_id);
            if (result.ok()) {
              reply.free = result->free;
              reply.total = result->total;
            }
            mark_handled();
            Reply(conn, codec, reply, req_id);
          },
          [&](const protocol::ProcessExit& exit) {
            (void)core_.ProcessExit(container_id, exit.pid);
            for (auto& [id, other] : channel.connections) {
              other.pids.erase(exit.pid);
            }
          },
          [&](const protocol::Ping&) {
            mark_handled();
            Reply(conn, codec, protocol::Pong{}, req_id);
          },
          [&](const protocol::StatsRequest&) {
            mark_handled();
            Reply(conn, codec, BuildStats(), req_id);
          },
          [&](const protocol::Hello& hello) {
            note_pid(hello.pid);
            protocol::HelloReply reply;
            reply.epoch = session_epoch_;
            auto stats = core_.StatsFor(container_id);
            if (stats) {
              reply.ok = true;
              reply.limit = stats->limit;
            } else {
              reply.error = "unknown container: " + container_id;
            }
            // Codec negotiation: binary only when both sides opt in. The
            // reply itself still rides the *current* (JSON) encoding — the
            // switch takes effect for frames after the handshake.
            const bool binary =
                reply.ok && hello.binary && options_.enable_binary;
            reply.binary = binary;
            const int page =
                reply.ok ? ShareLedgerPage(channel, container_id, state) : -1;
            if (page >= 0) reply.page_slot = state.slot;
            Reply(conn, codec, reply, req_id, page);
            NegotiateCodec(state, conn, binary);
          },
          [&](const protocol::Reattach& reattach) {
            auto reply = DoReattach(container_id, channel, conn, reattach);
            const bool binary =
                reply.ok && reattach.binary && options_.enable_binary;
            reply.binary = binary;
            const int page =
                reply.ok ? ShareLedgerPage(channel, container_id, state) : -1;
            if (page >= 0) reply.page_slot = state.slot;
            Reply(conn, codec, reply, req_id, page);
            NegotiateCodec(state, conn, binary);
          },
          [&](const auto& other) {
            CONVGPU_LOG(kWarn, kTag)
                << "unexpected message on container socket: "
                << protocol::TypeName(protocol::Message(other));
          },
      });
  mark_handled();
  if (!dispatched.ok()) {
    CONVGPU_LOG(kWarn, kTag) << "bad container message: "
                             << dispatched.ToString();
  }
}

protocol::ReattachReply SchedulerServer::DoReattach(
    const std::string& container_id, ContainerChannel& channel,
    ipc::ConnectionId conn, const protocol::Reattach& request) {
  protocol::ReattachReply reply;
  reply.epoch = session_epoch_;

  const bool same_epoch = request.epoch == session_epoch_;
  const bool known = core_.HasContainer(container_id);
  if (same_epoch) {
    // Connection blip within this incarnation: the disconnect handler
    // reclaimed the pid's memory, RestoreProcess below puts it back. A
    // container we no longer know was closed while the wrapper was away —
    // its memory is gone for good.
    if (!known) {
      reply.error = "container " + container_id +
                    " was closed while the wrapper was disconnected";
      CONVGPU_LOG(kWarn, kTag) << "rejecting reattach: " << reply.error;
      return reply;
    }
  } else {
    // Cross-epoch: the wrapper outlived a daemon restart. Rebuild is fine
    // for a container this incarnation never registered (or only knows
    // through earlier reattaches) — but if the id was *freshly registered*
    // here, the reattaching wrapper belongs to a dead tenancy of the same
    // name and must not graft its allocations onto the new one.
    bool rebuilt_here = false;
    {
      MutexLock lock(mutex_);
      rebuilt_here = reattach_built_.count(container_id) > 0;
    }
    if (known && !rebuilt_here) {
      reply.error = "epoch mismatch: container " + container_id +
                    " was registered anew in this scheduler session";
      CONVGPU_LOG(kWarn, kTag) << "rejecting reattach: " << reply.error;
      return reply;
    }
  }

  std::vector<SchedulerCore::RestoredAlloc> allocations;
  allocations.reserve(request.allocations.size());
  for (const auto& alloc : request.allocations) {
    allocations.push_back({alloc.address, alloc.size});
  }
  std::optional<Bytes> limit;
  if (request.limit > 0) limit = request.limit;
  auto status =
      core_.RestoreProcess(container_id, limit, request.pid, allocations);
  if (!status.ok()) {
    reply.error = status.ToString();
    CONVGPU_LOG(kWarn, kTag) << "rejecting reattach of pid " << request.pid
                             << " in " << container_id << ": " << reply.error;
    return reply;
  }
  if (!same_epoch) {
    MutexLock lock(mutex_);
    reattach_built_.insert(container_id);
  }
  // Re-home the pid to the reattaching connection: a stale connection's
  // late disconnect must not reclaim the memory just restored.
  for (auto& [other_conn, other] : channel.connections) {
    other.pids.erase(request.pid);
  }
  channel.connections[conn].pids.insert(request.pid);
  CONVGPU_LOG(kInfo, kTag) << "reattached pid " << request.pid << " in "
                           << container_id << " ("
                           << request.allocations.size() << " allocations, "
                           << (same_epoch ? "same epoch" : "rebuilt") << ")";
  reply.ok = true;
  return reply;
}

void SchedulerServer::HandleContainerDisconnect(ContainerChannel& channel,
                                                const std::string& container_id,
                                                ipc::ConnectionId conn) {
  auto it = channel.connections.find(conn);
  if (it == channel.connections.end()) return;
  const std::set<Pid> orphans = std::move(it->second.pids);
  if (it->second.slot) channel.page->ReleaseSlot(*it->second.slot);
  channel.connections.erase(it);  // the codec choice dies with it
  if (channel.closed.load(std::memory_order_acquire)) return;
  // A process that vanished without process_exit (crash, SIGKILL) still
  // gets its GPU memory reclaimed — robustness beyond the paper.
  for (Pid pid : orphans) {
    CONVGPU_LOG(kInfo, kTag) << "reclaiming memory of vanished pid " << pid
                             << " in " << container_id;
    (void)core_.ProcessExit(container_id, pid);
  }
}

}  // namespace convgpu
