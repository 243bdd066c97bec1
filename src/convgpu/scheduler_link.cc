#include "convgpu/scheduler_link.h"

#include <utility>

#include "common/log.h"

namespace convgpu {

namespace {

constexpr char kTag[] = "sched-link";

SchedulerLink::ReplyFuture ImmediateReply(Result<protocol::Message> reply) {
  std::promise<Result<protocol::Message>> promise;
  promise.set_value(std::move(reply));
  return promise.get_future();
}

}  // namespace

// --- ReplyRouter ------------------------------------------------------------

protocol::ReqId ReplyRouter::NextIdLocked() {
  // The wire carries ids in a signed JSON integer, so the usable space is
  // [1, kMaxWireReqId]; wrap past the end and skip any id still pending
  // from the previous lap.
  for (;;) {
    if (next_id_ == 0 || next_id_ > protocol::kMaxWireReqId) next_id_ = 1;
    const protocol::ReqId id = next_id_++;
    if (pending_.find(id) == pending_.end()) return id;
  }
}

ReplyRouter::Issued ReplyRouter::Issue() {
  MutexLock lock(mutex_);
  Issued issued;
  issued.id = NextIdLocked();
  issued.reply = pending_[issued.id].promise.get_future();
  return issued;
}

ReplyRouter::Issued ReplyRouter::Issue(const protocol::Message& request,
                                       bool replayable) {
  MutexLock lock(mutex_);
  Issued issued;
  issued.id = NextIdLocked();
  Slot& slot = pending_[issued.id];
  slot.request = request;
  slot.replayable = replayable;
  issued.reply = slot.promise.get_future();
  return issued;
}

Status ReplyRouter::Route(std::optional<protocol::ReqId> req_id,
                          Result<protocol::Message> reply) {
  std::promise<Result<protocol::Message>> promise;
  {
    MutexLock lock(mutex_);
    if (req_id) {
      auto it = pending_.find(*req_id);
      if (it == pending_.end()) {
        // Below the counter: an id we already answered (duplicate). At or
        // above it: an id this connection never issued. Either way nobody
        // may receive it.
        return FailedPreconditionError(
            *req_id < next_id_
                ? "duplicate reply for req_id " + std::to_string(*req_id)
                : "reply for never-issued req_id " + std::to_string(*req_id));
      }
      promise = std::move(it->second.promise);
      pending_.erase(it);
    } else {
      // Id-less peer (pre-correlation daemon): replies are FIFO because
      // that protocol allowed only one call in flight per connection.
      if (pending_.empty()) {
        return FailedPreconditionError("id-less reply with no call pending");
      }
      auto it = pending_.begin();
      promise = std::move(it->second.promise);
      pending_.erase(it);
    }
  }
  promise.set_value(std::move(reply));
  return Status::Ok();
}

void ReplyRouter::FailAll(const Status& status) {
  std::map<protocol::ReqId, Slot> failed;
  {
    MutexLock lock(mutex_);
    failed.swap(pending_);
  }
  for (auto& [id, slot] : failed) {
    slot.promise.set_value(Result<protocol::Message>(status));
  }
}

std::vector<ReplyRouter::Parked> ReplyRouter::DrainForReplay(
    const Status& status) {
  std::vector<Parked> replay;
  std::vector<std::promise<Result<protocol::Message>>> failed;
  {
    MutexLock lock(mutex_);
    // Map order is id order is issue order, so replay preserves FIFO (the
    // one wraparound lap where that is not strictly true is harmless: the
    // replayed calls are idempotent and independently correlated).
    for (auto& [id, slot] : pending_) {
      if (slot.replayable) {
        replay.push_back(Parked{std::move(slot.request),
                                std::move(slot.promise)});
      } else {
        failed.push_back(std::move(slot.promise));
      }
    }
    pending_.clear();
    next_id_ = 1;  // the next connection is a fresh id space
  }
  for (auto& promise : failed) {
    promise.set_value(Result<protocol::Message>(status));
  }
  return replay;
}

protocol::ReqId ReplyRouter::Reissue(Parked parked) {
  MutexLock lock(mutex_);
  const protocol::ReqId id = NextIdLocked();
  Slot& slot = pending_[id];
  slot.request = std::move(parked.request);
  slot.promise = std::move(parked.promise);
  slot.replayable = true;
  return id;
}

std::size_t ReplyRouter::pending_count() const {
  MutexLock lock(mutex_);
  return pending_.size();
}

void ReplyRouter::SetNextIdForTesting(protocol::ReqId next) {
  MutexLock lock(mutex_);
  next_id_ = next;
}

// --- SocketSchedulerLink ----------------------------------------------------

namespace {

/// Replay-eligible requests: read-only or side-effect-free exchanges whose
/// answer is valid from any daemon incarnation. Alloc/free-path calls are
/// NOT replayable — resending an admission request the daemon may already
/// have granted would double-count.
bool IsReplayable(const protocol::Message& request) {
  return std::holds_alternative<protocol::MemGetInfoRequest>(request) ||
         std::holds_alternative<protocol::Ping>(request) ||
         std::holds_alternative<protocol::StatsRequest>(request);
}

}  // namespace

Result<std::unique_ptr<SocketSchedulerLink>> SocketSchedulerLink::Connect(
    const std::string& socket_path) {
  auto client = ipc::MessageClient::ConnectUnix(socket_path);
  if (!client.ok()) return client.status();
  return std::unique_ptr<SocketSchedulerLink>(new SocketSchedulerLink(
      std::move(*client), socket_path, Options{}, /*epoch=*/0, /*limit=*/0,
      /*binary=*/false));
}

Result<std::unique_ptr<SocketSchedulerLink>> SocketSchedulerLink::Connect(
    const std::string& socket_path, Options options) {
  auto client =
      ipc::MessageClient::ConnectUnix(socket_path, options.handshake_timeout);
  if (!client.ok()) return client.status();

  std::uint64_t epoch = 0;
  Bytes limit = 0;
  bool binary = false;
  if (!options.container_id.empty()) {
    protocol::Hello hello;
    hello.container_id = options.container_id;
    hello.pid = options.pid;
    // Codec negotiation rides the handshake, which itself always travels
    // as JSON — an old daemon simply ignores the unknown key and never
    // echoes it, which reads back as "JSON only".
    hello.binary = options.enable_binary;
    auto reply = protocol::Expect<protocol::HelloReply>(
        protocol::Call(**client, protocol::Message(hello), std::nullopt,
                       options.handshake_timeout));
    if (!reply.ok()) return reply.status();
    if (!reply->ok) {
      return FailedPreconditionError("hello rejected by scheduler: " +
                                     reply->error);
    }
    epoch = reply->epoch;
    limit = reply->limit;
    binary = reply->binary && options.enable_binary;
  }
  return std::unique_ptr<SocketSchedulerLink>(
      new SocketSchedulerLink(std::move(*client), socket_path,
                              std::move(options), epoch, limit, binary));
}

SocketSchedulerLink::SocketSchedulerLink(
    std::unique_ptr<ipc::MessageClient> client, std::string socket_path,
    Options options, std::uint64_t epoch, Bytes limit, bool binary)
    : socket_path_(std::move(socket_path)), options_(std::move(options)) {
  client_ = std::move(client);
  epoch_ = epoch;
  limit_ = limit;
  codec_ = binary ? &protocol::binary_codec() : &protocol::json_codec();
  snapshot_ = options_.snapshot;
  worker_ = std::thread([this] { WorkerLoop(); });
}

SocketSchedulerLink::~SocketSchedulerLink() {
  std::shared_ptr<ipc::MessageClient> client;
  {
    MutexLock lock(state_mutex_);
    closing_ = true;
    if (broken_.ok()) broken_ = UnavailableError("scheduler link closed");
    client = client_;
  }
  backoff_cv_.notify_all();      // interrupts a reconnect backoff wait
  if (client) client->Shutdown();  // wakes a reader blocked in RecvFrame()
  if (worker_.joinable()) worker_.join();
  // The worker's exit path has already failed every waiting caller.
}

void SocketSchedulerLink::SetSnapshotProvider(
    std::function<std::vector<protocol::LiveAlloc>()> snapshot) {
  MutexLock lock(state_mutex_);
  snapshot_ = std::move(snapshot);
}

Status SocketSchedulerLink::BrokenStatus() const {
  MutexLock lock(state_mutex_);
  return broken_;
}

std::uint64_t SocketSchedulerLink::session_epoch() const {
  MutexLock lock(state_mutex_);
  return epoch_;
}

std::uint64_t SocketSchedulerLink::reconnect_count() const {
  MutexLock lock(state_mutex_);
  return reconnects_;
}

std::uint64_t SocketSchedulerLink::replayed_call_count() const {
  MutexLock lock(state_mutex_);
  return replayed_;
}

bool SocketSchedulerLink::connected() const {
  MutexLock lock(state_mutex_);
  return broken_.ok() && state_ == LinkState::kConnected;
}

std::string SocketSchedulerLink::wire_codec_name() const {
  MutexLock lock(state_mutex_);
  return std::string(codec_->name());
}

Status SocketSchedulerLink::ReadLoop(ipc::MessageClient& client) {
  for (;;) {
    auto raw = client.RecvFrame();
    if (!raw.ok()) return raw.status();
    // Replies are decoded by sniffing each payload's first byte, not by the
    // negotiated state: both encodings are always accepted, so a daemon
    // answering in either (including mid-renegotiation) is never
    // misinterpreted.
    const std::optional<protocol::ReqId> req_id =
        protocol::PeekPayloadReqId(*raw);
    auto message = protocol::DecodePayload(*raw);
    if (!message.ok() && !req_id) {
      // Garbage without even a correlation id: the stream can no longer be
      // trusted (same as the old reader, where an unparsable frame failed
      // Recv()). Connection loss; the worker decides reconnect vs fail.
      return message.status();
    }
    const Status routed =
        message.ok() ? router_.Route(req_id, std::move(*message))
                     : router_.Route(req_id, Result<protocol::Message>(
                                                 message.status()));
    if (!routed.ok()) {
      CONVGPU_LOG(kWarn, kTag)
          << "dropping unroutable reply: " << routed.ToString();
    }
  }
}

void SocketSchedulerLink::FailEverything(const Status& status) {
  Status final_status = status;
  std::vector<ReplyRouter::Parked> waiting;
  {
    MutexLock lock(state_mutex_);
    if (broken_.ok()) {
      broken_ = status;
    } else {
      final_status = broken_;  // deliberate close: keep the first cause
    }
    state_ = LinkState::kBroken;
    waiting.swap(waiting_);
  }
  router_.FailAll(final_status);
  for (auto& parked : waiting) {
    parked.promise.set_value(Result<protocol::Message>(final_status));
  }
}

void SocketSchedulerLink::WorkerLoop() {
  for (;;) {
    std::shared_ptr<ipc::MessageClient> client;
    {
      MutexLock lock(state_mutex_);
      client = client_;
    }
    const Status receive_error = ReadLoop(*client);
    const Status down = UnavailableError("scheduler connection lost: " +
                                         receive_error.ToString());
    {
      MutexLock lock(state_mutex_);
      if (closing_ || !options_.auto_reconnect) {
        lock.Unlock();
        // EOF or read error with no reconnect: every caller still waiting —
        // including one whose request was sent but never answered — gets
        // the same typed error instead of a silent hang or a lost reply.
        FailEverything(down);
        return;
      }
      state_ = LinkState::kReconnecting;
    }
    // Fail the non-replayable in-flight calls (an admission the daemon may
    // already have acted on must not be resent); park the idempotent ones.
    auto parked = router_.DrainForReplay(UnavailableError(
        "scheduler connection lost with this call in flight; " +
        std::string("the call is not replay-safe")));
    {
      MutexLock lock(state_mutex_);
      for (auto& p : parked) waiting_.push_back(std::move(p));
    }
    if (!Reconnect()) return;
  }
}

bool SocketSchedulerLink::Reconnect() {
  std::chrono::milliseconds backoff = options_.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    {
      MutexLock lock(state_mutex_);
      if (closing_) {
        lock.Unlock();
        FailEverything(UnavailableError("scheduler link closed"));
        return false;
      }
    }

    auto fresh = ipc::MessageClient::ConnectUnix(socket_path_,
                                                 options_.handshake_timeout);
    Status result = fresh.ok() ? ReattachHandshake(**fresh) : fresh.status();
    if (result.ok()) {
      std::shared_ptr<ipc::MessageClient> client = std::move(*fresh);
      std::vector<ReplyRouter::Parked> replay;
      const protocol::Codec* codec = nullptr;
      {
        MutexLock lock(state_mutex_);
        if (closing_) {
          lock.Unlock();
          FailEverything(UnavailableError("scheduler link closed"));
          return false;
        }
        client_ = client;
        state_ = LinkState::kConnected;
        codec = codec_;  // re-negotiated by ReattachHandshake just now
        replay.swap(waiting_);
        ++reconnects_;
        replayed_ += replay.size();
      }
      CONVGPU_LOG(kInfo, kTag)
          << "reattached to scheduler after " << attempt
          << " attempt(s); replaying " << replay.size() << " call(s)";
      std::string scratch;
      for (auto& parked : replay) {
        const protocol::Message request = parked.request;
        const protocol::ReqId id = router_.Reissue(std::move(parked));
        codec->Encode(request, id, scratch);
        const Status sent = client->SendFrame(scratch);
        if (!sent.ok()) {
          // The fresh connection died already. Force the reader to see it;
          // the next drain re-parks this (still replayable) call.
          client->Shutdown();
          break;
        }
      }
      return true;
    }

    if (result.code() == StatusCode::kFailedPrecondition) {
      // The daemon answered and said no (stale epoch / conflicting state):
      // retrying cannot help, the link is done for good.
      CONVGPU_LOG(kWarn, kTag)
          << "reattach rejected, link is permanently down: "
          << result.ToString();
      FailEverything(result);
      return false;
    }
    CONVGPU_LOG(kInfo, kTag) << "reconnect attempt " << attempt
                             << " failed: " << result.ToString();

    {
      MutexLock lock(state_mutex_);
      const auto deadline = std::chrono::steady_clock::now() + backoff;
      while (!closing_ &&
             backoff_cv_.wait_until(state_mutex_, deadline) !=
                 std::cv_status::timeout) {
      }
      if (closing_) {
        lock.Unlock();
        FailEverything(UnavailableError("scheduler link closed"));
        return false;
      }
    }
    backoff = std::min(backoff * 2, options_.max_backoff);
  }
}

Status SocketSchedulerLink::ReattachHandshake(ipc::MessageClient& client) {
  if (options_.container_id.empty()) return Status::Ok();  // no handshake

  protocol::Reattach reattach;
  std::function<std::vector<protocol::LiveAlloc>()> snapshot;
  {
    MutexLock lock(state_mutex_);
    reattach.container_id = options_.container_id;
    reattach.pid = options_.pid;
    reattach.epoch = epoch_;
    reattach.limit = limit_;
    snapshot = snapshot_;
  }
  if (snapshot) reattach.allocations = snapshot();
  // Codec choice is per *connection*, so every reconnect renegotiates from
  // scratch — the daemon answering this reattach may be an older or
  // differently-configured incarnation than the one the link last spoke to.
  // The handshake itself always travels as JSON.
  reattach.binary = options_.enable_binary;

  auto reply = protocol::Expect<protocol::ReattachReply>(
      protocol::Call(client, protocol::Message(reattach), std::nullopt,
                     options_.handshake_timeout));
  if (!reply.ok()) return reply.status();
  if (!reply->ok) {
    return FailedPreconditionError("reattach rejected by scheduler: " +
                                   reply->error);
  }
  MutexLock lock(state_mutex_);
  epoch_ = reply->epoch;  // a restarted daemon hands out its new epoch
  codec_ = (reply->binary && options_.enable_binary)
               ? &protocol::binary_codec()
               : &protocol::json_codec();
  return Status::Ok();
}

SchedulerLink::ReplyFuture SocketSchedulerLink::AsyncCall(
    const protocol::Message& request) {
  const bool replayable = IsReplayable(request);
  std::shared_ptr<ipc::MessageClient> client;
  const protocol::Codec* codec = nullptr;
  ReplyRouter::Issued issued;
  {
    MutexLock lock(state_mutex_);
    if (!broken_.ok()) {
      return ImmediateReply(Result<protocol::Message>(broken_));
    }
    if (state_ == LinkState::kReconnecting) {
      if (!replayable) {
        return ImmediateReply(Result<protocol::Message>(UnavailableError(
            "scheduler restarting: " +
            std::string(protocol::TypeName(request)) +
            " is not replay-safe")));
      }
      // Park it: completes after the next successful reattach.
      ReplyRouter::Parked parked;
      parked.request = request;
      auto future = parked.promise.get_future();
      waiting_.push_back(std::move(parked));
      return future;
    }
    client = client_;
    codec = codec_;
    issued = options_.auto_reconnect ? router_.Issue(request, replayable)
                                     : router_.Issue();
  }
  // Per-thread scratch keeps the steady-state encode path allocation-free
  // (see bench/codec_microbench); the codec singleton it points at is
  // immutable, so using it after dropping the lock is safe.
  thread_local std::string scratch;
  codec->Encode(request, issued.id, scratch);
  const Status sent = client->SendFrame(scratch);
  if (!sent.ok()) {
    if (options_.auto_reconnect) {
      // Convert any send failure into connection loss: the reader wakes,
      // the worker drains the router, and this call is parked (replayable)
      // or failed (alloc-path) by the same rules as a receive-side loss.
      client->Shutdown();
    } else {
      // Complete this slot only; the reader handles connection-level death.
      // Route can lose the race against the reader's FailAll — then the
      // future already holds kUnavailable and this is a harmless no-op.
      (void)router_.Route(issued.id,
                          Result<protocol::Message>(UnavailableError(
                              "cannot reach scheduler: " + sent.ToString())));
    }
  }
  return std::move(issued.reply);
}

Status SocketSchedulerLink::Notify(const protocol::Message& message) {
  std::shared_ptr<ipc::MessageClient> client;
  const protocol::Codec* codec = nullptr;
  {
    MutexLock lock(state_mutex_);
    if (!broken_.ok()) return broken_;
    if (state_ == LinkState::kReconnecting) {
      // Dropped, not queued: the reattach snapshot carries the wrapper's
      // ground truth, so the daemon reconciles on reconnect anyway.
      return UnavailableError("scheduler restarting; notification not sent");
    }
    client = client_;
    codec = codec_;
  }
  thread_local std::string scratch;
  codec->Encode(message, std::nullopt, scratch);
  const Status sent = client->SendFrame(scratch);
  if (!sent.ok() && options_.auto_reconnect) client->Shutdown();
  return sent;
}

// --- DirectSchedulerLink ----------------------------------------------------

SchedulerLink::ReplyFuture DirectSchedulerLink::AsyncCall(
    const protocol::Message& request) {
  if (const auto* alloc = std::get_if<protocol::AllocRequest>(&request)) {
    // The core invokes the grant callback after the decision — possibly
    // much later, from whichever thread released memory — so the promise
    // outlives this frame.
    auto decided =
        std::make_shared<std::promise<Result<protocol::Message>>>();
    auto future = decided->get_future();
    core_->RequestAlloc(container_id_, alloc->pid, alloc->size,
                        [decided](const Status& status) {
                          protocol::AllocReply reply;
                          reply.granted = status.ok();
                          if (!status.ok()) reply.error = status.ToString();
                          decided->set_value(
                              Result<protocol::Message>(protocol::Message(reply)));
                        });
    return future;
  }
  if (std::holds_alternative<protocol::MemGetInfoRequest>(request)) {
    protocol::MemInfoReply reply;
    auto info = core_->MemGetInfo(container_id_);
    if (info.ok()) {
      reply.free = info->free;
      reply.total = info->total;
    }
    return ImmediateReply(Result<protocol::Message>(protocol::Message(reply)));
  }
  if (std::holds_alternative<protocol::Ping>(request)) {
    return ImmediateReply(
        Result<protocol::Message>(protocol::Message(protocol::Pong{})));
  }
  return ImmediateReply(Result<protocol::Message>(
      InvalidArgumentError("unsupported direct call: " +
                           std::string(protocol::TypeName(request)))));
}

Status DirectSchedulerLink::Notify(const protocol::Message& message) {
  if (const auto* commit = std::get_if<protocol::AllocCommit>(&message)) {
    return core_->CommitAlloc(container_id_, commit->pid, commit->address,
                              commit->size);
  }
  if (const auto* abort = std::get_if<protocol::AllocAbort>(&message)) {
    return core_->AbortAlloc(container_id_, abort->pid, abort->size);
  }
  if (const auto* free = std::get_if<protocol::FreeNotify>(&message)) {
    return core_->FreeAlloc(container_id_, free->pid, free->address);
  }
  if (const auto* exit = std::get_if<protocol::ProcessExit>(&message)) {
    return core_->ProcessExit(container_id_, exit->pid);
  }
  if (const auto* close = std::get_if<protocol::ContainerClose>(&message)) {
    return core_->ContainerClose(close->container_id);
  }
  return InvalidArgumentError("unsupported direct notify: " +
                              std::string(protocol::TypeName(message)));
}

}  // namespace convgpu
