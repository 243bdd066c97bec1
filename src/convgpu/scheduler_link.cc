#include "convgpu/scheduler_link.h"

#include <poll.h>

#include <cerrno>
#include <utility>

#include "common/log.h"

namespace convgpu {

namespace {

constexpr char kTag[] = "sched-link";

}  // namespace

// --- Completion slots and the reader role --------------------------------

namespace link_internal {

/// One call's completion slot. Every field is guarded by the mutex of the
/// RouterCore that issued it.
struct CallSlot {
  std::optional<Result<protocol::Message>> reply;  // set once, on completion
  protocol::Message request;  // kept for replay (replayable calls only)
  bool replayable = false;
  /// A thread is asleep on `wake` (cleared by whoever wakes it).
  bool waiting = false;
  /// Signals completion, or promotion to the reader role.
  CondVar wake;
};

/// Shared by a ReplyRouter and every future it issued.
class RouterCore {
 public:
  using Deadline = std::chrono::steady_clock::time_point;

  protocol::ReqId NextIdLocked() REQUIRES(mutex);
  /// Index into `pending` of the slot `id` names, or pending.size().
  std::size_t FindLocked(protocol::ReqId id) const REQUIRES(mutex);
  void CompleteLocked(CallSlot& slot, Result<protocol::Message> reply)
      REQUIRES(mutex);
  Status RouteLocked(std::optional<protocol::ReqId> req_id,
                     Result<protocol::Message> reply) REQUIRES(mutex);
  /// Wakes one waiting caller to take the reader role, if one may.
  void PromoteLocked() REQUIRES(mutex);

  /// Decodes one reply frame and routes it; `*mine_done` tells whether
  /// `mine` (may be null) is complete afterwards. An error means the stream
  /// can no longer be trusted (garbage without even a correlation id).
  Status RouteFrame(std::string_view frame, const CallSlot* mine,
                    bool* mine_done);

  /// The body of every wait: leads when nobody reads, follows otherwise.
  std::future_status Wait(CallSlot& slot, std::optional<Deadline> deadline);
  Result<protocol::Message> Take(CallSlot& slot);

  mutable Mutex mutex;
  protocol::ReqId next_id GUARDED_BY(mutex) = 1;
  /// Outstanding calls in issue order (typically a handful).
  std::vector<std::pair<protocol::ReqId, std::shared_ptr<CallSlot>>> pending
      GUARDED_BY(mutex);
  /// The connection callers read from; null while none may (no connection,
  /// or the hang-up watcher owns it).
  std::shared_ptr<ipc::MessageClient> source GUARDED_BY(mutex);
  bool reading GUARDED_BY(mutex) = false;  // a caller holds the reader role
  CondVar reader_left;  // Detach() waits here for the leader to step down

 private:
  /// Reads and routes until `slot` completes, the deadline passes
  /// (kDeadlineExceeded) or the stream ends.
  Status Lead(ipc::MessageClient& client, CallSlot& slot,
              std::optional<Deadline> deadline);
};

protocol::ReqId RouterCore::NextIdLocked() {
  // The wire carries ids in a signed JSON integer, so the usable space is
  // [1, kMaxWireReqId]; wrap past the end and skip any id still pending
  // from the previous lap.
  for (;;) {
    if (next_id == 0 || next_id > protocol::kMaxWireReqId) next_id = 1;
    const protocol::ReqId id = next_id++;
    if (FindLocked(id) == pending.size()) return id;
  }
}

std::size_t RouterCore::FindLocked(protocol::ReqId id) const {
  std::size_t i = 0;
  while (i < pending.size() && pending[i].first != id) ++i;
  return i;
}

void RouterCore::CompleteLocked(CallSlot& slot,
                                Result<protocol::Message> reply) {
  slot.reply = std::move(reply);
  if (slot.waiting) {
    slot.waiting = false;
    slot.wake.NotifyOne();
  }
}

Status RouterCore::RouteLocked(std::optional<protocol::ReqId> req_id,
                               Result<protocol::Message> reply) {
  std::size_t index = 0;  // id-less peer (pre-correlation daemon): replies
                          // are FIFO because that protocol allowed only one
                          // call in flight per connection.
  if (req_id) {
    index = FindLocked(*req_id);
    if (index == pending.size()) {
      // Below the counter: an id we already answered (duplicate). At or
      // above it: an id this connection never issued. Either way nobody
      // may receive it.
      return FailedPreconditionError(
          *req_id < next_id
              ? "duplicate reply for req_id " + std::to_string(*req_id)
              : "reply for never-issued req_id " + std::to_string(*req_id));
    }
  } else if (pending.empty()) {
    return FailedPreconditionError("id-less reply with no call pending");
  }
  const std::shared_ptr<CallSlot> slot = std::move(pending[index].second);
  pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(index));
  CompleteLocked(*slot, std::move(reply));
  return Status::Ok();
}

void RouterCore::PromoteLocked() {
  if (source == nullptr || reading) return;
  for (auto& [id, slot] : pending) {
    if (slot->waiting) {
      slot->waiting = false;
      slot->wake.NotifyOne();
      return;
    }
  }
}

Status RouterCore::RouteFrame(std::string_view frame, const CallSlot* mine,
                              bool* mine_done) {
  // Replies are decoded by sniffing each payload's first byte, not by the
  // negotiated state: both encodings are always accepted, so a daemon
  // answering in either (including mid-renegotiation) is never
  // misinterpreted.
  std::optional<protocol::ReqId> req_id;
  auto message = protocol::DecodePayload(frame, req_id);
  if (!message.ok() && !req_id) return message.status();
  Status routed;
  {
    MutexLock lock(mutex);
    routed = message.ok() ? RouteLocked(req_id, std::move(*message))
                          : RouteLocked(req_id, Result<protocol::Message>(
                                                    message.status()));
    *mine_done = mine != nullptr && mine->reply.has_value();
  }
  if (!routed.ok()) {
    CONVGPU_LOG(kWarn, kTag)
        << "dropping unroutable reply: " << routed.ToString();
  }
  return Status::Ok();
}

Status RouterCore::Lead(ipc::MessageClient& client, CallSlot& slot,
                        std::optional<Deadline> deadline) {
  for (;;) {
    auto frame = client.RecvFrameView(deadline);
    if (!frame.ok()) return frame.status();
    bool done = false;
    CONVGPU_RETURN_IF_ERROR(RouteFrame(*frame, &slot, &done));
    // Frames the same read brought along stay buffered for the caller this
    // one promotes: waking their owners is not this caller's latency.
    if (done) return Status::Ok();
  }
}

std::future_status RouterCore::Wait(CallSlot& slot,
                                    std::optional<Deadline> deadline) {
  MutexLock lock(mutex);
  bool led = false;
  for (;;) {
    if (slot.reply) return std::future_status::ready;
    const bool expired =
        deadline && std::chrono::steady_clock::now() >= *deadline;
    // Lead when nobody reads. An expired deadline still gets one (non-
    // blocking) turn, so a polling wait_for(0) loop makes progress.
    if (source != nullptr && !reading && !(expired && led)) {
      reading = true;
      led = true;
      const std::shared_ptr<ipc::MessageClient> client = source;
      lock.Unlock();
      const Status status = Lead(*client, slot, deadline);
      lock.Lock();
      reading = false;
      if (!status.ok() && status.code() != StatusCode::kDeadlineExceeded) {
        // The stream ended or cannot be trusted. Nobody reads it again; the
        // shutdown makes sure the hang-up watcher sees it and takes over.
        if (source == client) source.reset();
        client->Shutdown();
      }
      reader_left.NotifyAll();
      PromoteLocked();
      continue;
    }
    if (expired) {
      PromoteLocked();  // in case this thread was promoted and now leaves
      return std::future_status::timeout;
    }
    slot.waiting = true;
    if (deadline) {
      (void)slot.wake.WaitUntil(mutex, *deadline);
    } else {
      slot.wake.Wait(mutex);
    }
    slot.waiting = false;
  }
}

Result<protocol::Message> RouterCore::Take(CallSlot& slot) {
  MutexLock lock(mutex);
  Result<protocol::Message> reply = std::move(*slot.reply);
  slot.reply.reset();
  return reply;
}

}  // namespace link_internal

using link_internal::CallSlot;

// --- ReplyFuture ------------------------------------------------------------

ReplyFuture::ReplyFuture(std::shared_ptr<link_internal::RouterCore> core,
                         std::shared_ptr<link_internal::CallSlot> slot)
    : core_(std::move(core)), slot_(std::move(slot)) {}

ReplyFuture ReplyFuture::Ready(Result<protocol::Message> reply) {
  ReplyFuture future;
  future.ready_.emplace(std::move(reply));
  future.ready_here_ = true;
  return future;
}

Result<protocol::Message> ReplyFuture::get() {
  if (ready_) {
    Result<protocol::Message> reply = std::move(*ready_);
    ready_.reset();
    return reply;
  }
  if (slot_ == nullptr) {
    if (future_.valid()) return future_.get();
    return FailedPreconditionError("reply future has no state");
  }
  (void)core_->Wait(*slot_, std::nullopt);
  Result<protocol::Message> reply = core_->Take(*slot_);
  slot_.reset();
  core_.reset();
  return reply;
}

std::future_status ReplyFuture::WaitUntil(
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  if (ready_here_) return std::future_status::ready;
  if (slot_ != nullptr) return core_->Wait(*slot_, deadline);
  if (!deadline) {
    future_.wait();
    return std::future_status::ready;
  }
  return future_.wait_until(*deadline);
}

// --- ReplyRouter ------------------------------------------------------------

ReplyRouter::ReplyRouter()
    : core_(std::make_shared<link_internal::RouterCore>()) {}

ReplyRouter::~ReplyRouter() {
  FailAll(UnavailableError("reply router destroyed"));
}

ReplyRouter::Issued ReplyRouter::Issue() {
  return Track(std::make_shared<CallSlot>());
}

ReplyRouter::Issued ReplyRouter::Issue(const protocol::Message& request,
                                       bool replayable) {
  auto slot = std::make_shared<CallSlot>();
  slot->request = request;
  slot->replayable = replayable;
  return Track(std::move(slot));
}

ReplyRouter::Issued ReplyRouter::Track(std::shared_ptr<CallSlot> slot) {
  MutexLock lock(core_->mutex);
  const protocol::ReqId id = core_->NextIdLocked();
  core_->pending.emplace_back(id, slot);
  return Issued{id, ReplyFuture(core_, std::move(slot))};
}

SchedulerLink::ReplyFuture ReplyRouter::Park(const protocol::Message& request,
                                             Parked& parked) {
  parked.request = request;
  parked.slot = std::make_shared<CallSlot>();
  parked.slot->replayable = true;
  return ReplyFuture(core_, parked.slot);
}

Status ReplyRouter::Route(std::optional<protocol::ReqId> req_id,
                          Result<protocol::Message> reply) {
  MutexLock lock(core_->mutex);
  return core_->RouteLocked(req_id, std::move(reply));
}

void ReplyRouter::FailAll(const Status& status) {
  MutexLock lock(core_->mutex);
  for (auto& [id, slot] : core_->pending) {
    core_->CompleteLocked(*slot, Result<protocol::Message>(status));
  }
  core_->pending.clear();
}

void ReplyRouter::FailParked(std::vector<Parked>& parked,
                             const Status& status) {
  MutexLock lock(core_->mutex);
  for (auto& call : parked) {
    core_->CompleteLocked(*call.slot, Result<protocol::Message>(status));
  }
  parked.clear();
}

std::vector<ReplyRouter::Parked> ReplyRouter::DrainForReplay(
    const Status& status) {
  std::vector<Parked> replay;
  MutexLock lock(core_->mutex);
  // Pending order is issue order, so replay preserves FIFO.
  for (auto& [id, slot] : core_->pending) {
    if (slot->replayable) {
      replay.push_back(Parked{std::move(slot->request), slot});
    } else {
      core_->CompleteLocked(*slot, Result<protocol::Message>(status));
    }
  }
  core_->pending.clear();
  core_->next_id = 1;  // the next connection is a fresh id space
  return replay;
}

protocol::ReqId ReplyRouter::Reissue(Parked parked) {
  MutexLock lock(core_->mutex);
  const protocol::ReqId id = core_->NextIdLocked();
  parked.slot->request = std::move(parked.request);
  parked.slot->replayable = true;
  core_->pending.emplace_back(id, std::move(parked.slot));
  return id;
}

void ReplyRouter::Attach(std::shared_ptr<ipc::MessageClient> source) {
  MutexLock lock(core_->mutex);
  core_->source = std::move(source);
  core_->PromoteLocked();
}

void ReplyRouter::Detach() {
  MutexLock lock(core_->mutex);
  core_->source.reset();
  while (core_->reading) core_->reader_left.Wait(core_->mutex);
}

Status ReplyRouter::DrainFrames(ipc::MessageClient& client) {
  for (;;) {
    auto frame = client.RecvFrameView(std::nullopt);
    if (!frame.ok()) return frame.status();
    bool unused = false;
    CONVGPU_RETURN_IF_ERROR(core_->RouteFrame(*frame, nullptr, &unused));
  }
}

std::size_t ReplyRouter::pending_count() const {
  MutexLock lock(core_->mutex);
  return core_->pending.size();
}

void ReplyRouter::SetNextIdForTesting(protocol::ReqId next) {
  MutexLock lock(core_->mutex);
  core_->next_id = next;
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
      /*binary=*/false, /*page=*/nullptr));
}

namespace {

/// Maps the ledger page a handshake reply carried; null when none came
/// (page_slot absent, no descriptor, or a page that cannot be mapped).
std::unique_ptr<LedgerPageView> MapLedgerPage(
    ipc::Fd fd, std::optional<std::uint64_t> slot) {
  if (!slot || !fd.valid()) return nullptr;
  auto page = LedgerPageView::Map(std::move(fd), *slot);
  if (!page.ok()) {
    CONVGPU_LOG(kWarn, kTag) << "ignoring the ledger page: "
                             << page.status().ToString();
    return nullptr;
  }
  return std::move(*page);
}

}  // namespace

Result<std::unique_ptr<SocketSchedulerLink>> SocketSchedulerLink::Connect(
    const std::string& socket_path, Options options) {
  auto client =
      ipc::MessageClient::ConnectUnix(socket_path, options.handshake_timeout);
  if (!client.ok()) return client.status();

  std::uint64_t epoch = 0;
  Bytes limit = 0;
  bool binary = false;
  std::unique_ptr<LedgerPageView> page;
  if (!options.container_id.empty()) {
    protocol::Hello hello;
    hello.container_id = options.container_id;
    hello.pid = options.pid;
    // Codec negotiation rides the handshake, which itself always travels
    // as JSON — an old daemon simply ignores the unknown key and never
    // echoes it, which reads back as "JSON only".
    hello.binary = options.enable_binary;
    ipc::Fd page_fd;
    auto reply = protocol::Expect<protocol::HelloReply>(
        protocol::Call(**client, protocol::Message(hello), std::nullopt,
                       options.handshake_timeout, &page_fd));
    if (!reply.ok()) return reply.status();
    if (!reply->ok) {
      return FailedPreconditionError("hello rejected by scheduler: " +
                                     reply->error);
    }
    epoch = reply->epoch;
    limit = reply->limit;
    binary = reply->binary && options.enable_binary;
    page = MapLedgerPage(std::move(page_fd), reply->page_slot);
  }
  return std::unique_ptr<SocketSchedulerLink>(new SocketSchedulerLink(
      std::move(*client), socket_path, std::move(options), epoch, limit,
      binary, std::move(page)));
}

SocketSchedulerLink::SocketSchedulerLink(
    std::unique_ptr<ipc::MessageClient> client, std::string socket_path,
    Options options, std::uint64_t epoch, Bytes limit, bool binary,
    std::unique_ptr<LedgerPageView> page)
    : socket_path_(std::move(socket_path)), options_(std::move(options)) {
  client_ = std::move(client);
  epoch_ = epoch;
  limit_ = limit;
  page_ = std::move(page);
  codec_ = binary ? &protocol::binary_codec() : &protocol::json_codec();
  snapshot_ = options_.snapshot;
  router_.Attach(client_);
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
  backoff_cv_.NotifyAll();  // interrupts a reconnect backoff wait
  // Wakes the hang-up watcher, and a caller blocked reading the socket.
  if (client) client->Shutdown();
  if (worker_.joinable()) worker_.join();
  // The worker's exit path has already failed every waiting caller; their
  // futures share the router's core, so they stay valid past this point.
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

bool SocketSchedulerLink::has_ledger_page() const {
  MutexLock lock(state_mutex_);
  return page_ != nullptr;
}

LedgerPageCounters SocketSchedulerLink::page_counters() const {
  MutexLock lock(state_mutex_);
  return page_counters_;
}

namespace {

/// Blocks until `client`'s socket hangs up: the peer closed or shut down
/// its side, or this process called Shutdown(). Asks for POLLRDHUP only, so
/// replies arriving meanwhile — read by the callers — never wake it.
void WatchForHangup(const ipc::MessageClient& client) {
  pollfd pfd{};
  pfd.fd = client.fd();
  pfd.events = POLLRDHUP;
  while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
  }
}

}  // namespace

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
    page_.reset();
    waiting.swap(waiting_);
  }
  router_.FailAll(final_status);
  router_.FailParked(waiting, final_status);
}

void SocketSchedulerLink::WorkerLoop() {
  for (;;) {
    std::shared_ptr<ipc::MessageClient> client;
    {
      MutexLock lock(state_mutex_);
      client = client_;
    }
    WatchForHangup(*client);
    // Take the connection from the callers: a leader blocked in read wakes
    // with EOF and steps down, then the replies that arrived before the
    // hang-up still reach their callers.
    client->Shutdown();
    router_.Detach();
    const Status receive_error = router_.DrainFrames(*client);
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
      page_.reset();  // a page is only ever read with its own connection
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
    std::unique_ptr<LedgerPageView> page;
    Status result =
        fresh.ok() ? ReattachHandshake(**fresh, page) : fresh.status();
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
        page_ = std::move(page);
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
          // The fresh connection died already. Force the watcher to see
          // it; the next drain re-parks this (still replayable) call.
          client->Shutdown();
          break;
        }
      }
      // Callers may read the new connection now: one of them is promoted.
      router_.Attach(client);
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
      while (!closing_ && backoff_cv_.WaitUntil(state_mutex_, deadline) !=
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

Status SocketSchedulerLink::ReattachHandshake(
    ipc::MessageClient& client, std::unique_ptr<LedgerPageView>& page) {
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

  ipc::Fd page_fd;
  auto reply = protocol::Expect<protocol::ReattachReply>(
      protocol::Call(client, protocol::Message(reattach), std::nullopt,
                     options_.handshake_timeout, &page_fd));
  if (!reply.ok()) return reply.status();
  if (!reply->ok) {
    return FailedPreconditionError("reattach rejected by scheduler: " +
                                   reply->error);
  }
  page = MapLedgerPage(std::move(page_fd), reply->page_slot);
  MutexLock lock(state_mutex_);
  epoch_ = reply->epoch;  // a restarted daemon hands out its new epoch
  codec_ = (reply->binary && options_.enable_binary)
               ? &protocol::binary_codec()
               : &protocol::json_codec();
  return Status::Ok();
}

std::optional<protocol::MemInfoReply> SocketSchedulerLink::PageAnswerLocked() {
  if (page_ == nullptr) {
    ++page_counters_.no_page;
    return std::nullopt;
  }
  // Frames sent first, then applied (acquire): applied >= sent means the
  // daemon has handled every frame this connection carried when the call
  // began, and the acquire makes their ledger effects visible to the read.
  const std::uint64_t sent = client_->frames_sent();
  if (page_->applied() < sent) {
    ++page_counters_.slot_behind;
    return std::nullopt;
  }
  const std::optional<LedgerSnapshot> snapshot = page_->Read();
  if (!snapshot) {
    ++page_counters_.seqlock_retries_exhausted;
    return std::nullopt;
  }
  if (snapshot->epoch != epoch_) {
    ++page_counters_.disconnected_or_epoch;
    return std::nullopt;
  }
  ++page_counters_.local_answers;
  protocol::MemInfoReply reply;
  reply.free = snapshot->free;
  reply.total = snapshot->total;
  return reply;
}

SchedulerLink::ReplyFuture SocketSchedulerLink::AsyncCall(
    const protocol::Message& request) {
  const bool replayable = IsReplayable(request);
  const bool mem_info =
      std::holds_alternative<protocol::MemGetInfoRequest>(request);
  std::shared_ptr<ipc::MessageClient> client;
  const protocol::Codec* codec = nullptr;
  ReplyRouter::Issued issued;
  {
    MutexLock lock(state_mutex_);
    if (!broken_.ok()) {
      return ReplyFuture::Ready(Result<protocol::Message>(broken_));
    }
    if (state_ == LinkState::kReconnecting) {
      if (!replayable) {
        return ReplyFuture::Ready(Result<protocol::Message>(UnavailableError(
            "scheduler restarting: " +
            std::string(protocol::TypeName(request)) +
            " is not replay-safe")));
      }
      // Park it: completes after the next successful reattach.
      if (mem_info) ++page_counters_.disconnected_or_epoch;
      ReplyRouter::Parked parked;
      auto future = router_.Park(request, parked);
      waiting_.push_back(std::move(parked));
      return future;
    }
    if (mem_info) {
      if (auto answer = PageAnswerLocked()) {
        return ReplyFuture::Ready(
            Result<protocol::Message>(protocol::Message(*answer)));
      }
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
      // Convert any send failure into connection loss: the hang-up watcher
      // wakes, drains the router, and this call is parked (replayable) or
      // failed (alloc-path) by the same rules as a receive-side loss.
      client->Shutdown();
    } else {
      // Complete this slot only; the watcher handles connection-level
      // death. Route can lose the race against the watcher's FailAll —
      // then the future already holds kUnavailable and this is a harmless
      // no-op.
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
    return ReplyFuture::Ready(Result<protocol::Message>(protocol::Message(reply)));
  }
  if (std::holds_alternative<protocol::Ping>(request)) {
    return ReplyFuture::Ready(
        Result<protocol::Message>(protocol::Message(protocol::Pong{})));
  }
  return ReplyFuture::Ready(Result<protocol::Message>(
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
