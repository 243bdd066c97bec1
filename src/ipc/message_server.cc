#include "ipc/message_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "common/log.h"
#include "ipc/framing.h"

namespace convgpu::ipc {

namespace {

constexpr char kTag[] = "ipc";

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Input-buffer growth step: one read(2) takes up to this much free space.
constexpr std::size_t kReadChunk = 4096;

}  // namespace

MessageServer::~MessageServer() { Stop(); }

Status MessageServer::Start() {
  MutexLock lock(mutex_);
  return StartLocked();
}

Status MessageServer::StartLocked() {
  if (running_ || reactor_.joinable()) {
    return FailedPreconditionError("server already started");
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return InternalError(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_.Reset(pipe_fds[0]);
  wake_write_.Reset(pipe_fds[1]);
  SetNonBlocking(wake_read_.get());
  SetNonBlocking(wake_write_.get());
  epoll_.Reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) {
    return InternalError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  PollerAdd(wake_read_.get(), kWakeKey);
  running_ = true;
  flush_pending_ = false;
  reactor_ = std::thread([this] { Run(); });
  return Status::Ok();
}

Status MessageServer::Start(const std::string& path,
                            SimpleMessageHandler on_message,
                            SimpleDisconnectHandler on_disconnect) {
  CONVGPU_RETURN_IF_ERROR(Start());
  MessageHandler wrapped_message;
  if (on_message) {
    wrapped_message = [handler = std::move(on_message)](
                          ListenerId, ConnectionId conn,
                          std::string_view payload) { handler(conn, payload); };
  }
  DisconnectHandler wrapped_disconnect;
  if (on_disconnect) {
    wrapped_disconnect = [handler = std::move(on_disconnect)](
                             ListenerId, ConnectionId conn) { handler(conn); };
  }
  auto added = AddListener(path, std::move(wrapped_message),
                           std::move(wrapped_disconnect));
  if (!added.ok()) {
    Stop();
    return added.status();
  }
  return Status::Ok();
}

Result<ListenerId> MessageServer::AddListener(const std::string& path,
                                              MessageHandler on_message,
                                              DisconnectHandler on_disconnect) {
  auto bound = UnixListener::Bind(path);
  if (!bound.ok()) return bound.status();
  SetNonBlocking(bound->fd());
  auto callbacks = std::make_shared<const Callbacks>(
      Callbacks{std::move(on_message), std::move(on_disconnect)});
  {
    MutexLock lock(mutex_);
    if (!running_) {
      // Racing (or after) Stop(): `bound` still owns the fd, so failing
      // here releases it and unlinks the path — no leak into a reactor
      // that will never service it.
      return FailedPreconditionError("server is stopped");
    }
    const ListenerId id = next_id_++;
    Listener& listener = listeners_[id];
    listener.socket.emplace(std::move(*bound));
    listener.callbacks = std::move(callbacks);
    PollerAdd(listener.socket->fd(), ListenerKey(id));
    if (first_path_.empty()) first_path_ = path;
    return id;
  }
}

Status MessageServer::RemoveListener(ListenerId listener) {
  {
    MutexLock lock(mutex_);
    auto it = listeners_.find(listener);
    if (it == listeners_.end()) {
      return NotFoundError("listener " + std::to_string(listener) +
                           " unknown");
    }
    PollerRemove(it->second.socket->fd());
    listeners_.erase(it);  // closes the fd and unlinks the socket path
    // Existing connections flush their queued replies, then drop.
    for (auto& [conn_id, conn] : connections_) {
      if (conn.listener == listener) {
        conn.closing = true;
        dirty_.push_back(conn_id);
      }
    }
    if (reactor_tid_ == std::this_thread::get_id()) {
      flush_pending_ = true;
    } else {
      WakeLocked();
    }
  }
  return Status::Ok();
}

void MessageServer::WakeLocked() {
  if (!wake_write_.valid()) return;
  const char byte = 'w';
  // Best effort; a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

void MessageServer::MarkDirtyLocked(ConnectionId id) {
  dirty_.push_back(id);
  if (reactor_tid_ == std::this_thread::get_id()) {
    flush_pending_ = true;  // the reactor flushes at the end of this pass
  } else {
    WakeLocked();
  }
}

Status MessageServer::SendBytes(ConnectionId conn, std::string_view payload) {
  MutexLock lock(mutex_);
  auto it = connections_.find(conn);
  if (it == connections_.end()) {
    return NotFoundError("connection " + std::to_string(conn) + " gone");
  }
  Connection& connection = it->second;
  const std::size_t frame_size = kFrameHeaderBytes + payload.size();
  const std::size_t queued = connection.out.size() - connection.out_sent;
  if (queued + frame_size > options_.max_queued_bytes_per_connection) {
    // Backpressure: a consumer that stopped reading must not grow the
    // buffer unboundedly — disconnect it instead.
    CONVGPU_LOG(kWarn, kTag)
        << "disconnecting connection " << conn << ": write queue over cap ("
        << queued << " + " << frame_size << " > "
        << options_.max_queued_bytes_per_connection << " bytes)";
    connection.kicked = true;
    ++kicked_[connection.listener];
    MarkDirtyLocked(conn);
    return ResourceExhaustedError("connection " + std::to_string(conn) +
                                  " write queue over cap");
  }
  AppendFrame(connection.out, payload);
  if (reactor_tid_ == std::this_thread::get_id()) {
    // A handler answering at once: write now, under this same lock.
    WriteLocked(connection, conn);
    if (connection.failed) MarkDirtyLocked(conn);  // dropped after dispatch
  } else {
    MarkDirtyLocked(conn);
  }
  return Status::Ok();
}

void MessageServer::CloseConnection(ConnectionId conn) {
  MutexLock lock(mutex_);
  auto it = connections_.find(conn);
  if (it == connections_.end()) return;
  it->second.closing = true;
  MarkDirtyLocked(conn);
}

void MessageServer::Stop() {
  {
    MutexLock lock(mutex_);
    if (!running_) return;
    running_ = false;
    WakeLocked();
  }
  if (reactor_.joinable()) reactor_.join();
  MutexLock lock(mutex_);
  connections_.clear();
  listeners_.clear();
  dirty_.clear();
  epoll_.Reset();
  wake_read_.Reset();
  wake_write_.Reset();
}

std::string MessageServer::socket_path() const {
  MutexLock lock(mutex_);
  return first_path_;
}

std::string MessageServer::listener_path(ListenerId listener) const {
  MutexLock lock(mutex_);
  auto it = listeners_.find(listener);
  return it == listeners_.end() ? std::string() : it->second.socket->path();
}

std::size_t MessageServer::connection_count() const {
  MutexLock lock(mutex_);
  return connections_.size();
}

std::size_t MessageServer::listener_count() const {
  MutexLock lock(mutex_);
  return listeners_.size();
}

std::uint64_t MessageServer::kicked_connections(ListenerId listener) const {
  MutexLock lock(mutex_);
  auto it = kicked_.find(listener);
  return it == kicked_.end() ? 0 : it->second;
}

std::uint64_t MessageServer::total_kicked_connections() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [listener, count] : kicked_) total += count;
  return total;
}

MessageServer::Connection* MessageServer::ReactorFind(ConnectionId id) {
  auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

void MessageServer::DropConnection(ConnectionId id) {
  ListenerId listener = 0;
  std::shared_ptr<const Callbacks> callbacks;
  {
    MutexLock lock(mutex_);
    auto it = connections_.find(id);
    if (it == connections_.end()) return;
    PollerRemove(it->second.fd.get());
    listener = it->second.listener;
    callbacks = std::move(it->second.callbacks);
    connections_.erase(it);
  }
  if (callbacks && callbacks->on_disconnect) {
    callbacks->on_disconnect(listener, id);
  }
}

void MessageServer::AcceptPending(ListenerId id) {
  // Accepting under the lock keeps the listener fd pinned: RemoveListener
  // cannot close (and a concurrent AddListener reuse) it mid-accept.
  MutexLock lock(mutex_);
  auto it = listeners_.find(id);
  if (it == listeners_.end()) return;
  for (;;) {
    const int client = ::accept(it->second.socket->fd(), nullptr, nullptr);
    if (client < 0) break;
    SetNonBlocking(client);
    const ConnectionId conn_id = next_id_++;
    Connection& conn = connections_[conn_id];
    conn.fd.Reset(client);
    conn.listener = id;
    conn.callbacks = it->second.callbacks;
    PollerAdd(client, ConnectionKey(conn_id));
  }
}

bool MessageServer::HandleReadable(ConnectionId id) {
  // No lock: the input side of a connection is the reactor's alone, and
  // handlers cannot erase the connection under us (drops happen only here
  // in the loop, after dispatch).
  Connection* conn = ReactorFind(id);
  if (conn == nullptr) return false;
  if (conn->in.size() - conn->in_end < kReadChunk / 2) {
    conn->in.resize(std::max(conn->in.size() * 2, conn->in_end + kReadChunk));
  }
  const ssize_t n = ::read(conn->fd.get(), conn->in.data() + conn->in_end,
                           conn->in.size() - conn->in_end);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return false;
  }
  if (n <= 0) {  // peer closed, or a read error
    DropConnection(id);
    return false;
  }
  conn->in_end += static_cast<std::size_t>(n);

  // Peel complete frames off in place. The reactor does not interpret the
  // payload — codec concerns (JSON vs binary, malformed data) belong to the
  // handler.
  const Callbacks* callbacks = conn->callbacks.get();
  std::size_t pos = 0;
  bool malformed = false;
  while (conn->in_end - pos >= kFrameHeaderBytes) {
    const std::uint32_t length = FrameLength(conn->in.data() + pos);
    if (length > kMaxFrameBytes) {
      CONVGPU_LOG(kWarn, kTag) << "dropping connection " << id
                               << ": oversized frame " << length;
      malformed = true;
      break;
    }
    if (conn->in_end - pos < kFrameHeaderBytes + length) break;
    if (callbacks != nullptr && callbacks->on_message) {
      callbacks->on_message(
          conn->listener, id,
          std::string_view(conn->in.data() + pos + kFrameHeaderBytes, length));
    }
    pos += kFrameHeaderBytes + length;
  }
  if (malformed) {
    DropConnection(id);
    return false;
  }
  // Keep only the partial frame, at the front.
  if (pos == conn->in_end) {
    conn->in_end = 0;
  } else if (pos > 0) {
    std::memmove(conn->in.data(), conn->in.data() + pos, conn->in_end - pos);
    conn->in_end -= pos;
  }
  return true;
}

void MessageServer::WriteLocked(Connection& conn, ConnectionId id) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.out.data() + conn.out_sent,
               conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        PollerWantWrite(conn, id, true);
        return;
      }
      conn.failed = true;
      return;
    }
    conn.out_sent += static_cast<std::size_t>(n);
  }
  // Drained: rewind, keeping the capacity for the next reply.
  conn.out.clear();
  conn.out_sent = 0;
  PollerWantWrite(conn, id, false);
}

void MessageServer::HandleWritable(ConnectionId id) {
  bool drop = false;
  {
    MutexLock lock(mutex_);
    auto it = connections_.find(id);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    WriteLocked(conn, id);
    drop = conn.failed || (conn.closing && conn.out.empty());
  }
  if (drop) DropConnection(id);
}

bool MessageServer::FlushDirty() {
  std::vector<ConnectionId> drop;
  bool running = false;
  {
    MutexLock lock(mutex_);
    running = running_;
    for (const ConnectionId id : dirty_) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      // Over the write cap there is no point flushing; a failed write
      // cannot be retried.
      if (!conn.kicked && !conn.failed) WriteLocked(conn, id);
      if (conn.kicked || conn.failed || (conn.closing && conn.out.empty())) {
        drop.push_back(id);
      }
    }
    dirty_.clear();
  }
  for (const ConnectionId id : drop) DropConnection(id);
  return running;
}

void MessageServer::PollerAdd(int fd, std::uint64_t key) {
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = key;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &event);
}

void MessageServer::PollerRemove(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

void MessageServer::PollerWantWrite(Connection& conn, ConnectionId id,
                                    bool enable) {
  if (conn.want_write == enable) return;
  epoll_event event{};
  event.events = EPOLLIN | (enable ? EPOLLOUT : 0u);
  event.data.u64 = ConnectionKey(id);
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.fd.get(), &event);
  conn.want_write = enable;
}

void MessageServer::Run() {
  {
    MutexLock lock(mutex_);
    reactor_tid_ = std::this_thread::get_id();
  }
  std::array<epoll_event, 64> events;
  for (;;) {
    const int ready = ::epoll_wait(epoll_.get(), events.data(),
                                   static_cast<int>(events.size()), 1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      CONVGPU_LOG(kError, kTag)
          << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    // Other threads always write the wake pipe after queueing work (and
    // Stop() after clearing running_), so the lock is taken only when there
    // is something to flush — or once a second on an idle timeout.
    bool flush = ready == 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(ready); ++i) {
      const std::uint64_t key = events[i].data.u64;
      const std::uint32_t mask = events[i].events;
      if (key == kWakeKey) {
        char sink[64];
        while (::read(wake_read_.get(), sink, sizeof(sink)) > 0) {
        }
        flush = true;
        continue;
      }
      if ((key & 1u) != 0) {
        AcceptPending(key >> 1);
        continue;
      }
      const ConnectionId id = key >> 1;
      if ((mask & (EPOLLERR | EPOLLHUP)) != 0) {
        // Read everything still pending first so final messages are not
        // lost, then drop.
        while (HandleReadable(id)) {
        }
        DropConnection(id);
        continue;
      }
      if ((mask & EPOLLIN) != 0) HandleReadable(id);
      if ((mask & EPOLLOUT) != 0) HandleWritable(id);
    }
    if (flush || flush_pending_) {
      flush_pending_ = false;
      if (!FlushDirty()) break;
    }
  }
}


Result<std::unique_ptr<MessageClient>> MessageClient::ConnectUnix(
    const std::string& path) {
  auto fd = UnixConnect(path);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<MessageClient>(new MessageClient(std::move(*fd)));
}

Result<std::unique_ptr<MessageClient>> MessageClient::ConnectUnix(
    const std::string& path, std::chrono::milliseconds timeout) {
  auto fd = UnixConnect(path, timeout);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<MessageClient>(new MessageClient(std::move(*fd)));
}

Status MessageClient::SendFrame(std::string_view payload) {
  MutexLock lock(write_mutex_);
  return WriteFrame(fd_.get(), payload);
}

Result<std::string_view> MessageClient::RecvFrameView(
    std::optional<Deadline> deadline) {
  for (;;) {
    const std::size_t available = in_end_ - in_begin_;
    std::size_t needed = kFrameHeaderBytes;
    if (available >= kFrameHeaderBytes) {
      const std::uint32_t length = FrameLength(in_.data() + in_begin_);
      if (length > kMaxFrameBytes) {
        return InternalError("oversized frame: " + std::to_string(length));
      }
      needed += length;
      if (available >= needed) {
        const std::string_view payload(
            in_.data() + in_begin_ + kFrameHeaderBytes, length);
        in_begin_ += needed;
        if (in_begin_ == in_end_) in_begin_ = in_end_ = 0;
        return payload;
      }
    }
    // Not a whole frame yet: move the partial one to the front and make room
    // for the rest (and for whatever else one read can bring along).
    if (in_begin_ > 0) {
      std::memmove(in_.data(), in_.data() + in_begin_, available);
      in_begin_ = 0;
      in_end_ = available;
    }
    if (in_.size() < std::max(needed, kReadChunk)) {
      in_.resize(std::max(needed, kReadChunk));
    }
    if (deadline) {
      pollfd pfd{};
      pfd.fd = fd_.get();
      pfd.events = POLLIN;
      const auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      const auto wait_ms = std::max<std::int64_t>(remaining.count(), 0);
      const int ready = ::poll(&pfd, 1, static_cast<int>(wait_ms));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return InternalError(std::string("poll(recv): ") +
                             std::strerror(errno));
      }
      if (ready == 0) return DeadlineExceededError("recv: timed out");
    }
    const ssize_t n =
        ::read(fd_.get(), in_.data() + in_end_, in_.size() - in_end_);
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (available == 0) return AbortedError("connection closed");
      // EOF inside a frame is a protocol error, not a clean close.
      return InternalError("EOF inside frame");
    }
    in_end_ += static_cast<std::size_t>(n);
  }
}

Result<std::string> MessageClient::RecvFrame() {
  auto frame = RecvFrameView(std::nullopt);
  if (!frame.ok()) return frame.status();
  return std::string(*frame);
}

Result<std::string> MessageClient::RecvFrame(
    std::chrono::milliseconds timeout) {
  auto frame = RecvFrameView(std::chrono::steady_clock::now() + timeout);
  if (!frame.ok()) return frame.status();
  return std::string(*frame);
}

void MessageClient::Shutdown() { ::shutdown(fd_.get(), SHUT_RDWR); }

}  // namespace convgpu::ipc
