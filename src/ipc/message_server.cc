#include "ipc/message_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

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

std::string FrameBytes(std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 4);
  const auto n = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<char>((n >> 24) & 0xFF));
  frame.push_back(static_cast<char>((n >> 16) & 0xFF));
  frame.push_back(static_cast<char>((n >> 8) & 0xFF));
  frame.push_back(static_cast<char>(n & 0xFF));
  frame += payload;
  return frame;
}

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
                          ListenerId, ConnectionId conn, std::string payload) {
      handler(conn, std::move(payload));
    };
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
    WakeLocked();
  }
  return Status::Ok();
}

void MessageServer::WakeLocked() {
  if (!wake_write_.valid()) return;
  const char byte = 'w';
  // Best effort; a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

Status MessageServer::SendBytes(ConnectionId conn, std::string_view payload) {
  {
    MutexLock lock(mutex_);
    auto it = connections_.find(conn);
    if (it == connections_.end()) {
      return NotFoundError("connection " + std::to_string(conn) + " gone");
    }
    Connection& connection = it->second;
    std::string frame = FrameBytes(payload);
    if (connection.queued_bytes + frame.size() >
        options_.max_queued_bytes_per_connection) {
      // Backpressure: a consumer that stopped reading must not grow the
      // queue unboundedly — disconnect it instead.
      CONVGPU_LOG(kWarn, kTag)
          << "disconnecting connection " << conn << ": write queue over cap ("
          << connection.queued_bytes << " + " << frame.size() << " > "
          << options_.max_queued_bytes_per_connection << " bytes)";
      connection.kicked = true;
      ++kicked_[connection.listener];
      dirty_.push_back(conn);
      if (reactor_tid_ != std::this_thread::get_id()) WakeLocked();
      return ResourceExhaustedError("connection " + std::to_string(conn) +
                                    " write queue over cap");
    }
    connection.queued_bytes += frame.size();
    connection.write_queue.push_back(std::move(frame));
    dirty_.push_back(conn);
    // The reactor flushes dirty connections at the end of the current
    // iteration; only foreign threads need to interrupt the wait.
    if (reactor_tid_ != std::this_thread::get_id()) WakeLocked();
  }
  return Status::Ok();
}

void MessageServer::CloseConnection(ConnectionId conn) {
  MutexLock lock(mutex_);
  auto it = connections_.find(conn);
  if (it == connections_.end()) return;
  it->second.closing = true;
  dirty_.push_back(conn);
  if (reactor_tid_ != std::this_thread::get_id()) WakeLocked();
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

void MessageServer::HandleReadable(ConnectionId id) {
  // Drain available bytes into the connection's read buffer, then peel off
  // complete frames. The handler may call SendBytes()/CloseConnection(),
  // which take the mutex, so the payloads are copied out before dispatching.
  std::vector<std::string> messages;
  ListenerId listener = 0;
  std::shared_ptr<const Callbacks> callbacks;
  bool drop = false;
  {
    MutexLock lock(mutex_);
    auto it = connections_.find(id);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    listener = conn.listener;
    callbacks = conn.callbacks;

    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(conn.fd.get(), chunk, sizeof(chunk));
      if (n > 0) {
        conn.read_buffer.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        drop = true;  // peer closed
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      drop = true;
      break;
    }

    // Extract complete frames.
    while (conn.read_buffer.size() >= 4) {
      const auto* b =
          reinterpret_cast<const unsigned char*>(conn.read_buffer.data());
      const std::uint32_t length = (static_cast<std::uint32_t>(b[0]) << 24) |
                                   (static_cast<std::uint32_t>(b[1]) << 16) |
                                   (static_cast<std::uint32_t>(b[2]) << 8) |
                                   static_cast<std::uint32_t>(b[3]);
      if (length > kMaxFrameBytes) {
        CONVGPU_LOG(kWarn, kTag) << "dropping connection " << id
                                 << ": oversized frame " << length;
        drop = true;
        break;
      }
      if (conn.read_buffer.size() < 4 + length) break;
      // The reactor does not interpret the payload — codec concerns
      // (JSON vs binary, malformed data) belong to the handler.
      messages.emplace_back(conn.read_buffer, 4, length);
      conn.read_buffer.erase(0, 4 + static_cast<std::size_t>(length));
    }
  }

  if (callbacks && callbacks->on_message) {
    for (auto& message : messages) {
      callbacks->on_message(listener, id, std::move(message));
    }
  }
  if (drop) DropConnection(id);
}

void MessageServer::HandleWritable(ConnectionId id) {
  bool drop = false;
  {
    MutexLock lock(mutex_);
    auto it = connections_.find(id);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    while (!conn.write_queue.empty()) {
      const std::string& frame = conn.write_queue.front();
      const ssize_t n =
          ::send(conn.fd.get(), frame.data() + conn.write_offset,
                 frame.size() - conn.write_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          PollerWantWrite(conn, id, true);
          return;
        }
        if (errno == EINTR) continue;
        drop = true;
        break;
      }
      conn.write_offset += static_cast<std::size_t>(n);
      if (conn.write_offset == frame.size()) {
        conn.queued_bytes -= frame.size();
        conn.write_queue.pop_front();
        conn.write_offset = 0;
      }
    }
    if (!drop) {
      PollerWantWrite(conn, id, false);
      if (conn.closing && conn.write_queue.empty()) drop = true;
    }
  }
  if (drop) DropConnection(id);
}

void MessageServer::FlushDirty() {
  std::vector<ConnectionId> dirty;
  {
    MutexLock lock(mutex_);
    dirty.swap(dirty_);
  }
  for (const ConnectionId id : dirty) {
    bool kicked = false;
    {
      MutexLock lock(mutex_);
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      kicked = it->second.kicked;
    }
    if (kicked) {
      DropConnection(id);  // over the write cap: no point flushing
    } else {
      HandleWritable(id);
    }
  }
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
    {
      MutexLock lock(mutex_);
      if (!running_) break;
    }
    const int ready = ::epoll_wait(epoll_.get(), events.data(),
                                   static_cast<int>(events.size()), 1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      CONVGPU_LOG(kError, kTag)
          << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(ready); ++i) {
      const std::uint64_t key = events[i].data.u64;
      const std::uint32_t mask = events[i].events;
      if (key == kWakeKey) {
        char sink[64];
        while (::read(wake_read_.get(), sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if ((key & 1u) != 0) {
        AcceptPending(key >> 1);
        continue;
      }
      const ConnectionId id = key >> 1;
      if ((mask & (EPOLLERR | EPOLLHUP)) != 0) {
        // Read anything pending first so final messages are not lost.
        HandleReadable(id);
        DropConnection(id);
        continue;
      }
      if ((mask & EPOLLIN) != 0) HandleReadable(id);
      if ((mask & EPOLLOUT) != 0) HandleWritable(id);
    }
    // Flush replies queued by handlers during dispatch (and by SendBytes() from
    // other threads), and drop kicked connections.
    FlushDirty();
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

Result<std::string> MessageClient::RecvFrame() { return ReadFrame(fd_.get()); }

Result<std::string> MessageClient::RecvFrame(std::chrono::milliseconds timeout) {
  pollfd pfd{};
  pfd.fd = fd_.get();
  pfd.events = POLLIN;
  for (;;) {
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("poll(recv): ") + std::strerror(errno));
    }
    if (ready == 0) return DeadlineExceededError("recv: timed out");
    break;
  }
  return ReadFrame(fd_.get());
}

void MessageClient::Shutdown() { ::shutdown(fd_.get(), SHUT_RDWR); }

}  // namespace convgpu::ipc
