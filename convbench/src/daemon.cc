#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ipc/message_server.h"

namespace convbench {

namespace fs = std::filesystem;
using convgpu::Result;

namespace {

bool Reap(pid_t pid, std::chrono::milliseconds patience) {
  const auto deadline = std::chrono::steady_clock::now() + patience;
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid || done < 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

Daemon::Daemon(DaemonConfig config, pid_t pid, int log_fd)
    : config_(std::move(config)), pid_(pid), log_fd_(log_fd) {
  log_reader_ = std::thread([this] { ReadLog(); });
}

void Daemon::ReadLog() {
  // The line is written by the server only after it has marked itself
  // started: the socket accepts slightly earlier, and a registration in that
  // gap is refused as "shutting down".
  static constexpr std::string_view kListening = "scheduler listening on";
  std::string pending;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(log_fd_, buffer, sizeof buffer);
    if (n <= 0) break;
    if (listening_.load()) continue;
    pending.append(buffer, static_cast<std::size_t>(n));
    if (pending.find(kListening) != std::string::npos) listening_ = true;
    if (pending.size() > 1 << 16) pending.erase(0, pending.size() - 256);
  }
  ::close(log_fd_);
}

Result<std::unique_ptr<Daemon>> Daemon::Spawn(DaemonConfig config) {
  std::error_code ec;
  fs::create_directories(config.base_dir, ec);
  if (ec) return convgpu::InternalError("cannot create " + config.base_dir);
  const std::string capacity = std::to_string(config.capacity);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return convgpu::InternalError("pipe failed");

  const pid_t child = ::fork();
  if (child < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return convgpu::InternalError("fork failed");
  }
  if (child == 0) {
    // Dies with the benchmark even if the benchmark is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::execl(config.binary.c_str(), config.binary.c_str(), "--base-dir",
            config.base_dir.c_str(), "--capacity", capacity.c_str(),
            "--policy", config.policy.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);

  std::unique_ptr<Daemon> daemon(new Daemon(std::move(config), child, pipe_fds[0]));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    if (daemon->listening_.load() &&
        convgpu::ipc::MessageClient::ConnectUnix(daemon->main_socket()).ok()) {
      return daemon;
    }
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == child) {
      daemon->pid_ = -1;
      return convgpu::UnavailableError("daemon exited during start-up");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return convgpu::UnavailableError("daemon never reported listening");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    if (!Reap(pid_, std::chrono::seconds(2))) {
      ::kill(pid_, SIGKILL);
      Reap(pid_, std::chrono::seconds(10));
    }
  }
  // The child's exit closed the pipe's write end; the reader sees EOF.
  if (log_reader_.joinable()) log_reader_.join();
  std::error_code ec;
  fs::remove_all(config_.base_dir, ec);
}

Result<convgpu::protocol::StatsReply> Daemon::Stats() const {
  auto client = convgpu::ipc::MessageClient::ConnectUnix(main_socket());
  if (!client.ok()) return client.status();
  return convgpu::protocol::Expect<convgpu::protocol::StatsReply>(
      convgpu::protocol::Call(**client,
                              convgpu::protocol::Message(
                                  convgpu::protocol::StatsRequest{}),
                              /*req_id=*/1));
}

ProcSample Daemon::Sample() const {
  ProcSample sample;
  const std::string proc = "/proc/" + std::to_string(pid_);
  {
    std::ifstream stat(proc + "/stat");
    std::string line;
    std::getline(stat, line);
    // utime and stime are fields 14 and 15; field 3 is the first after the
    // parenthesized command name.
    const auto close = line.rfind(')');
    if (close != std::string::npos && close + 2 <= line.size()) {
      std::istringstream rest(line.substr(close + 2));
      std::string field;
      double utime = 0, stime = 0;
      for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14) utime = std::stod(field);
        if (i == 15) stime = std::stod(field);
      }
      sample.cpu_seconds =
          (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream status(proc + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      sample.peak_rss_mib = kib / 1024.0;
    } else if (key == "Threads:") {
      status >> sample.threads;
    }
    status.ignore(4096, '\n');
  }
  return sample;
}

}  // namespace convbench
