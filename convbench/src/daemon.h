// The scheduler daemon as a child process: spawn, readiness, control-socket
// queries, /proc accounting, and shutdown.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/bytes.h"
#include "common/result.h"
#include "convgpu/protocol.h"

namespace convbench {

struct DaemonConfig {
  std::string binary;    // convgpu-scheduler
  std::string base_dir;  // --base-dir (created; removed by the destructor)
  convgpu::Bytes capacity = 5 * convgpu::kGiB;
  std::string policy = "FIFO";
};

/// What /proc/<pid> says about the daemon at one instant.
struct ProcSample {
  double cpu_seconds = 0.0;  // utime + stime
  double peak_rss_mib = 0.0; // VmHWM
  int threads = 0;
};

class Daemon {
 public:
  /// Forks and execs the daemon, then waits until it reports that it is
  /// listening and its main socket accepts.
  static convgpu::Result<std::unique_ptr<Daemon>> Spawn(DaemonConfig config);
  /// SIGTERM, then SIGKILL after two seconds; always reaps the child, joins
  /// the log reader and removes the base directory.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::string main_socket() const {
    return config_.base_dir + "/scheduler.sock";
  }

  /// The daemon's `stats` answer over the main socket.
  [[nodiscard]] convgpu::Result<convgpu::protocol::StatsReply> Stats() const;
  [[nodiscard]] ProcSample Sample() const;

 private:
  Daemon(DaemonConfig config, pid_t pid, int log_fd);
  /// Drains the daemon's stdout/stderr pipe (its log goes nowhere else, so
  /// logging costs the daemon a pipe write, not a file write) and flags the
  /// "listening" line.
  void ReadLog();

  DaemonConfig config_;
  pid_t pid_;
  int log_fd_;
  std::atomic<bool> listening_{false};
  std::thread log_reader_;
};

}  // namespace convbench
