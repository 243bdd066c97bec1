// Fault-injection harness for scheduler-daemon failure testing.
//
// FaultScheduler owns a SchedulerServer whose lifetime the test scripts:
// kill it (Down), bring a fresh incarnation up on the same base_dir (Up),
// bounce it with a scripted outage window (Restart), or replace it with a
// tarpit that accepts connections and then never replies (Hang) — the
// half-alive daemon that distinguishes a connect timeout from a handshake
// timeout. Every transition works mid-workload: client links see exactly
// the connection resets, refused connects, and silent peers a real daemon
// crash produces, because the harness uses nothing but the real server and
// real sockets.
#pragma once

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "convgpu/scheduler_server.h"
#include "ipc/message_server.h"

namespace convgpu::testing {

class FaultScheduler {
 public:
  /// `options.base_dir` must be set; every incarnation reuses it, which is
  /// what makes per-container sockets findable across restarts.
  explicit FaultScheduler(SchedulerServerOptions options)
      : options_(std::move(options)) {}

  ~FaultScheduler() {
    Unhang();
    Down();
  }

  FaultScheduler(const FaultScheduler&) = delete;
  FaultScheduler& operator=(const FaultScheduler&) = delete;

  /// Starts a fresh daemon incarnation (new session epoch) on the shared
  /// base_dir. No-op when one is already running; tears down any tarpit.
  Status Up() {
    Unhang();
    if (server_ != nullptr) return Status::Ok();
    auto server = std::make_unique<SchedulerServer>(options_);
    auto status = server->Start();
    if (!status.ok()) return status;
    server_ = std::move(server);
    return Status::Ok();
  }

  /// Kills the daemon: every socket closes, every connection resets — the
  /// crash a wrapper's link observes as connection loss.
  void Down() { server_.reset(); }

  /// Down, stay dark for `down_for` (connects are refused meanwhile), then
  /// a fresh incarnation.
  Status Restart(std::chrono::milliseconds down_for =
                     std::chrono::milliseconds(0)) {
    Down();
    if (down_for.count() > 0) std::this_thread::sleep_for(down_for);
    return Up();
  }

  /// Replaces the daemon with a tarpit: the same socket paths accept
  /// connections and read frames but never answer. Connects succeed, every
  /// handshake stalls — only a reply deadline gets a client out.
  Status Hang() {
    Down();
    if (tarpit_ != nullptr) return Status::Ok();
    auto tarpit = std::make_unique<ipc::MessageServer>();
    auto status = tarpit->Start();
    if (!status.ok()) return status;
    auto swallow = [](ipc::ListenerId, ipc::ConnectionId, std::string_view) {};
    auto listener = tarpit->AddListener(main_socket_path(), swallow);
    if (!listener.ok()) return listener.status();
    std::error_code ec;
    std::filesystem::directory_iterator dirs(options_.base_dir + "/containers",
                                             ec);
    if (!ec) {
      for (const auto& entry : dirs) {
        if (!entry.is_directory()) continue;
        auto bound =
            tarpit->AddListener(entry.path().string() + "/convgpu.sock",
                                swallow);
        if (!bound.ok()) return bound.status();
      }
    }
    tarpit_ = std::move(tarpit);
    return Status::Ok();
  }

  /// Tears the tarpit down (its sockets close; the daemon stays dead until
  /// Up()).
  void Unhang() { tarpit_.reset(); }

  [[nodiscard]] bool up() const { return server_ != nullptr; }

  /// The current incarnation; only valid while up().
  [[nodiscard]] SchedulerServer& server() { return *server_; }
  [[nodiscard]] SchedulerCore& core() { return server_->core(); }

  /// Socket paths are a property of the base_dir, not of any incarnation —
  /// valid (as strings) whatever the daemon's state.
  [[nodiscard]] std::string main_socket_path() const {
    return options_.base_dir + "/scheduler.sock";
  }
  [[nodiscard]] std::string container_socket_path(
      const std::string& id) const {
    return options_.base_dir + "/containers/" + id + "/convgpu.sock";
  }

 private:
  SchedulerServerOptions options_;
  std::unique_ptr<SchedulerServer> server_;
  std::unique_ptr<ipc::MessageServer> tarpit_;
};

}  // namespace convgpu::testing
