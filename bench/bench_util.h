// Shared benchmark scaffolding: a live ConVGPU stack (scheduler daemon on a
// real UNIX socket + simulated K20m with realistic driver latencies) and a
// matching "without ConVGPU" baseline, mirroring the paper's §IV-A setup.
#pragma once

#include <memory>
#include <string>

#include <unistd.h>

#include "convgpu/convgpu.h"
#include "cudasim/gpu_device.h"
#include "cudasim/sim_cuda_api.h"

namespace convgpu::bench {

/// Unique scratch directory for the daemon's sockets.
inline std::string MakeBenchDir(const char* tag) {
  std::string templ = std::string("/tmp/convgpu-bench-") + tag + "-XXXXXX";
  char* dir = ::mkdtemp(templ.data());
  return dir != nullptr ? dir : "/tmp";
}

/// The paper's testbed: one K20m with realistic API latencies, one
/// scheduler daemon, one registered container, and both API stacks —
/// `native` (straight to the runtime) and `wrapped` (through libgpushare's
/// logic over the container's real UNIX socket and ledger page).
class PaperTestbed {
 public:
  explicit PaperTestbed(const char* tag, Bytes container_limit = 4 * kGiB)
      : dir_(MakeBenchDir(tag)) {
    cudasim::GpuDeviceOptions device_options;
    device_options.latency = cudasim::ApiLatencyModel::RealisticK20m();
    device_ = std::make_unique<cudasim::GpuDevice>(0, cudasim::TeslaK20m(),
                                                   device_options);

    SchedulerServerOptions server_options;
    server_options.base_dir = dir_;
    server_options.scheduler.capacity = 5 * kGiB;
    server_ = std::make_unique<SchedulerServer>(std::move(server_options));
    if (!server_->Start().ok()) std::abort();

    protocolRegister(container_limit);

    native_ = std::make_unique<cudasim::SimCudaApi>(device_.get(), kNativePid);
    inner_ = std::make_unique<cudasim::SimCudaApi>(device_.get(), kWrappedPid);
    // The production link: a hello handshake, as the preload module makes
    // whenever CONVGPU_CONTAINER_ID is set (it brings the ledger page).
    SocketSchedulerLink::Options link_options;
    link_options.container_id = "bench";
    link_options.pid = kWrappedPid;
    link_options.auto_reconnect = true;
    auto link = SocketSchedulerLink::Connect(
        server_->container_socket_path("bench"), link_options);
    if (!link.ok()) std::abort();
    link_ = std::move(*link);
    wrapped_ = std::make_unique<WrapperCore>(inner_.get(), link_.get(),
                                             kWrappedPid);
  }

  [[nodiscard]] cudasim::CudaApi& native() { return *native_; }
  [[nodiscard]] cudasim::CudaApi& wrapped() { return *wrapped_; }
  [[nodiscard]] cudasim::GpuDevice& device() { return *device_; }
  [[nodiscard]] SchedulerServer& server() { return *server_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  void protocolRegister(Bytes limit) {
    auto client = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
    if (!client.ok()) std::abort();
    protocol::RegisterContainer request;
    request.container_id = "bench";
    request.memory_limit = limit;
    auto reply = protocol::Expect<protocol::RegisterReply>(
        protocol::Call(**client, protocol::Message(request), /*req_id=*/1));
    if (!reply.ok() || !reply->ok) std::abort();
  }

  static constexpr Pid kNativePid = 111;
  static constexpr Pid kWrappedPid = 222;

  std::string dir_;
  std::unique_ptr<cudasim::GpuDevice> device_;
  std::unique_ptr<SchedulerServer> server_;
  std::unique_ptr<cudasim::SimCudaApi> native_;
  std::unique_ptr<cudasim::SimCudaApi> inner_;
  std::unique_ptr<SocketSchedulerLink> link_;
  std::unique_ptr<WrapperCore> wrapped_;
};

}  // namespace convgpu::bench
