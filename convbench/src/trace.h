// Traced run: in-memory spans recorded from the benchmark's own decorators
// around each layer's public interface.
//
//  * TracedCudaApi     — a cudasim::CudaApi placed under WrapperCore;
//  * TracedLink        — a SchedulerLink around the socket (or direct) link;
//  * TracedPlugin      — a containersim::VolumePlugin around NvDockerPlugin.
//
// The tenant loop opens the root span of every CUDA call ("wrapper.*"); spans
// the decorators open on the same thread become its children and share its
// operation id. A span's self time is its duration minus the part its
// children cover (children on one thread never overlap, so that is the sum of
// their durations). Spans live in per-thread buffers and are written out when
// the run ends; aggregates per span name feed the per-layer metrics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "containersim/volume.h"
#include "convgpu/protocol.h"
#include "convgpu/scheduler_link.h"
#include "cudasim/cuda_api.h"

namespace convbench {

enum class SpanName : std::uint8_t {
  kWrapperMalloc,
  kWrapperFree,
  kWrapperMemGetInfo,
  kWrapperExit,
  kLinkConnect,
  kLinkCallAlloc,
  kLinkCallMemInfo,
  kLinkCallOther,
  kLinkNotify,
  kCudaMalloc,
  kCudaFree,
  kCudaOther,
  kNvDockerRun,
  kPluginMount,
  kPluginUnmount,
  kCoreCallAlloc,
  kCoreCallMemInfo,
  kCoreNotify,
  kCount,
};
const char* SpanNameString(SpanName name);

/// Values recorded at a layer boundary that are not spans.
enum class ValueName : std::uint8_t {
  kGrantWaitUs,      // each container's first alloc call
  kOutstanding,      // link outstanding_calls() sampled at each call
  kCount,
};

class Tracer {
 public:
  /// The process-wide tracer. Disabled unless Install() ran.
  static Tracer& Get();

  void Install() { installed_ = true; }
  [[nodiscard]] bool installed() const { return installed_; }
  /// Recording switch: the traced run alternates it to measure the
  /// tracing overhead against untraced windows of the same run.
  void SetRecording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool recording() const {
    return installed_ && recording_.load(std::memory_order_relaxed);
  }

  /// RAII span on the calling thread; a no-op while not recording.
  class Scope {
   public:
    explicit Scope(SpanName name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_ = false;
  };

  void RecordValue(ValueName name, double value);

  struct Aggregate {
    std::vector<double> duration_us;
    std::vector<double> self_us;
  };
  /// Merged aggregates of every thread, per span name.
  [[nodiscard]] std::array<Aggregate, static_cast<std::size_t>(SpanName::kCount)>
  Aggregates() const;
  [[nodiscard]] std::vector<double> Values(ValueName name) const;

  /// Writes every buffered span as TSV: thread, op, name, parent, start_us,
  /// end_us, self_us. Returns the number of spans written.
  std::size_t Dump(const std::string& path) const;

 private:
  struct ThreadBuffer;
  ThreadBuffer& Local();

  bool installed_ = false;
  std::atomic<bool> recording_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// cudasim::CudaApi decorator timing every call into the simulated runtime.
class TracedCudaApi final : public convgpu::cudasim::CudaApi {
 public:
  explicit TracedCudaApi(convgpu::cudasim::CudaApi* inner) : inner_(inner) {}

  using CudaError = convgpu::cudasim::CudaError;
  CudaError Malloc(convgpu::cudasim::DevicePtr* p, std::size_t size) override;
  CudaError MallocPitch(convgpu::cudasim::DevicePtr* p, std::size_t* pitch,
                        std::size_t w, std::size_t h) override;
  CudaError Malloc3D(convgpu::cudasim::PitchedPtr* p,
                     const convgpu::cudasim::Extent& e) override;
  CudaError MallocManaged(convgpu::cudasim::DevicePtr* p, std::size_t size) override;
  CudaError Free(convgpu::cudasim::DevicePtr p) override;
  CudaError MemGetInfo(std::size_t* free_bytes, std::size_t* total) override;
  CudaError GetDeviceProperties(convgpu::cudasim::DeviceProp* prop,
                                int device) override;
  CudaError MemcpyHostToDevice(convgpu::cudasim::DevicePtr dst, const void* src,
                               std::size_t count) override;
  CudaError MemcpyDeviceToHost(void* dst, convgpu::cudasim::DevicePtr src,
                               std::size_t count) override;
  CudaError MemcpyDeviceToDevice(convgpu::cudasim::DevicePtr dst,
                                 convgpu::cudasim::DevicePtr src,
                                 std::size_t count) override;
  CudaError LaunchKernel(const convgpu::cudasim::KernelLaunch& launch) override;
  CudaError DeviceSynchronize() override;
  CudaError StreamCreate(convgpu::cudasim::StreamId* stream) override;
  CudaError StreamDestroy(convgpu::cudasim::StreamId stream) override;
  void RegisterFatBinary() override;
  void UnregisterFatBinary() override;
  CudaError GetLastError() override;

 private:
  convgpu::cudasim::CudaApi* inner_;
};

/// Sample messages of the workload's own traffic, kept for codec timing.
class MessageSampler {
 public:
  static MessageSampler& Get();
  void Offer(const convgpu::protocol::Message& message);
  /// Every kept sample, and how often each message type was offered.
  [[nodiscard]] std::vector<convgpu::protocol::Message> Samples() const;
  [[nodiscard]] std::array<std::uint64_t, std::variant_size_v<convgpu::protocol::Message>>
  Counts() const;

 private:
  static constexpr std::size_t kPerType = 64;
  mutable std::mutex mutex_;
  std::array<std::vector<convgpu::protocol::Message>,
             std::variant_size_v<convgpu::protocol::Message>>
      samples_;
  std::array<std::uint64_t, std::variant_size_v<convgpu::protocol::Message>>
      counts_{};
};

/// SchedulerLink decorator: spans for calls (request → reply) and notifies,
/// the first alloc's grant wait, outstanding_calls() samples, and message
/// samples for the codec timing. `core` names the spans of the in-process
/// DirectSchedulerLink replay instead of the socket link.
class TracedLink final : public convgpu::SchedulerLink {
 public:
  TracedLink(convgpu::SchedulerLink* inner, bool core)
      : inner_(inner),
        socket_(core ? nullptr
                     : dynamic_cast<convgpu::SocketSchedulerLink*>(inner)),
        core_(core) {}

  ReplyFuture AsyncCall(const convgpu::protocol::Message& request) override;
  convgpu::Status Notify(const convgpu::protocol::Message& message) override;

 private:
  convgpu::SchedulerLink* inner_;
  convgpu::SocketSchedulerLink* socket_;
  bool core_;
  std::atomic<bool> first_alloc_{true};
};

/// VolumePlugin decorator. Before forwarding the exit-volume unmount (which
/// sends the close), it reads the container's suspend_episodes from the
/// daemon while recording, so the policy layer's suspended share is measured
/// per container.
class TracedPlugin final : public convgpu::containersim::VolumePlugin {
 public:
  using SuspendProbe = std::function<void(const std::string& scheduler_key)>;
  TracedPlugin(convgpu::containersim::VolumePlugin* inner, SuspendProbe probe)
      : inner_(inner), probe_(std::move(probe)) {}

  convgpu::Result<std::string> Mount(const std::string& volume_name,
                                     const std::string& container_id) override;
  void Unmount(const std::string& volume_name,
               const std::string& container_id) override;

 private:
  convgpu::containersim::VolumePlugin* inner_;
  SuspendProbe probe_;
};

}  // namespace convbench
