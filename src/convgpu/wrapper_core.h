// WrapperCore: the CUDA wrapper API module (the paper's libgpushare.so,
// §III-C), as a CudaApi decorator.
//
// Captures the allocation/deallocation subset of the CUDA API (Table II),
// consults the scheduler *before* forwarding each allocation to the real
// API, and reports the committed address afterwards. All other APIs pass
// straight through, which is exactly the LD_PRELOAD property the paper
// relies on ("it leaves other CUDA API available").
//
// Size adjustments performed here, mirroring §III-C:
//  * cudaMallocPitch / cudaMalloc3D — rows round up to the device pitch
//    alignment; the pitch is retrieved via cudaGetDeviceProperties on the
//    first pitched call and cached;
//  * cudaMallocManaged — rounds to the 128 MiB mapping granularity;
//  * cudaMemGetInfo — answered entirely by the scheduler (the virtualized
//    per-container view), never by the real API — usually from the ledger
//    page the scheduler publishes, without a round trip;
//  * __cudaUnregisterFatBinary — forwarded and reported as process exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/ids.h"
#include "convgpu/scheduler_link.h"
#include "cudasim/cuda_api.h"

namespace convgpu {

/// Per-API counters (Fig. 4's instrumentation).
struct WrapperStats {
  std::uint64_t alloc_requests = 0;
  std::uint64_t alloc_granted = 0;
  std::uint64_t alloc_rejected = 0;
  std::uint64_t frees = 0;
  std::uint64_t mem_get_info = 0;
  /// Calls that reached the scheduler; a cudaMemGetInfo answered from the
  /// link's ledger page is not one.
  std::uint64_t scheduler_round_trips = 0;
};

class WrapperCore final : public cudasim::CudaApi {
 public:
  using CudaError = cudasim::CudaError;

  /// `inner` is the next CudaApi in the lookup chain (the real runtime);
  /// `link` reaches this container's scheduler socket. Both must outlive
  /// the wrapper. `pid` identifies the calling process to the scheduler.
  WrapperCore(cudasim::CudaApi* inner, SchedulerLink* link, Pid pid);

  CudaError Malloc(cudasim::DevicePtr* dev_ptr, std::size_t size) override;
  CudaError MallocPitch(cudasim::DevicePtr* dev_ptr, std::size_t* pitch,
                        std::size_t width, std::size_t height) override;
  CudaError Malloc3D(cudasim::PitchedPtr* pitched,
                     const cudasim::Extent& extent) override;
  CudaError MallocManaged(cudasim::DevicePtr* dev_ptr,
                          std::size_t size) override;
  CudaError Free(cudasim::DevicePtr dev_ptr) override;
  CudaError MemGetInfo(std::size_t* free_bytes,
                       std::size_t* total_bytes) override;
  CudaError GetDeviceProperties(cudasim::DeviceProp* prop, int device) override;
  CudaError MemcpyHostToDevice(cudasim::DevicePtr dst, const void* src,
                               std::size_t count) override;
  CudaError MemcpyDeviceToHost(void* dst, cudasim::DevicePtr src,
                               std::size_t count) override;
  CudaError MemcpyDeviceToDevice(cudasim::DevicePtr dst, cudasim::DevicePtr src,
                                 std::size_t count) override;
  CudaError LaunchKernel(const cudasim::KernelLaunch& launch) override;
  CudaError DeviceSynchronize() override;
  CudaError StreamCreate(cudasim::StreamId* stream) override;
  CudaError StreamDestroy(cudasim::StreamId stream) override;
  void RegisterFatBinary() override;
  void UnregisterFatBinary() override;
  CudaError GetLastError() override;

  [[nodiscard]] WrapperStats stats() const;
  [[nodiscard]] Pid pid() const { return pid_; }

  /// Snapshot of this process's live device allocations — what a
  /// reconnecting link sends with reattach so a restarted scheduler can
  /// rebuild the ledger. An allocation appears here from the moment the
  /// real allocation succeeds (before the commit notification goes out, so
  /// the snapshot never understates what the device holds) until its free.
  [[nodiscard]] std::vector<protocol::LiveAlloc> LiveAllocations() const;

 private:
  /// Admission + real allocation + commit/abort, shared by all four
  /// allocation APIs. `adjusted` is the scheduler-visible size; `allocate`
  /// performs the real call and returns the device address (or error).
  template <typename AllocateFn>
  CudaError GuardedAlloc(Bytes adjusted, const char* api, AllocateFn allocate);

  /// Loads and caches pitch/managed geometry on first need (§III-C: "the
  /// wrapper module retrieves the pitched size of current GPU ... on the
  /// first call").
  CudaError EnsureGeometry();

  cudasim::CudaApi* inner_;
  SchedulerLink* link_;
  Pid pid_;

  mutable Mutex mutex_;
  WrapperStats stats_ GUARDED_BY(mutex_);
  /// address → size of every live allocation (reattach snapshot source).
  std::map<std::uint64_t, Bytes> live_ GUARDED_BY(mutex_);
  bool geometry_loaded_ GUARDED_BY(mutex_) = false;
  Bytes pitch_alignment_ GUARDED_BY(mutex_) = 512;
  Bytes managed_granularity_ GUARDED_BY(mutex_) = 128 * kMiB;
  CudaError wrapper_error_ GUARDED_BY(mutex_) = CudaError::kSuccess;
};

}  // namespace convgpu
