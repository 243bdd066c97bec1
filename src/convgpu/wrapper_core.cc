#include "convgpu/wrapper_core.h"

#include "common/log.h"

namespace convgpu {

using cudasim::CudaError;

namespace {
constexpr char kTag[] = "wrapper";
}

WrapperCore::WrapperCore(cudasim::CudaApi* inner, SchedulerLink* link, Pid pid)
    : inner_(inner), link_(link), pid_(pid) {}

CudaError WrapperCore::EnsureGeometry() {
  {
    MutexLock lock(mutex_);
    if (geometry_loaded_) return CudaError::kSuccess;
  }
  cudasim::DeviceProp prop;
  const CudaError error = inner_->GetDeviceProperties(&prop, 0);
  if (error != CudaError::kSuccess) return error;
  MutexLock lock(mutex_);
  pitch_alignment_ = static_cast<Bytes>(prop.pitch_alignment);
  managed_granularity_ = prop.managed_granularity;
  geometry_loaded_ = true;
  return CudaError::kSuccess;
}

template <typename AllocateFn>
CudaError WrapperCore::GuardedAlloc(Bytes adjusted, const char* api,
                                    AllocateFn allocate) {
  protocol::AllocRequest request;
  request.pid = pid_;
  request.size = adjusted;
  request.api = api;
  // Pipelined admission: the request goes out immediately and only *this*
  // thread blocks on its future. A suspended reply parks this caller alone
  // — sibling threads' allocations, commits, and frees keep flowing on the
  // same link, so another thread's cudaFree can be what unblocks us.
  auto pending = link_->AsyncCall(protocol::Message(request));
  {
    MutexLock lock(mutex_);
    ++stats_.alloc_requests;
    if (pending.round_trip()) ++stats_.scheduler_round_trips;
  }
  auto reply = pending.get();
  if (!reply.ok()) {
    CONVGPU_LOG(kError, kTag) << api << ": scheduler unreachable: "
                              << reply.status().ToString();
    MutexLock lock(mutex_);
    wrapper_error_ = CudaError::kSchedulerUnavailable;
    return CudaError::kSchedulerUnavailable;
  }
  const auto* alloc_reply = std::get_if<protocol::AllocReply>(&*reply);
  if (alloc_reply == nullptr) {
    MutexLock lock(mutex_);
    wrapper_error_ = CudaError::kSchedulerUnavailable;
    return CudaError::kSchedulerUnavailable;
  }
  if (!alloc_reply->granted) {
    // Over the container's limit: the user program sees the same error a
    // full GPU would produce.
    MutexLock lock(mutex_);
    ++stats_.alloc_rejected;
    wrapper_error_ = CudaError::kMemoryAllocation;
    return CudaError::kMemoryAllocation;
  }

  cudasim::DevicePtr address = cudasim::kNullDevicePtr;
  const CudaError error = allocate(&address);
  if (error != CudaError::kSuccess) {
    // The real allocation failed after admission (e.g. fragmentation):
    // release the reservation so the accounting stays exact.
    protocol::AllocAbort abort;
    abort.pid = pid_;
    abort.size = adjusted;
    (void)link_->Notify(protocol::Message(abort));
    return error;
  }

  {
    // Recorded *before* the commit notification leaves: if the daemon dies
    // between the two, the reattach snapshot still covers this allocation
    // and the restarted scheduler charges it (the snapshot may overstate a
    // commit the daemon never saw — never understate the device).
    MutexLock lock(mutex_);
    live_[address] = adjusted;
  }
  protocol::AllocCommit commit;
  commit.pid = pid_;
  commit.address = address;
  commit.size = adjusted;
  (void)link_->Notify(protocol::Message(commit));
  MutexLock lock(mutex_);
  ++stats_.alloc_granted;
  return CudaError::kSuccess;
}

CudaError WrapperCore::Malloc(cudasim::DevicePtr* dev_ptr, std::size_t size) {
  if (dev_ptr == nullptr) return CudaError::kInvalidValue;
  return GuardedAlloc(static_cast<Bytes>(size), "cudaMalloc",
                      [&](cudasim::DevicePtr* address) {
                        const CudaError e = inner_->Malloc(address, size);
                        if (e == CudaError::kSuccess) *dev_ptr = *address;
                        return e;
                      });
}

CudaError WrapperCore::MallocPitch(cudasim::DevicePtr* dev_ptr,
                                   std::size_t* pitch, std::size_t width,
                                   std::size_t height) {
  if (dev_ptr == nullptr || pitch == nullptr) return CudaError::kInvalidValue;
  const CudaError geometry = EnsureGeometry();
  if (geometry != CudaError::kSuccess) return geometry;
  Bytes alignment = 0;
  {
    MutexLock lock(mutex_);
    alignment = pitch_alignment_;
  }
  const Bytes adjusted =
      AlignUp(static_cast<Bytes>(width), alignment) * static_cast<Bytes>(height);
  return GuardedAlloc(adjusted, "cudaMallocPitch",
                      [&](cudasim::DevicePtr* address) {
                        const CudaError e =
                            inner_->MallocPitch(address, pitch, width, height);
                        if (e == CudaError::kSuccess) *dev_ptr = *address;
                        return e;
                      });
}

CudaError WrapperCore::Malloc3D(cudasim::PitchedPtr* pitched,
                                const cudasim::Extent& extent) {
  if (pitched == nullptr) return CudaError::kInvalidValue;
  const CudaError geometry = EnsureGeometry();
  if (geometry != CudaError::kSuccess) return geometry;
  Bytes alignment = 0;
  {
    MutexLock lock(mutex_);
    alignment = pitch_alignment_;
  }
  const Bytes adjusted = AlignUp(static_cast<Bytes>(extent.width), alignment) *
                         static_cast<Bytes>(extent.height) *
                         static_cast<Bytes>(extent.depth);
  return GuardedAlloc(adjusted, "cudaMalloc3D",
                      [&](cudasim::DevicePtr* address) {
                        const CudaError e = inner_->Malloc3D(pitched, extent);
                        if (e == CudaError::kSuccess) *address = pitched->ptr;
                        return e;
                      });
}

CudaError WrapperCore::MallocManaged(cudasim::DevicePtr* dev_ptr,
                                     std::size_t size) {
  if (dev_ptr == nullptr) return CudaError::kInvalidValue;
  const CudaError geometry = EnsureGeometry();
  if (geometry != CudaError::kSuccess) return geometry;
  Bytes granularity = 0;
  {
    MutexLock lock(mutex_);
    granularity = managed_granularity_;
  }
  const Bytes adjusted = AlignUp(static_cast<Bytes>(size), granularity);
  return GuardedAlloc(adjusted, "cudaMallocManaged",
                      [&](cudasim::DevicePtr* address) {
                        const CudaError e = inner_->MallocManaged(address, size);
                        if (e == CudaError::kSuccess) *dev_ptr = *address;
                        return e;
                      });
}

CudaError WrapperCore::Free(cudasim::DevicePtr dev_ptr) {
  // Report the free and forget the address BEFORE the device can hand it
  // out again: a sibling thread may then get the same address, and its
  // alloc_commit and live_ entry must come after ours (the link keeps
  // per-link order). Only addresses this wrapper committed are reported.
  bool tracked = false;
  {
    MutexLock lock(mutex_);
    tracked = live_.erase(dev_ptr) > 0;
  }
  if (tracked) {
    // Fire-and-forget: the user program does not wait on the scheduler for
    // frees, which is why Fig. 4 shows cudaFree barely slower than native.
    // On the pipelined link this notification is delivered even while a
    // sibling thread's alloc_request sits suspended — the release that may
    // be exactly what un-suspends it.
    protocol::FreeNotify notify;
    notify.pid = pid_;
    notify.address = dev_ptr;
    (void)link_->Notify(protocol::Message(notify));
  }
  const CudaError error = inner_->Free(dev_ptr);
  if (error == CudaError::kSuccess && dev_ptr != cudasim::kNullDevicePtr) {
    MutexLock lock(mutex_);
    ++stats_.frees;
  }
  return error;
}

CudaError WrapperCore::MemGetInfo(std::size_t* free_bytes,
                                  std::size_t* total_bytes) {
  if (free_bytes == nullptr || total_bytes == nullptr) {
    return CudaError::kInvalidValue;
  }
  protocol::MemGetInfoRequest request;
  request.pid = pid_;
  // Also pipelined: a stats probe is answerable while an alloc is parked.
  // A socket link usually answers from its ledger page without a frame.
  auto pending = link_->AsyncCall(protocol::Message(request));
  {
    MutexLock lock(mutex_);
    ++stats_.mem_get_info;
    if (pending.round_trip()) ++stats_.scheduler_round_trips;
  }
  auto reply = pending.get();
  if (!reply.ok()) return CudaError::kSchedulerUnavailable;
  const auto* info = std::get_if<protocol::MemInfoReply>(&*reply);
  if (info == nullptr) return CudaError::kSchedulerUnavailable;
  *free_bytes = static_cast<std::size_t>(info->free);
  *total_bytes = static_cast<std::size_t>(info->total);
  return CudaError::kSuccess;
}

CudaError WrapperCore::GetDeviceProperties(cudasim::DeviceProp* prop,
                                           int device) {
  return inner_->GetDeviceProperties(prop, device);
}

CudaError WrapperCore::MemcpyHostToDevice(cudasim::DevicePtr dst,
                                          const void* src, std::size_t count) {
  return inner_->MemcpyHostToDevice(dst, src, count);
}

CudaError WrapperCore::MemcpyDeviceToHost(void* dst, cudasim::DevicePtr src,
                                          std::size_t count) {
  return inner_->MemcpyDeviceToHost(dst, src, count);
}

CudaError WrapperCore::MemcpyDeviceToDevice(cudasim::DevicePtr dst,
                                            cudasim::DevicePtr src,
                                            std::size_t count) {
  return inner_->MemcpyDeviceToDevice(dst, src, count);
}

CudaError WrapperCore::LaunchKernel(const cudasim::KernelLaunch& launch) {
  return inner_->LaunchKernel(launch);
}

CudaError WrapperCore::DeviceSynchronize() { return inner_->DeviceSynchronize(); }

CudaError WrapperCore::StreamCreate(cudasim::StreamId* stream) {
  return inner_->StreamCreate(stream);
}

CudaError WrapperCore::StreamDestroy(cudasim::StreamId stream) {
  return inner_->StreamDestroy(stream);
}

void WrapperCore::RegisterFatBinary() { inner_->RegisterFatBinary(); }

void WrapperCore::UnregisterFatBinary() {
  // Tear the driver context down before reporting the exit: process_exit
  // releases this pid's share of the ledger, and a grant that release makes
  // possible must not reach the device while the old context still holds
  // its memory.
  inner_->UnregisterFatBinary();
  {
    MutexLock lock(mutex_);
    live_.clear();
  }
  protocol::ProcessExit exit;
  exit.pid = pid_;
  (void)link_->Notify(protocol::Message(exit));
}

CudaError WrapperCore::GetLastError() {
  {
    MutexLock lock(mutex_);
    if (wrapper_error_ != CudaError::kSuccess) {
      const CudaError error = wrapper_error_;
      wrapper_error_ = CudaError::kSuccess;
      return error;
    }
  }
  return inner_->GetLastError();
}

WrapperStats WrapperCore::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::vector<protocol::LiveAlloc> WrapperCore::LiveAllocations() const {
  MutexLock lock(mutex_);
  std::vector<protocol::LiveAlloc> snapshot;
  snapshot.reserve(live_.size());
  for (const auto& [address, size] : live_) {
    snapshot.push_back({address, size});
  }
  return snapshot;
}

}  // namespace convgpu
