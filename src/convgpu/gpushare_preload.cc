// libgpushare_preload.so — ConVGPU's CUDA wrapper API module as a genuine
// LD_PRELOAD shared library (the paper's libgpushare.so, §III-C).
//
// Exports ONLY the Table II symbols. The dynamic linker resolves these
// ahead of the runtime's because nvidia-docker puts this library in
// LD_PRELOAD; every other CUDA symbol falls through to the runtime
// untouched ("wrapper module only overrides the function symbol name of
// some CUDA APIs and it leaves other CUDA API available").
//
// The "real" implementations are found with dlsym(RTLD_NEXT, ...) — against
// NVIDIA's libcudart in the paper, against libcudasim_rt.so here; the
// mechanism is identical.
//
// Environment (set by the customized nvidia-docker):
//   CONVGPU_SOCKET        per-container scheduler socket. Unset => the
//                         wrapper is transparent (pure forwarding).
//   CONVGPU_CONTAINER_ID  named in the hello that opens the connection and
//                         in every reattach: the link survives scheduler
//                         restarts, reattaching with this process's
//                         live-allocation snapshot. Unset while
//                         CONVGPU_SOCKET is set => the wrapper reports that
//                         it cannot reach the scheduler and stays
//                         transparent.
#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "convgpu/scheduler_link.h"
#include "convgpu/wrapper_core.h"
#include "cudasim/cuda_api.h"
#include "cudasim/cuda_runtime_api.h"

namespace {

using convgpu::cudasim::CudaError;
using convgpu::cudasim::DevicePtr;

// ---------------------------------------------------------------------------
// The next-in-chain runtime, reached through dlsym(RTLD_NEXT, ...).
// ---------------------------------------------------------------------------

struct NextFns {
  cudaError_t (*malloc_fn)(void**, size_t) = nullptr;
  cudaError_t (*malloc_pitch_fn)(void**, size_t*, size_t, size_t) = nullptr;
  cudaError_t (*malloc_3d_fn)(cudaPitchedPtr*, cudaExtent) = nullptr;
  cudaError_t (*malloc_managed_fn)(void**, size_t, unsigned) = nullptr;
  cudaError_t (*free_fn)(void*) = nullptr;
  cudaError_t (*mem_get_info_fn)(size_t*, size_t*) = nullptr;
  cudaError_t (*get_props_fn)(cudaDeviceProp*, int) = nullptr;
  void** (*register_fatbin_fn)(void*) = nullptr;
  void (*unregister_fatbin_fn)(void**) = nullptr;
};

const NextFns& Next() {
  static const NextFns fns = [] {
    NextFns f;
    f.malloc_fn = reinterpret_cast<cudaError_t (*)(void**, size_t)>(
        ::dlsym(RTLD_NEXT, "cudaMalloc"));
    f.malloc_pitch_fn =
        reinterpret_cast<cudaError_t (*)(void**, size_t*, size_t, size_t)>(
            ::dlsym(RTLD_NEXT, "cudaMallocPitch"));
    f.malloc_3d_fn = reinterpret_cast<cudaError_t (*)(cudaPitchedPtr*, cudaExtent)>(
        ::dlsym(RTLD_NEXT, "cudaMalloc3D"));
    f.malloc_managed_fn =
        reinterpret_cast<cudaError_t (*)(void**, size_t, unsigned)>(
            ::dlsym(RTLD_NEXT, "cudaMallocManaged"));
    f.free_fn = reinterpret_cast<cudaError_t (*)(void*)>(
        ::dlsym(RTLD_NEXT, "cudaFree"));
    f.mem_get_info_fn = reinterpret_cast<cudaError_t (*)(size_t*, size_t*)>(
        ::dlsym(RTLD_NEXT, "cudaMemGetInfo"));
    f.get_props_fn = reinterpret_cast<cudaError_t (*)(cudaDeviceProp*, int)>(
        ::dlsym(RTLD_NEXT, "cudaGetDeviceProperties"));
    f.register_fatbin_fn = reinterpret_cast<void** (*)(void*)>(
        ::dlsym(RTLD_NEXT, "__cudaRegisterFatBinary"));
    f.unregister_fatbin_fn = reinterpret_cast<void (*)(void**)>(
        ::dlsym(RTLD_NEXT, "__cudaUnregisterFatBinary"));
    return f;
  }();
  return fns;
}

/// Adapts the dlsym'd C entry points to the CudaApi interface WrapperCore
/// decorates. Only the members WrapperCore actually invokes are wired; the
/// pass-through APIs (memcpy, kernels, streams) are not exported by this
/// library at all, so they never reach the wrapper.
class NextCudaApi final : public convgpu::cudasim::CudaApi {
 public:
  CudaError Malloc(DevicePtr* dev_ptr, std::size_t size) override {
    void* p = nullptr;
    const cudaError_t e = Next().malloc_fn(&p, size);
    if (e == cudaSuccess) *dev_ptr = reinterpret_cast<DevicePtr>(p);
    return static_cast<CudaError>(e);
  }
  CudaError MallocPitch(DevicePtr* dev_ptr, std::size_t* pitch,
                        std::size_t width, std::size_t height) override {
    void* p = nullptr;
    const cudaError_t e = Next().malloc_pitch_fn(&p, pitch, width, height);
    if (e == cudaSuccess) *dev_ptr = reinterpret_cast<DevicePtr>(p);
    return static_cast<CudaError>(e);
  }
  CudaError Malloc3D(convgpu::cudasim::PitchedPtr* pitched,
                     const convgpu::cudasim::Extent& extent) override {
    cudaPitchedPtr out{};
    cudaExtent ext{extent.width, extent.height, extent.depth};
    const cudaError_t e = Next().malloc_3d_fn(&out, ext);
    if (e == cudaSuccess) {
      pitched->ptr = reinterpret_cast<DevicePtr>(out.ptr);
      pitched->pitch = out.pitch;
      pitched->xsize = out.xsize;
      pitched->ysize = out.ysize;
    }
    return static_cast<CudaError>(e);
  }
  CudaError MallocManaged(DevicePtr* dev_ptr, std::size_t size) override {
    void* p = nullptr;
    const cudaError_t e = Next().malloc_managed_fn(&p, size, 1u);
    if (e == cudaSuccess) *dev_ptr = reinterpret_cast<DevicePtr>(p);
    return static_cast<CudaError>(e);
  }
  CudaError Free(DevicePtr dev_ptr) override {
    return static_cast<CudaError>(
        Next().free_fn(reinterpret_cast<void*>(static_cast<uintptr_t>(dev_ptr))));
  }
  CudaError MemGetInfo(std::size_t* free_bytes, std::size_t* total) override {
    return static_cast<CudaError>(Next().mem_get_info_fn(free_bytes, total));
  }
  CudaError GetDeviceProperties(convgpu::cudasim::DeviceProp* prop,
                                int device) override {
    cudaDeviceProp c_prop{};
    const cudaError_t e = Next().get_props_fn(&c_prop, device);
    if (e != cudaSuccess) return static_cast<CudaError>(e);
    prop->name = c_prop.name;
    prop->total_global_mem = static_cast<convgpu::Bytes>(c_prop.totalGlobalMem);
    prop->multi_processor_count = c_prop.multiProcessorCount;
    prop->clock_rate_khz = c_prop.clockRate;
    prop->texture_pitch_alignment = c_prop.texturePitchAlignment;
    prop->concurrent_kernels = c_prop.concurrentKernels;
    prop->major = c_prop.major;
    prop->minor = c_prop.minor;
    return CudaError::kSuccess;
  }
  void RegisterFatBinary() override {
    if (Next().register_fatbin_fn != nullptr) Next().register_fatbin_fn(nullptr);
  }
  void UnregisterFatBinary() override {
    if (Next().unregister_fatbin_fn != nullptr) {
      Next().unregister_fatbin_fn(nullptr);
    }
  }

  // Never reached: these symbols are not exported by the preload library.
  CudaError MemcpyHostToDevice(DevicePtr, const void*, std::size_t) override {
    return CudaError::kInvalidValue;
  }
  CudaError MemcpyDeviceToHost(void*, DevicePtr, std::size_t) override {
    return CudaError::kInvalidValue;
  }
  CudaError MemcpyDeviceToDevice(DevicePtr, DevicePtr, std::size_t) override {
    return CudaError::kInvalidValue;
  }
  CudaError LaunchKernel(const convgpu::cudasim::KernelLaunch&) override {
    return CudaError::kInvalidValue;
  }
  CudaError DeviceSynchronize() override { return CudaError::kInvalidValue; }
  CudaError StreamCreate(convgpu::cudasim::StreamId*) override {
    return CudaError::kInvalidValue;
  }
  CudaError StreamDestroy(convgpu::cudasim::StreamId) override {
    return CudaError::kInvalidValue;
  }
  CudaError GetLastError() override { return CudaError::kSuccess; }
};

// ---------------------------------------------------------------------------
// Singleton wrapper state.
// ---------------------------------------------------------------------------

struct PreloadState {
  NextCudaApi next;
  std::unique_ptr<convgpu::SocketSchedulerLink> link;  // null => transparent
  std::unique_ptr<convgpu::WrapperCore> wrapper;
};

PreloadState& State() {
  static PreloadState state = [] {
    PreloadState s;
    const char* socket = std::getenv("CONVGPU_SOCKET");
    if (socket != nullptr && socket[0] != '\0') {
      const convgpu::Pid pid = static_cast<convgpu::Pid>(::getpid());
      convgpu::SocketSchedulerLink::Options options;
      const char* container_id = std::getenv("CONVGPU_CONTAINER_ID");
      if (container_id != nullptr) options.container_id = container_id;
      options.pid = pid;
      options.auto_reconnect = true;
      auto link = convgpu::SocketSchedulerLink::Connect(socket, options);
      if (link.ok()) {
        s.link = std::move(*link);
        s.wrapper = std::make_unique<convgpu::WrapperCore>(
            &s.next, s.link.get(), pid);
        s.link->SetSnapshotProvider(
            [wrapper = s.wrapper.get()] { return wrapper->LiveAllocations(); });
      } else {
        std::fprintf(stderr,
                     "libgpushare: cannot reach ConVGPU scheduler at %s: %s\n",
                     socket, link.status().ToString().c_str());
      }
    }
    return s;
  }();
  return state;
}

bool Active() { return State().wrapper != nullptr; }

void* FromDevicePtr(DevicePtr p) {
  return reinterpret_cast<void*>(static_cast<uintptr_t>(p));
}

}  // namespace

extern "C" {

cudaError_t cudaMalloc(void** devPtr, size_t size) {
  if (!Active()) return Next().malloc_fn(devPtr, size);
  DevicePtr p = 0;
  const CudaError e = State().wrapper->Malloc(&p, size);
  if (e == CudaError::kSuccess) *devPtr = FromDevicePtr(p);
  return static_cast<cudaError_t>(e);
}

cudaError_t cudaMallocPitch(void** devPtr, size_t* pitch, size_t width,
                            size_t height) {
  if (!Active()) return Next().malloc_pitch_fn(devPtr, pitch, width, height);
  DevicePtr p = 0;
  const CudaError e = State().wrapper->MallocPitch(&p, pitch, width, height);
  if (e == CudaError::kSuccess) *devPtr = FromDevicePtr(p);
  return static_cast<cudaError_t>(e);
}

cudaError_t cudaMalloc3D(cudaPitchedPtr* pitchedDevPtr, cudaExtent extent) {
  if (!Active()) return Next().malloc_3d_fn(pitchedDevPtr, extent);
  convgpu::cudasim::PitchedPtr out;
  convgpu::cudasim::Extent ext{extent.width, extent.height, extent.depth};
  const CudaError e = State().wrapper->Malloc3D(&out, ext);
  if (e == CudaError::kSuccess) {
    pitchedDevPtr->ptr = FromDevicePtr(out.ptr);
    pitchedDevPtr->pitch = out.pitch;
    pitchedDevPtr->xsize = out.xsize;
    pitchedDevPtr->ysize = out.ysize;
  }
  return static_cast<cudaError_t>(e);
}

cudaError_t cudaMallocManaged(void** devPtr, size_t size, unsigned int flags) {
  if (!Active()) return Next().malloc_managed_fn(devPtr, size, flags);
  DevicePtr p = 0;
  const CudaError e = State().wrapper->MallocManaged(&p, size);
  if (e == CudaError::kSuccess) *devPtr = FromDevicePtr(p);
  return static_cast<cudaError_t>(e);
}

cudaError_t cudaFree(void* devPtr) {
  if (!Active()) return Next().free_fn(devPtr);
  return static_cast<cudaError_t>(
      State().wrapper->Free(reinterpret_cast<DevicePtr>(devPtr)));
}

cudaError_t cudaMemGetInfo(size_t* free, size_t* total) {
  if (!Active()) return Next().mem_get_info_fn(free, total);
  return static_cast<cudaError_t>(State().wrapper->MemGetInfo(free, total));
}

cudaError_t cudaGetDeviceProperties(cudaDeviceProp* prop, int device) {
  // Hooked per Table II (the wrapper snoops geometry) but functionally a
  // pure pass-through.
  return Next().get_props_fn(prop, device);
}

void** __cudaRegisterFatBinary(void* fatCubin) {
  if (Active()) State().wrapper->RegisterFatBinary();
  else if (Next().register_fatbin_fn != nullptr) return Next().register_fatbin_fn(fatCubin);
  static void* handle = nullptr;
  return &handle;
}

void __cudaUnregisterFatBinary(void** fatCubinHandle) {
  if (Active()) {
    State().wrapper->UnregisterFatBinary();
    return;
  }
  if (Next().unregister_fatbin_fn != nullptr) {
    Next().unregister_fatbin_fn(fatCubinHandle);
  }
}

}  // extern "C"
