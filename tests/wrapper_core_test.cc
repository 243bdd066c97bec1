// WrapperCore tested against a real SimCudaApi and a direct scheduler link
// — the in-process equivalent of the LD_PRELOAD chain.
#include "convgpu/wrapper_core.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "convgpu/scheduler_core.h"
#include "convgpu/scheduler_link.h"
#include "cudasim/gpu_device.h"
#include "cudasim/sim_cuda_api.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;
using cudasim::CudaError;
using cudasim::DevicePtr;

constexpr Bytes kOverhead = 66_MiB;

class WrapperCoreTest : public ::testing::Test {
 protected:
  WrapperCoreTest()
      : device_(0, cudasim::TeslaK20m()),
        core_(MakeOptions(), &clock_),
        inner_(&device_, kPid),
        link_(&core_, "c1"),
        wrapper_(&inner_, &link_, kPid) {
    EXPECT_TRUE(core_.RegisterContainer("c1", 512_MiB).ok());
  }

  static SchedulerOptions MakeOptions() {
    SchedulerOptions options;
    options.capacity = 5_GiB;
    options.first_alloc_overhead = kOverhead;
    return options;
  }

  static constexpr Pid kPid = 777;

  SimClock clock_;
  cudasim::GpuDevice device_;
  SchedulerCore core_;
  cudasim::SimCudaApi inner_;
  DirectSchedulerLink link_;
  WrapperCore wrapper_;
};

TEST_F(WrapperCoreTest, MallocGoesThroughSchedulerAndCommits) {
  DevicePtr p = cudasim::kNullDevicePtr;
  ASSERT_EQ(wrapper_.Malloc(&p, static_cast<std::size_t>(64_MiB)),
            CudaError::kSuccess);
  EXPECT_NE(p, cudasim::kNullDevicePtr);
  // Scheduler sees the allocation + first-touch overhead.
  EXPECT_EQ(core_.StatsFor("c1")->used, 64_MiB + kOverhead);
  // The device really allocated it too.
  EXPECT_GT(device_.UsedBy(kPid), 64_MiB);
  EXPECT_EQ(wrapper_.stats().alloc_granted, 1u);
}

TEST_F(WrapperCoreTest, RejectionMapsToCudaErrorMemoryAllocation) {
  DevicePtr p = cudasim::kNullDevicePtr;
  // 1 GiB request against a 512 MiB limit.
  EXPECT_EQ(wrapper_.Malloc(&p, static_cast<std::size_t>(1_GiB)),
            CudaError::kMemoryAllocation);
  EXPECT_EQ(wrapper_.GetLastError(), CudaError::kMemoryAllocation);
  EXPECT_EQ(wrapper_.stats().alloc_rejected, 1u);
  // Nothing leaked on the device or in the ledger.
  EXPECT_EQ(core_.StatsFor("c1")->used, 0);
  EXPECT_EQ(device_.UsedBy(kPid), 0);
}

TEST_F(WrapperCoreTest, FreeNotifiesSchedulerFireAndForget) {
  DevicePtr p = cudasim::kNullDevicePtr;
  ASSERT_EQ(wrapper_.Malloc(&p, static_cast<std::size_t>(64_MiB)),
            CudaError::kSuccess);
  ASSERT_EQ(wrapper_.Free(p), CudaError::kSuccess);
  EXPECT_EQ(core_.StatsFor("c1")->used, kOverhead);  // only the context charge
  EXPECT_EQ(wrapper_.stats().frees, 1u);
}

TEST_F(WrapperCoreTest, MallocPitchChargesAdjustedSize) {
  DevicePtr p = cudasim::kNullDevicePtr;
  std::size_t pitch = 0;
  // width 1000 rounds up to the 512-byte pitch alignment.
  ASSERT_EQ(wrapper_.MallocPitch(&p, &pitch, 1000, 100), CudaError::kSuccess);
  EXPECT_EQ(pitch, 1024u);
  EXPECT_EQ(core_.StatsFor("c1")->used, 1024 * 100 + kOverhead);
}

TEST_F(WrapperCoreTest, Malloc3DChargesPitchTimesHeightTimesDepth) {
  cudasim::PitchedPtr pitched;
  cudasim::Extent extent{600, 10, 4};
  ASSERT_EQ(wrapper_.Malloc3D(&pitched, extent), CudaError::kSuccess);
  EXPECT_EQ(pitched.pitch, 1024u);
  EXPECT_EQ(core_.StatsFor("c1")->used, 1024 * 10 * 4 + kOverhead);
}

TEST_F(WrapperCoreTest, MallocManagedRoundsTo128MiB) {
  DevicePtr p = cudasim::kNullDevicePtr;
  ASSERT_EQ(wrapper_.MallocManaged(&p, static_cast<std::size_t>(1_MiB)),
            CudaError::kSuccess);
  EXPECT_EQ(core_.StatsFor("c1")->used, 128_MiB + kOverhead);
}

TEST_F(WrapperCoreTest, ManagedBeyondLimitAfterRoundingRejected) {
  // 400 MiB rounds to 512 MiB; with the 66 MiB overhead that exceeds the
  // declared 512 MiB + allowance? 512 + 66 = device limit 578; request
  // total = 512 + 66 = 578 — exactly fits. Use 513 MiB: rounds to 640.
  DevicePtr p = cudasim::kNullDevicePtr;
  EXPECT_EQ(wrapper_.MallocManaged(&p, static_cast<std::size_t>(513_MiB)),
            CudaError::kMemoryAllocation);
}

TEST_F(WrapperCoreTest, MemGetInfoAnsweredBySchedulerNotDevice) {
  std::size_t free_bytes = 0;
  std::size_t total_bytes = 0;
  ASSERT_EQ(wrapper_.MemGetInfo(&free_bytes, &total_bytes), CudaError::kSuccess);
  // The container's virtualized view: 512 MiB, not the 5 GB device.
  EXPECT_EQ(total_bytes, static_cast<std::size_t>(512_MiB));
  EXPECT_EQ(free_bytes, static_cast<std::size_t>(512_MiB));

  DevicePtr p = cudasim::kNullDevicePtr;
  ASSERT_EQ(wrapper_.Malloc(&p, static_cast<std::size_t>(100_MiB)),
            CudaError::kSuccess);
  ASSERT_EQ(wrapper_.MemGetInfo(&free_bytes, &total_bytes), CudaError::kSuccess);
  EXPECT_EQ(free_bytes, static_cast<std::size_t>(412_MiB));
}

TEST_F(WrapperCoreTest, PassthroughApisReachInner) {
  DevicePtr p = cudasim::kNullDevicePtr;
  ASSERT_EQ(wrapper_.Malloc(&p, 4096), CudaError::kSuccess);
  EXPECT_EQ(wrapper_.MemcpyHostToDevice(p, nullptr, 4096), CudaError::kSuccess);
  cudasim::KernelLaunch launch;
  launch.name = "k";
  launch.duration = Millis(1);
  EXPECT_EQ(wrapper_.LaunchKernel(launch), CudaError::kSuccess);
  EXPECT_EQ(wrapper_.DeviceSynchronize(), CudaError::kSuccess);
  EXPECT_EQ(inner_.stats().kernel_launches, 1u);
  EXPECT_EQ(inner_.stats().memcpy_calls, 1u);
}

TEST_F(WrapperCoreTest, UnregisterFatBinaryReportsProcessExit) {
  DevicePtr p = cudasim::kNullDevicePtr;
  ASSERT_EQ(wrapper_.Malloc(&p, static_cast<std::size_t>(64_MiB)),
            CudaError::kSuccess);
  // The "program" exits without freeing.
  wrapper_.UnregisterFatBinary();
  EXPECT_EQ(core_.StatsFor("c1")->used, 0);   // scheduler cleaned the pid
  EXPECT_EQ(device_.UsedBy(kPid), 0);         // driver context destroyed
}

/// Forwards to a real CUDA API and appends the driver-context teardown to a
/// shared event log. An after-free hook, when set, runs once right after
/// the next successful device free — the moment the address is reusable.
class RecordingCudaApi final : public cudasim::CudaApi {
 public:
  RecordingCudaApi(cudasim::CudaApi* inner, std::vector<std::string>* log)
      : inner_(inner), log_(log) {}

  void set_after_free(std::function<void()> hook) {
    after_free_ = std::move(hook);
  }

  CudaError Malloc(DevicePtr* p, std::size_t size) override {
    return inner_->Malloc(p, size);
  }
  CudaError MallocPitch(DevicePtr* p, std::size_t* pitch, std::size_t width,
                        std::size_t height) override {
    return inner_->MallocPitch(p, pitch, width, height);
  }
  CudaError Malloc3D(cudasim::PitchedPtr* pitched,
                     const cudasim::Extent& extent) override {
    return inner_->Malloc3D(pitched, extent);
  }
  CudaError MallocManaged(DevicePtr* p, std::size_t size) override {
    return inner_->MallocManaged(p, size);
  }
  CudaError Free(DevicePtr p) override {
    const CudaError error = inner_->Free(p);
    if (error == CudaError::kSuccess) {
      if (auto hook = std::exchange(after_free_, nullptr)) hook();
    }
    return error;
  }
  CudaError MemGetInfo(std::size_t* free_bytes,
                       std::size_t* total_bytes) override {
    return inner_->MemGetInfo(free_bytes, total_bytes);
  }
  CudaError GetDeviceProperties(cudasim::DeviceProp* prop,
                                int device) override {
    return inner_->GetDeviceProperties(prop, device);
  }
  CudaError MemcpyHostToDevice(DevicePtr dst, const void* src,
                               std::size_t count) override {
    return inner_->MemcpyHostToDevice(dst, src, count);
  }
  CudaError MemcpyDeviceToHost(void* dst, DevicePtr src,
                               std::size_t count) override {
    return inner_->MemcpyDeviceToHost(dst, src, count);
  }
  CudaError MemcpyDeviceToDevice(DevicePtr dst, DevicePtr src,
                                 std::size_t count) override {
    return inner_->MemcpyDeviceToDevice(dst, src, count);
  }
  CudaError LaunchKernel(const cudasim::KernelLaunch& launch) override {
    return inner_->LaunchKernel(launch);
  }
  CudaError DeviceSynchronize() override { return inner_->DeviceSynchronize(); }
  CudaError StreamCreate(cudasim::StreamId* stream) override {
    return inner_->StreamCreate(stream);
  }
  CudaError StreamDestroy(cudasim::StreamId stream) override {
    return inner_->StreamDestroy(stream);
  }
  void RegisterFatBinary() override { inner_->RegisterFatBinary(); }
  void UnregisterFatBinary() override {
    inner_->UnregisterFatBinary();
    log_->push_back("device:unregister_fat_binary");
  }
  CudaError GetLastError() override { return inner_->GetLastError(); }

 private:
  cudasim::CudaApi* inner_;
  std::vector<std::string>* log_;
  std::function<void()> after_free_;
};

/// Forwards to a real link and appends every one-way notify to the same
/// event log, together with what the device still holds for `pid` at that
/// moment.
class RecordingLink final : public SchedulerLink {
 public:
  RecordingLink(SchedulerLink* inner, const cudasim::GpuDevice* device,
                Pid pid, std::vector<std::string>* log)
      : inner_(inner), device_(device), pid_(pid), log_(log) {}

  ReplyFuture AsyncCall(const protocol::Message& request) override {
    return inner_->AsyncCall(request);
  }
  Status Notify(const protocol::Message& message) override {
    log_->push_back("notify:" + std::string(protocol::TypeName(message)) +
                    " device_used=" + std::to_string(device_->UsedBy(pid_)));
    return inner_->Notify(message);
  }

 private:
  SchedulerLink* inner_;
  const cudasim::GpuDevice* device_;
  Pid pid_;
  std::vector<std::string>* log_;
};

TEST_F(WrapperCoreTest, ProcessExitIsReportedAfterTheDeviceContextIsGone) {
  // process_exit hands the pid's memory back to the scheduler, which may
  // grant it to another container at once. The driver context must already
  // be gone by then, or that grant reaches a device still holding the old
  // 66 MiB context.
  std::vector<std::string> log;
  RecordingCudaApi device_api(&inner_, &log);
  RecordingLink link(&link_, &device_, kPid, &log);
  WrapperCore wrapper(&device_api, &link, kPid);

  DevicePtr p = cudasim::kNullDevicePtr;
  ASSERT_EQ(wrapper.Malloc(&p, static_cast<std::size_t>(64_MiB)),
            CudaError::kSuccess);
  ASSERT_GT(device_.UsedBy(kPid), 64_MiB);
  log.clear();  // keep only the exit sequence

  wrapper.UnregisterFatBinary();
  EXPECT_EQ(log, (std::vector<std::string>{
                     "device:unregister_fat_binary",
                     "notify:process_exit device_used=0",
                 }));
  EXPECT_EQ(core_.StatsFor("c1")->used, 0);
}

TEST_F(WrapperCoreTest, DeviceFailureAfterAdmissionRollsBackReservation) {
  // Admission passes (within the 512 MiB limit) but the device itself is
  // too small: the wrapper must send alloc_abort so the ledger stays exact.
  cudasim::DeviceProp tiny = cudasim::TeslaK20m();
  tiny.total_global_mem = 100_MiB;
  cudasim::GpuDevice small_device(0, tiny);
  cudasim::SimCudaApi inner(&small_device, 99);
  WrapperCore wrapper(&inner, &link_, 99);

  DevicePtr p = cudasim::kNullDevicePtr;
  EXPECT_EQ(wrapper.Malloc(&p, static_cast<std::size_t>(200_MiB)),
            CudaError::kMemoryAllocation);
  // The allocation reservation was rolled back; only the driver-context
  // charge remains (the driver really did create the context before the
  // allocation failed).
  EXPECT_EQ(core_.StatsFor("c1")->used, kOverhead);
  EXPECT_EQ(small_device.UsedBy(99), kOverhead);
  EXPECT_TRUE(core_.CheckInvariants().ok());
}

TEST_F(WrapperCoreTest, FreeReachesTheLedgerBeforeTheAddressIsReused) {
  // A sibling thread's cudaMalloc runs between the device free and the
  // rest of Free, and the device hands it the address just released. Its
  // alloc_commit must not reach the ledger while the old allocation still
  // holds that address, and the late bookkeeping of the first free must
  // not erase the sibling's live entry.
  std::vector<std::string> log;
  RecordingCudaApi device_api(&inner_, &log);
  WrapperCore wrapper(&device_api, &link_, kPid);

  DevicePtr first = cudasim::kNullDevicePtr;
  ASSERT_EQ(wrapper.Malloc(&first, static_cast<std::size_t>(1_MiB)),
            CudaError::kSuccess);
  DevicePtr second = cudasim::kNullDevicePtr;
  device_api.set_after_free([&] {
    std::thread sibling([&] {
      EXPECT_EQ(wrapper.Malloc(&second, static_cast<std::size_t>(1_MiB)),
                CudaError::kSuccess);
    });
    sibling.join();
  });
  ASSERT_EQ(wrapper.Free(first), CudaError::kSuccess);
  ASSERT_EQ(second, first) << "the device did not reuse the freed address";

  EXPECT_EQ(wrapper.LiveAllocations(),
            (std::vector<protocol::LiveAlloc>{{.address = second,
                                               .size = 1_MiB}}));
  EXPECT_EQ(core_.StatsFor("c1")->used, 1_MiB + kOverhead);

  ASSERT_EQ(wrapper.Free(second), CudaError::kSuccess);
  EXPECT_EQ(core_.StatsFor("c1")->used, kOverhead);
  EXPECT_TRUE(wrapper.LiveAllocations().empty());
  EXPECT_TRUE(core_.CheckInvariants().ok());
}

TEST_F(WrapperCoreTest, ConcurrentUserThreadsStayConsistent) {
  // Multi-threaded user programs call cudaMalloc/cudaFree from several
  // threads at once; the wrapper + scheduler accounting must stay exact.
  constexpr int kThreads = 6;
  constexpr int kRounds = 25;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        DevicePtr p = cudasim::kNullDevicePtr;
        if (wrapper_.Malloc(&p, static_cast<std::size_t>(1_MiB)) !=
            CudaError::kSuccess) {
          ++errors;
          continue;
        }
        if (wrapper_.Free(p) != CudaError::kSuccess) ++errors;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  // All memory returned; only the context charge remains.
  EXPECT_EQ(core_.StatsFor("c1")->used, kOverhead);
  EXPECT_TRUE(core_.CheckInvariants().ok());
}

}  // namespace
}  // namespace convgpu
