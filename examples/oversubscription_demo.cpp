// Motivation demo: what happens WITHOUT ConVGPU when containers
// oversubscribe the GPU — and how the same workload behaves with it.
//
// Paper §I: "accessing the same GPU at the same time by different
// containers may cause a program failure" because NVIDIA Docker assigns
// the whole GPU to every container and nobody arbitrates memory.
//
// Round 1 (plain NVIDIA Docker): four containers each assume they own the
// 5 GB K20m and allocate 2 GiB up front. The third/fourth hit
// cudaErrorMemoryAllocation mid-run — the program failure users actually
// saw in 2017.
//
// Round 2 (ConVGPU, FIFO): the same four containers declare limits; late
// arrivals are *suspended*, not failed, and every program completes.
#include <atomic>
#include <cstdio>

#include "containersim/engine.h"
#include "convgpu/convgpu.h"
#include "cudasim/gpu_device.h"
#include "cudasim/sim_cuda_api.h"
#include "workload/sample_program.h"

using namespace convgpu;
using namespace convgpu::literals;

namespace {

workload::SampleProgramConfig JobConfig() {
  workload::SampleProgramConfig config;
  config.gpu_memory = 2_GiB;
  config.compute_duration = Millis(80);
  config.time_scale = 1.0;
  return config;
}

int RunRound(bool with_convgpu) {
  cudasim::GpuDevice gpu(0, cudasim::TeslaK20m());
  containersim::Engine engine;
  engine.images().Put(
      containersim::ImageRegistry::CudaImage("cuda-app", "8.0"));

  std::unique_ptr<SchedulerServer> scheduler;
  std::unique_ptr<NvDockerPlugin> plugin;
  if (with_convgpu) {
    SchedulerServerOptions options;
    options.base_dir = "/tmp/convgpu-demo";
    options.scheduler.capacity = gpu.properties().total_global_mem;
    scheduler = std::make_unique<SchedulerServer>(std::move(options));
    if (!scheduler->Start().ok()) return -1;
    NvDockerPlugin::Options plugin_options;
    plugin_options.volume_root = "/tmp/convgpu-demo/volumes";
    plugin_options.scheduler_socket = scheduler->main_socket_path();
    plugin = std::make_unique<NvDockerPlugin>(plugin_options);
    engine.RegisterVolumePlugin("nvidia-docker", plugin.get());
  }

  std::atomic<int> failures{0};
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    containersim::ContainerSpec spec;
    spec.image = "cuda-app";
    spec.name = (with_convgpu ? "managed" : "unmanaged") + std::to_string(i);

    if (with_convgpu) {
      // Through nvidia-docker: registered, limited, interposed.
      NvDocker nvdocker({&engine, scheduler->main_socket_path(), nullptr,
                         "/dev/nvidia0"});
      RunRequest request;
      request.image = "cuda-app";
      request.name = spec.name;
      request.nvidia_memory = "2GiB";
      request.entrypoint = [&gpu, &failures](containersim::ContainerContext& ctx) {
        SocketSchedulerLink::Options options;
        options.container_id = *ctx.Env("CONVGPU_CONTAINER_ID");
        options.pid = ctx.pid();
        auto link =
            SocketSchedulerLink::Connect(*ctx.Env("CONVGPU_SOCKET"), options);
        if (!link.ok()) return 2;
        cudasim::SimCudaApi runtime(&gpu, ctx.pid());
        WrapperCore wrapper(&runtime, link->get(), ctx.pid());
        const auto report = RunSampleProgram(wrapper, JobConfig(), &ctx);
        if (report.result != cudasim::CudaError::kSuccess) ++failures;
        return report.result == cudasim::CudaError::kSuccess ? 0 : 1;
      };
      auto result = nvdocker.Run(std::move(request));
      if (!result.ok()) {
        ++failures;
        continue;
      }
      ids.push_back(result->container_id);
    } else {
      // Plain NVIDIA Docker: the container talks to the device directly.
      spec.entrypoint = [&gpu, &failures](containersim::ContainerContext& ctx) {
        cudasim::SimCudaApi runtime(&gpu, ctx.pid());
        const auto report = RunSampleProgram(runtime, JobConfig(), &ctx);
        if (report.result != cudasim::CudaError::kSuccess) {
          std::printf("    container %s: cudaMalloc failed — %s\n",
                      ctx.container_id().substr(0, 6).c_str(),
                      std::string(cudasim::CudaErrorString(report.result)).c_str());
          ++failures;
        }
        return report.result == cudasim::CudaError::kSuccess ? 0 : 1;
      };
      auto id = engine.Create(std::move(spec));
      if (!id.ok() || !engine.Start(*id).ok()) {
        ++failures;
        continue;
      }
      ids.push_back(*id);
    }
  }

  for (const auto& id : ids) (void)engine.Wait(id);
  return failures.load();
}

}  // namespace

int main() {
  std::printf("4 containers x 2 GiB on one 5 GB GPU\n");
  std::printf("\nround 1 — plain NVIDIA Docker (no arbitration):\n");
  const int unmanaged_failures = RunRound(/*with_convgpu=*/false);
  std::printf("  => %d of 4 programs FAILED\n", unmanaged_failures);

  std::printf("\nround 2 — same workload under ConVGPU:\n");
  const int managed_failures = RunRound(/*with_convgpu=*/true);
  std::printf("  => %d of 4 programs failed (late ones were suspended, then "
              "ran)\n",
              managed_failures);

  return (unmanaged_failures > 0 && managed_failures == 0) ? 0 : 1;
}
