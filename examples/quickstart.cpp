// Quickstart: the whole ConVGPU stack in one file.
//
// Builds a simulated Tesla K20m, starts the GPU memory scheduler daemon on
// a real UNIX socket, wires up the container engine with the exit-detection
// plugin and the customized nvidia-docker front-end, and runs two GPU
// containers whose "user programs" go through the wrapper module — the
// in-process equivalent of libgpushare.so.
#include <cstdio>

#include "containersim/engine.h"
#include "convgpu/convgpu.h"
#include "cudasim/gpu_device.h"
#include "cudasim/sim_cuda_api.h"
#include "workload/sample_program.h"

int main() {
  using namespace convgpu;
  using namespace convgpu::literals;

  // --- The GPU: one 5 GB Tesla K20m, shared by everything below. ---------
  cudasim::GpuDevice gpu(0, cudasim::TeslaK20m());

  // --- The scheduler daemon (paper §III-D). -------------------------------
  SchedulerServerOptions scheduler_options;
  scheduler_options.base_dir = "/tmp/convgpu-quickstart";
  scheduler_options.scheduler.capacity = gpu.properties().total_global_mem;
  scheduler_options.scheduler.policy = "BF";  // the paper's best performer
  SchedulerServer scheduler(scheduler_options);
  if (auto status = scheduler.Start(); !status.ok()) {
    std::fprintf(stderr, "scheduler: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("scheduler on %s (policy BF, capacity %s)\n",
              scheduler.main_socket_path().c_str(),
              FormatByteSize(scheduler.core().capacity()).c_str());

  // --- Docker-side plumbing: engine, plugin, nvidia-docker. ---------------
  containersim::Engine engine;
  engine.images().Put(containersim::ImageRegistry::CudaImage(
      "cuda-app:latest", "8.0", /*memory_limit=*/"1GiB"));

  NvDockerPlugin::Options plugin_options;
  plugin_options.volume_root = "/tmp/convgpu-quickstart/volumes";
  plugin_options.scheduler_socket = scheduler.main_socket_path();
  NvDockerPlugin plugin(plugin_options);
  engine.RegisterVolumePlugin("nvidia-docker", &plugin);

  NvDocker::Options nvdocker_options;
  nvdocker_options.engine = &engine;
  nvdocker_options.scheduler_socket = scheduler.main_socket_path();
  NvDocker nvdocker(nvdocker_options);

  // --- A containerized GPU program. ----------------------------------------
  // The entrypoint builds its CUDA stack from the container's environment,
  // exactly as LD_PRELOAD assembles it in a real container.
  auto gpu_program = [&gpu](Bytes alloc_size) {
    return [&gpu, alloc_size](containersim::ContainerContext& ctx) -> int {
      SocketSchedulerLink::Options options;
      options.container_id = *ctx.Env("CONVGPU_CONTAINER_ID");
      options.pid = ctx.pid();
      auto link =
          SocketSchedulerLink::Connect(*ctx.Env("CONVGPU_SOCKET"), options);
      if (!link.ok()) return 1;
      cudasim::SimCudaApi runtime(&gpu, ctx.pid());           // "libcudart"
      WrapperCore wrapper(&runtime, link->get(), ctx.pid());  // "libgpushare"

      std::size_t free_bytes = 0;
      std::size_t total_bytes = 0;
      wrapper.MemGetInfo(&free_bytes, &total_bytes);
      std::printf("  [%s] sees a %s GPU (virtualized by ConVGPU)\n",
                  ctx.container_id().substr(0, 6).c_str(),
                  FormatByteSize(static_cast<Bytes>(total_bytes)).c_str());

      workload::SampleProgramConfig config;
      config.gpu_memory = alloc_size;
      config.compute_duration = Millis(50);
      config.time_scale = 1.0;
      const auto report = RunSampleProgram(wrapper, config, &ctx);
      return report.result == cudasim::CudaError::kSuccess ? 0 : 1;
    };
  };

  // --- nvidia-docker run, twice. -------------------------------------------
  std::printf("\n$ nvidia-docker run --nvidia-memory=2GiB cuda-app\n");
  RunRequest first;
  first.image = "cuda-app:latest";
  first.name = "alpha";
  first.nvidia_memory = "2GiB";
  first.entrypoint = gpu_program(1536_MiB);
  auto alpha = nvdocker.Run(std::move(first));
  if (!alpha.ok()) {
    std::fprintf(stderr, "run failed: %s\n", alpha.status().ToString().c_str());
    return 1;
  }

  std::printf("$ nvidia-docker run cuda-app   # limit from the image label\n");
  RunRequest second;
  second.image = "cuda-app:latest";
  second.name = "beta";
  second.entrypoint = gpu_program(512_MiB);
  auto beta = nvdocker.Run(std::move(second));
  if (!beta.ok()) return 1;

  // --- Watch them share the GPU. -------------------------------------------
  for (const auto& snapshot : scheduler.core().Stats()) {
    std::printf("  container %-6s limit %-8s assigned %-8s\n",
                snapshot.id.c_str(), FormatByteSize(snapshot.limit).c_str(),
                FormatByteSize(snapshot.assigned).c_str());
  }

  int alpha_code = engine.Wait(alpha->container_id).value_or(-1);
  int beta_code = engine.Wait(beta->container_id).value_or(-1);
  std::printf("\nalpha exited %d, beta exited %d\n", alpha_code, beta_code);
  std::printf("GPU free after cleanup: %s of %s\n",
              FormatByteSize(gpu.MemGetInfo().free).c_str(),
              FormatByteSize(gpu.MemGetInfo().total).c_str());
  return alpha_code == 0 && beta_code == 0 ? 0 : 1;
}
