// The live node: one scheduler daemon child process, one container engine
// with the nvidia-docker plugin, the customized nvidia-docker front-end, and
// a fixed number of container slots, each refilled as soon as its container
// exits (a closed loop). Every container runs a tenant program on the
// production wrapper stack — WrapperCore over SocketSchedulerLink, with the
// hello negotiating the codec exactly as gpushare_preload does — against one
// shared simulated K20m.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "containersim/engine.h"
#include "convgpu/nvdocker.h"
#include "convgpu/plugin.h"
#include "cudasim/gpu_device.h"
#include "daemon.h"
#include "trace.h"

namespace convbench {

/// What a CUDA call was, for the latency samples.
enum class CallKind : std::uint8_t { kMalloc, kFree, kMemGetInfo };

/// One timed CUDA call as the user program saw it.
struct CallSample {
  double end_s = 0;   // completion time (NowSeconds)
  float us = 0;       // wrapper call latency
  CallKind kind = CallKind::kMalloc;
};

/// Per-thread call samples, merged after the run.
class CallLog {
 public:
  void Add(const CallSample& sample);
  [[nodiscard]] std::vector<CallSample> Merged() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<CallSample>>> buffers_;
};

/// Everything a tenant program needs: the CUDA API it sees (the wrapper),
/// its container's limit, its seeded generator, and where to report.
struct TenantContext {
  convgpu::cudasim::CudaApi* cuda = nullptr;
  convgpu::Bytes limit = 0;
  convgpu::Rng rng;
  const std::atomic<bool>* stop = nullptr;  // null: run the program to the end
  CallLog* log = nullptr;                   // null: do not record calls
  /// Output checks of this thread: name -> (ran, failed); merged on exit.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> checks;

  /// Times `call` as one CUDA call of `kind` (and opens its wrapper span).
  template <typename Call>
  convgpu::cudasim::CudaError Timed(CallKind kind, Call&& call) {
    const SpanName name = kind == CallKind::kMalloc ? SpanName::kWrapperMalloc
                          : kind == CallKind::kFree ? SpanName::kWrapperFree
                                                    : SpanName::kWrapperMemGetInfo;
    const double start = NowSeconds();
    convgpu::cudasim::CudaError error;
    {
      Tracer::Scope span(name);
      error = call();
    }
    const double end = NowSeconds();
    if (log != nullptr) log->Add({end, static_cast<float>((end - start) * 1e6), kind});
    return error;
  }
  /// Records an output check; returns `ok`.
  bool Check(const std::string& name, bool ok) {
    auto& [ran, failed] = checks[name];
    ++ran;
    if (!ok) ++failed;
    return ok;
  }
  [[nodiscard]] bool stopped() const {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  }
};

/// Grant policy of every workload (the paper's default).
inline constexpr char kPolicy[] = "FIFO";

/// A workload's shape: slots, threads per container, daemon capacity, the
/// container limit generator, and the tenant program itself. The program
/// returns false when any output check failed.
struct WorkloadShape {
  int slots = 4;
  int threads = 1;
  convgpu::Bytes capacity = 5 * convgpu::kGiB;
  std::function<convgpu::Bytes(convgpu::Rng&)> limit;
  std::function<bool(TenantContext&)> program;
};

/// One container's life as the node saw it.
struct ContainerRecord {
  double run_s = 0;      // NvDocker::Run called
  double started_s = 0;  // Run returned (registered, mounted, started)
  double exited_s = 0;   // Engine::Wait returned (close already sent)
  int exit_code = 0;
};

class Node {
 public:
  Node(const Options& options, WorkloadShape shape, int incarnation);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Spawns the daemon and fills every slot with a container whose link is
  /// connected but whose program waits for Go(). Returns when all first-wave
  /// links have finished their hello — the end of set-up.
  convgpu::Status Start();
  /// Releases the first wave: `run` starts the programs (and slot refills);
  /// otherwise the first wave exits at once and no slot refills.
  void Go(bool run);
  /// Ends the closed loop: programs stop at their next call boundary and no
  /// slot refills; returns once every slot's last container has exited.
  void Stop();

  /// After Stop(): waits for the daemon to drop every container, then checks
  /// the end state (no containers, free pool == capacity, no kicked
  /// connections, device memory all free).
  void CheckEndState(RunResult& result);

  [[nodiscard]] Daemon& daemon() { return *daemon_; }
  [[nodiscard]] CallLog& calls() { return calls_; }
  [[nodiscard]] std::vector<ContainerRecord> containers() const;
  [[nodiscard]] std::uint64_t links() const { return links_.load(); }
  [[nodiscard]] std::uint64_t binary_links() const { return binary_links_.load(); }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_.load(); }
  [[nodiscard]] std::uint64_t register_retries() const {
    return register_retries_.load();
  }
  [[nodiscard]] std::vector<double> suspend_probes() const;
  [[nodiscard]] RunResult& checks() { return checks_; }
  [[nodiscard]] std::mutex& checks_mutex() { return checks_mutex_; }

 private:
  void SlotLoop(int slot);
  int Entrypoint(convgpu::containersim::ContainerContext& context,
                 convgpu::Bytes limit, std::uint64_t seed, bool gated);
  void FailSlot(const std::string& why);

  const Options& options_;
  WorkloadShape shape_;
  std::string base_dir_;
  std::unique_ptr<Daemon> daemon_;
  convgpu::cudasim::GpuDevice device_;
  convgpu::containersim::Engine engine_;
  std::unique_ptr<convgpu::NvDockerPlugin> plugin_;
  std::unique_ptr<TracedPlugin> traced_plugin_;
  std::unique_ptr<convgpu::NvDocker> nvdocker_;

  // First-wave gate.
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  int ready_ = 0;
  bool released_ = false;
  bool run_ = false;

  std::atomic<bool> stop_{false};
  CallLog calls_;
  RunResult checks_;  // checks and failures only
  std::mutex checks_mutex_;

  mutable std::mutex records_mutex_;
  std::vector<ContainerRecord> records_;
  std::vector<double> suspend_probes_;  // 1 if the container ever suspended

  std::atomic<std::uint64_t> links_{0};
  std::atomic<std::uint64_t> binary_links_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> register_retries_{0};
  std::atomic<std::uint64_t> container_seq_{0};
  std::vector<std::thread> slots_;
};

/// The three workloads' shapes.
WorkloadShape AllocFanInShape();
WorkloadShape AllocSharedLinkShape();
WorkloadShape TenantChurnShape();

}  // namespace convbench
