#include "node.h"

#include <chrono>
#include <cmath>
#include <filesystem>

#include "convgpu/wrapper_core.h"
#include "cudasim/sim_cuda_api.h"

namespace convbench {

namespace cs = convgpu::cudasim;
using convgpu::Bytes;
using convgpu::kGiB;
using convgpu::kKiB;
using convgpu::kMiB;
using convgpu::Rng;
using cs::CudaError;

// --- CallLog -----------------------------------------------------------------

void CallLog::Add(const CallSample& sample) {
  struct Local {
    const CallLog* owner = nullptr;
    std::vector<CallSample>* buffer = nullptr;
  };
  thread_local Local local;
  if (local.owner != this) {
    auto buffer = std::make_unique<std::vector<CallSample>>();
    buffer->reserve(4096);
    local = {this, buffer.get()};
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  local.buffer->push_back(sample);
}

std::vector<CallSample> CallLog::Merged() const {
  std::lock_guard lock(mutex_);
  std::vector<CallSample> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

// --- Tenant programs ---------------------------------------------------------

namespace {

/// Log-uniform size in [lo, hi], rounded to 256 bytes.
Bytes LogUniform(Rng& rng, Bytes lo, Bytes hi) {
  const double l = std::log(static_cast<double>(lo));
  const double h = std::log(static_cast<double>(hi));
  const double size = std::exp(l + (h - l) * rng.UniformDouble());
  return std::max<Bytes>(256, static_cast<Bytes>(size) / 256 * 256);
}

/// Frees every live allocation of `working` (end of a session).
bool FreeAll(TenantContext& t, std::vector<std::pair<cs::DevicePtr, Bytes>>& working) {
  bool ok = true;
  for (auto& [ptr, size] : working) {
    if (ptr == cs::kNullDevicePtr) continue;
    const CudaError e = t.Timed(CallKind::kFree, [&] { return t.cuda->Free(ptr); });
    ok &= e == CudaError::kSuccess;
    ptr = cs::kNullDevicePtr;
    size = 0;
  }
  return ok;
}

/// alloc_fanin: a random walk over a fixed working set of allocation slots.
/// Each op picks a slot: an empty one is filled by cudaMalloc (log-uniform
/// 4 KiB .. 8 MiB), a full one is released by cudaFree; every eighth op is a
/// cudaMemGetInfo whose answer must match the container's ledger exactly.
bool AllocWalk(TenantContext& t) {
  constexpr int kWorkingSet = 32;  // 32 x 8 MiB stays far under the limit
  // Sessions of 1500..4500 ops, so the slots' container restarts do not
  // fall into lockstep.
  const auto session_ops = static_cast<int>(1500 + t.rng.UniformBelow(3001));
  std::vector<std::pair<cs::DevicePtr, Bytes>> working(kWorkingSet);
  Bytes live = 0;
  bool ok = true;
  for (int op = 0; op < session_ops && !t.stopped(); ++op) {
    if (op % 8 == 7) {
      std::size_t free_bytes = 0, total = 0;
      const CudaError e = t.Timed(CallKind::kMemGetInfo, [&] {
        return t.cuda->MemGetInfo(&free_bytes, &total);
      });
      ok &= t.Check("alloc_fanin.memgetinfo_exact",
                    e == CudaError::kSuccess &&
                        static_cast<Bytes>(total) == t.limit &&
                        static_cast<Bytes>(free_bytes) == t.limit - live);
      continue;
    }
    auto& [ptr, size] = working[t.rng.UniformBelow(kWorkingSet)];
    if (ptr == cs::kNullDevicePtr) {
      const Bytes want = LogUniform(t.rng, 4 * kKiB, 8 * kMiB);
      cs::DevicePtr got = cs::kNullDevicePtr;
      const CudaError e = t.Timed(CallKind::kMalloc, [&] {
        return t.cuda->Malloc(&got, static_cast<std::size_t>(want));
      });
      if (!t.Check("alloc_fanin.malloc_granted", e == CudaError::kSuccess)) {
        ok = false;
        continue;
      }
      ptr = got;
      size = want;
      live += want;
    } else {
      const CudaError e = t.Timed(CallKind::kFree, [&] { return t.cuda->Free(ptr); });
      ok &= t.Check("alloc_fanin.free_ok", e == CudaError::kSuccess);
      live -= size;
      ptr = cs::kNullDevicePtr;
      size = 0;
    }
  }
  ok &= t.Check("alloc_fanin.session_free_all", FreeAll(t, working));
  return ok;
}

/// alloc_shared_link: read-heavy — nine in ten ops are cudaMemGetInfo
/// (0 <= free <= total == limit), the rest small malloc/free pairs over a
/// four-slot working set. Runs on every thread of the container at once.
bool SharedLinkMix(TenantContext& t) {
  constexpr int kWorkingSet = 4;
  constexpr int kSessionOps = 2000;  // per thread
  std::vector<std::pair<cs::DevicePtr, Bytes>> working(kWorkingSet);
  bool ok = true;
  for (int op = 0; op < kSessionOps && !t.stopped(); ++op) {
    if (t.rng.UniformBelow(10) != 0) {
      std::size_t free_bytes = 0, total = 0;
      const CudaError e = t.Timed(CallKind::kMemGetInfo, [&] {
        return t.cuda->MemGetInfo(&free_bytes, &total);
      });
      ok &= t.Check("alloc_shared_link.memgetinfo_bounds",
                    e == CudaError::kSuccess &&
                        static_cast<Bytes>(total) == t.limit &&
                        free_bytes <= total);
      continue;
    }
    auto& [ptr, size] = working[t.rng.UniformBelow(kWorkingSet)];
    if (ptr == cs::kNullDevicePtr) {
      const Bytes want = LogUniform(t.rng, 4 * kKiB, 1 * kMiB);
      cs::DevicePtr got = cs::kNullDevicePtr;
      const CudaError e = t.Timed(CallKind::kMalloc, [&] {
        return t.cuda->Malloc(&got, static_cast<std::size_t>(want));
      });
      if (!t.Check("alloc_shared_link.malloc_granted", e == CudaError::kSuccess)) {
        ok = false;
        continue;
      }
      ptr = got;
      size = want;
    } else {
      const CudaError e = t.Timed(CallKind::kFree, [&] { return t.cuda->Free(ptr); });
      ok &= t.Check("alloc_shared_link.free_ok", e == CudaError::kSuccess);
      ptr = cs::kNullDevicePtr;
      size = 0;
    }
  }
  ok &= t.Check("alloc_shared_link.session_free_all", FreeAll(t, working));
  return ok;
}

/// The paper's sample program with no compute hold: cudaMemGetInfo (the
/// whole limit is free), one full-limit cudaMalloc — suspended by the
/// scheduler until memory is redistributed to this container —
/// cudaMemGetInfo again (nothing left), cudaFree.
bool SampleProgram(TenantContext& t) {
  std::size_t free_bytes = 0, total = 0;
  CudaError e = t.Timed(CallKind::kMemGetInfo, [&] {
    return t.cuda->MemGetInfo(&free_bytes, &total);
  });
  bool ok = t.Check("sample.memgetinfo_whole_limit",
                    e == CudaError::kSuccess &&
                        static_cast<Bytes>(total) == t.limit &&
                        static_cast<Bytes>(free_bytes) == t.limit);
  cs::DevicePtr ptr = cs::kNullDevicePtr;
  e = t.Timed(CallKind::kMalloc, [&] {
    return t.cuda->Malloc(&ptr, static_cast<std::size_t>(t.limit));
  });
  if (!t.Check("sample.full_limit_malloc", e == CudaError::kSuccess)) return false;
  e = t.Timed(CallKind::kMemGetInfo, [&] {
    return t.cuda->MemGetInfo(&free_bytes, &total);
  });
  ok &= t.Check("sample.memgetinfo_none_left",
                e == CudaError::kSuccess && static_cast<Bytes>(total) == t.limit &&
                    free_bytes == 0);
  e = t.Timed(CallKind::kFree, [&] { return t.cuda->Free(ptr); });
  return t.Check("sample.free_ok", e == CudaError::kSuccess) && ok;
}

}  // namespace

WorkloadShape AllocFanInShape() {
  WorkloadShape shape;
  shape.slots = 4;
  shape.threads = 1;
  shape.capacity = 5 * kGiB;
  shape.limit = [](Rng&) { return Bytes{512 * kMiB}; };
  shape.program = AllocWalk;
  return shape;
}

WorkloadShape AllocSharedLinkShape() {
  WorkloadShape shape;
  shape.slots = 1;
  shape.threads = 4;
  shape.capacity = 5 * kGiB;
  shape.limit = [](Rng&) { return Bytes{1 * kGiB}; };
  shape.program = SharedLinkMix;
  return shape;
}

WorkloadShape TenantChurnShape() {
  WorkloadShape shape;
  shape.slots = 4;
  shape.threads = 1;
  // Four slots demand about 4 x (640 + 66) MiB on average; 3 GiB keeps a
  // steady share of first allocations suspended until a close, far enough
  // from half that the malloc median stays put.
  shape.capacity = 3 * kGiB;
  shape.limit = [](Rng& rng) {
    return static_cast<Bytes>(256 * (1 + rng.UniformBelow(4))) * kMiB;
  };
  shape.program = SampleProgram;
  return shape;
}

// --- Node --------------------------------------------------------------------

namespace {

convgpu::cudasim::GpuDeviceOptions DeviceOptions() {
  convgpu::cudasim::GpuDeviceOptions options;
  // No modeled driver busy-wait: the benchmark measures middleware cost.
  options.latency = convgpu::cudasim::ApiLatencyModel::None();
  return options;
}

/// A K20m with twice the daemon's capacity. The wrapper reports a process
/// exit before the driver context is torn down, so a grant the exit makes
/// possible can reach the device while the old context still holds its
/// 66 MiB; with the device exactly as large as the capacity that race (and
/// first-fit fragmentation) fails granted allocations, which would measure
/// the simulator rather than the middleware.
convgpu::cudasim::DeviceProp DeviceFor(Bytes capacity) {
  convgpu::cudasim::DeviceProp prop = convgpu::cudasim::TeslaK20m();
  prop.total_global_mem = std::max(prop.total_global_mem, 2 * capacity);
  return prop;
}

}  // namespace

Node::Node(const Options& options, WorkloadShape shape, int incarnation)
    : options_(options),
      shape_(std::move(shape)),
      base_dir_(options.run_dir + "/n" + std::to_string(::getpid()) + "-" +
                std::to_string(incarnation)),
      device_(0, DeviceFor(shape_.capacity), DeviceOptions()) {
  engine_.images().Put(
      convgpu::containersim::ImageRegistry::CudaImage("cuda-app", "8.0"));
}

Node::~Node() {
  Stop();
  // Engine threads are joined by Stop(); the daemon goes before the files.
  daemon_.reset();
  std::error_code ec;
  std::filesystem::remove_all(base_dir_, ec);
}

convgpu::Status Node::Start() {
  DaemonConfig config;
  config.binary = options_.daemon_binary;
  config.base_dir = base_dir_ + "/d";
  config.capacity = shape_.capacity;
  config.policy = kPolicy;
  auto daemon = Daemon::Spawn(std::move(config));
  if (!daemon.ok()) return daemon.status();
  daemon_ = std::move(*daemon);

  convgpu::NvDockerPlugin::Options plugin_options;
  // Shared by every run: the volume names repeat (see SlotLoop).
  plugin_options.volume_root = options_.run_dir + "/volumes";
  plugin_options.scheduler_socket = daemon_->main_socket();
  plugin_ = std::make_unique<convgpu::NvDockerPlugin>(plugin_options);
  convgpu::containersim::VolumePlugin* plugin = plugin_.get();
  if (Tracer::Get().installed()) {
    traced_plugin_ = std::make_unique<TracedPlugin>(
        plugin_.get(), [this](const std::string& key) {
          auto stats = daemon_->Stats();
          if (!stats.ok()) return;
          for (const auto& c : stats->containers) {
            if (c.container_id != key) continue;
            std::lock_guard lock(records_mutex_);
            suspend_probes_.push_back(c.suspend_episodes > 0 ? 1.0 : 0.0);
          }
        });
    plugin = traced_plugin_.get();
  }
  engine_.RegisterVolumePlugin("nvidia-docker", plugin);

  convgpu::NvDocker::Options nvdocker_options;
  nvdocker_options.engine = &engine_;
  nvdocker_options.scheduler_socket = daemon_->main_socket();
  nvdocker_ = std::make_unique<convgpu::NvDocker>(nvdocker_options);

  for (int slot = 0; slot < shape_.slots; ++slot) {
    slots_.emplace_back([this, slot] { SlotLoop(slot); });
  }
  std::unique_lock lock(gate_mutex_);
  if (!gate_cv_.wait_for(lock, std::chrono::seconds(60),
                         [&] { return ready_ >= shape_.slots; })) {
    return convgpu::UnavailableError("first wave never became ready");
  }
  std::lock_guard checks_lock(checks_mutex_);
  if (checks_.failed > 0) {
    return convgpu::UnavailableError("first wave failed: " +
                                     checks_.diagnostics.front());
  }
  return convgpu::Status::Ok();
}

void Node::Go(bool run) {
  {
    std::lock_guard lock(gate_mutex_);
    released_ = true;
    run_ = run;
  }
  if (!run) stop_ = true;
  gate_cv_.notify_all();
}

void Node::Stop() {
  stop_ = true;
  {
    // Never leave a gated first wave waiting.
    std::lock_guard lock(gate_mutex_);
    released_ = true;
  }
  gate_cv_.notify_all();
  for (auto& slot : slots_) {
    if (slot.joinable()) slot.join();
  }
}

void Node::FailSlot(const std::string& why) {
  {
    std::lock_guard lock(checks_mutex_);
    ++checks_.failed;
    checks_.correct = false;
    checks_.diagnostics.push_back(why);
  }
  std::lock_guard lock(gate_mutex_);
  ++ready_;
  gate_cv_.notify_all();
}

void Node::SlotLoop(int slot) {
  // Each slot cycles through a fixed ring of container names, as a host
  // restarting named services would. Reuse keeps the daemon's per-container
  // directories and the plugin's volumes to a few hundred, instead of one
  // new directory pair per container: creating and deleting tens of
  // thousands of directories per run made the filesystem, not the
  // middleware, set the pace of every later run.
  constexpr int kNamesPerSlot = 32;
  Rng rng(options_.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(slot));
  for (int n = 0;; ++n) {
    if (n > 0 && stop_.load()) break;
    const Bytes limit = shape_.limit(rng);
    const std::uint64_t seq = container_seq_.fetch_add(1);
    std::uint64_t mix = options_.seed ^ (seq * 0xD1B54A32D192ED03ULL);
    const std::uint64_t seed = convgpu::SplitMix64(mix);
    const bool gated = n == 0;
    const std::string name =
        "s" + std::to_string(slot) + "-" + std::to_string(n % kNamesPerSlot);

    ContainerRecord record;
    record.run_s = NowSeconds();
    convgpu::Result<convgpu::RunResult> run = convgpu::InternalError("not run");
    for (int attempt = 0;; ++attempt) {
      convgpu::RunRequest request;
      request.image = "cuda-app";
      request.name = name;
      request.nvidia_memory = std::to_string(limit / kMiB) + "MiB";
      request.entrypoint = [this, limit, seed, gated](
                               convgpu::containersim::ContainerContext& context) {
        return Entrypoint(context, limit, seed, gated);
      };
      {
        Tracer::Scope span(SpanName::kNvDockerRun);
        run = nvdocker_->Run(std::move(request));
      }
      // The close of this name's previous holder (sent 32 containers ago)
      // may in principle still be in flight; wait for it rather than fail.
      if (run.ok() || run.status().message().find("already registered") ==
                          std::string::npos ||
          attempt >= 5000) {
        break;
      }
      ++register_retries_;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    record.started_s = NowSeconds();
    if (!run.ok()) {
      if (gated) {
        FailSlot("nvidia-docker run failed: " + run.status().ToString());
      } else {
        std::lock_guard lock(checks_mutex_);
        ++checks_.failed;
        checks_.correct = false;
        checks_.diagnostics.push_back("nvidia-docker run failed: " +
                                      run.status().ToString());
      }
      break;
    }
    auto code = engine_.Wait(run->container_id);
    record.exited_s = NowSeconds();
    record.exit_code = code.ok() ? *code : -1;
    (void)engine_.Remove(run->container_id);

    bool counted = true;
    {
      std::lock_guard lock(gate_mutex_);
      counted = run_;
    }
    if (!counted) break;
    {
      std::lock_guard lock(checks_mutex_);
      checks_.Check("container.exit_zero", record.exit_code == 0);
    }
    std::lock_guard lock(records_mutex_);
    records_.push_back(record);
  }
}

int Node::Entrypoint(convgpu::containersim::ContainerContext& context,
                     Bytes limit, std::uint64_t seed, bool gated) {
  const auto socket = context.Env("CONVGPU_SOCKET");
  const auto key = context.Env("CONVGPU_CONTAINER_ID");
  auto signal_ready = [&] {
    std::lock_guard lock(gate_mutex_);
    ++ready_;
    gate_cv_.notify_all();
  };
  if (!socket || !key) {
    if (gated) signal_ready();
    return 2;
  }

  convgpu::SocketSchedulerLinkOptions link_options;
  link_options.container_id = *key;
  link_options.pid = context.pid();
  link_options.auto_reconnect = true;
  auto connected = [&] {
    Tracer::Scope span(SpanName::kLinkConnect);
    return convgpu::SocketSchedulerLink::Connect(*socket, link_options);
  }();
  if (!connected.ok()) {
    if (gated) signal_ready();
    return 3;
  }
  convgpu::SocketSchedulerLink& link = **connected;
  ++links_;
  if (link.wire_codec_name() == "binary") ++binary_links_;

  const bool traced = Tracer::Get().installed();
  cs::SimCudaApi sim(&device_, context.pid());
  TracedCudaApi traced_cuda(&sim);
  TracedLink traced_link(&link, /*core=*/false);
  convgpu::WrapperCore wrapper(
      traced ? static_cast<cs::CudaApi*>(&traced_cuda) : &sim,
      traced ? static_cast<convgpu::SchedulerLink*>(&traced_link) : &link,
      context.pid());
  link.SetSnapshotProvider([&wrapper] { return wrapper.LiveAllocations(); });
  wrapper.RegisterFatBinary();

  bool run = true;
  if (gated) {
    std::unique_lock lock(gate_mutex_);
    ++ready_;
    gate_cv_.notify_all();
    gate_cv_.wait(lock, [&] { return released_; });
    run = run_;
  }

  bool ok = true;
  if (run) {
    auto make_context = [&](int thread) {
      TenantContext t;
      t.cuda = &wrapper;
      t.limit = limit;
      t.rng = Rng(seed + static_cast<std::uint64_t>(thread));
      t.stop = &stop_;
      t.log = &calls_;
      return t;
    };
    auto run_tenant = [&](int thread) {
      TenantContext t = make_context(thread);
      const bool tenant_ok = shape_.program(t);
      std::lock_guard lock(checks_mutex_);
      for (const auto& [name, counts] : t.checks) {
        checks_.checks[name].first += counts.first;
        checks_.checks[name].second += counts.second;
      }
      return tenant_ok;
    };
    if (shape_.threads == 1) {
      ok = run_tenant(0);
    } else {
      std::vector<std::thread> threads;
      std::atomic<bool> all_ok{true};
      for (int i = 0; i < shape_.threads; ++i) {
        threads.emplace_back([&, i] {
          if (!run_tenant(i)) all_ok = false;
        });
      }
      for (auto& thread : threads) thread.join();
      ok = all_ok;
    }
  }
  {
    Tracer::Scope span(SpanName::kWrapperExit);
    wrapper.UnregisterFatBinary();
  }
  reconnects_ += link.reconnect_count();
  link.SetSnapshotProvider(nullptr);
  return ok ? 0 : 1;
}

std::vector<ContainerRecord> Node::containers() const {
  std::lock_guard lock(records_mutex_);
  return records_;
}

std::vector<double> Node::suspend_probes() const {
  std::lock_guard lock(records_mutex_);
  return suspend_probes_;
}

void Node::CheckEndState(RunResult& result) {
  convgpu::Result<convgpu::protocol::StatsReply> stats =
      convgpu::UnavailableError("no stats");
  const double deadline = NowSeconds() + 10.0;
  do {
    stats = daemon_->Stats();
    if (stats.ok() && stats->containers.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (NowSeconds() < deadline);
  result.Check("end.daemon_stats", stats.ok());
  if (stats.ok()) {
    result.Check("end.zero_containers", stats->containers.empty());
    result.Check("end.free_pool_is_capacity", stats->free_pool == stats->capacity);
    result.Check("end.no_kicked_connections", stats->kicked_connections == 0);
  }
  const auto device = device_.MemGetInfo();
  result.Check("end.device_all_free", device.free == device.total);
}

}  // namespace convbench
