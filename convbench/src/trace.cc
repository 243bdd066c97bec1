#include "trace.h"

#include <cstdio>
#include <future>

#include "bench.h"
#include "convgpu/nvdocker.h"

namespace convbench {

namespace cs = convgpu::cudasim;
namespace proto = convgpu::protocol;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kWrapperMalloc: return "wrapper.malloc";
    case SpanName::kWrapperFree: return "wrapper.free";
    case SpanName::kWrapperMemGetInfo: return "wrapper.mem_get_info";
    case SpanName::kWrapperExit: return "wrapper.exit";
    case SpanName::kLinkConnect: return "scheduler_link.connect";
    case SpanName::kLinkCallAlloc: return "scheduler_link.call.alloc";
    case SpanName::kLinkCallMemInfo: return "scheduler_link.call.mem_get_info";
    case SpanName::kLinkCallOther: return "scheduler_link.call.other";
    case SpanName::kLinkNotify: return "scheduler_link.notify";
    case SpanName::kCudaMalloc: return "cudasim.malloc";
    case SpanName::kCudaFree: return "cudasim.free";
    case SpanName::kCudaOther: return "cudasim.other";
    case SpanName::kNvDockerRun: return "nvdocker.run";
    case SpanName::kPluginMount: return "plugin.mount";
    case SpanName::kPluginUnmount: return "plugin.unmount";
    case SpanName::kCoreCallAlloc: return "scheduler_core.call.alloc_request";
    case SpanName::kCoreCallMemInfo: return "scheduler_core.call.mem_get_info";
    case SpanName::kCoreNotify: return "scheduler_core.notify";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {

constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);
constexpr std::size_t kValueNames = static_cast<std::size_t>(ValueName::kCount);
/// Raw spans kept per thread for the dump; aggregates see every span.
constexpr std::size_t kDumpSpansPerThread = 4096;
constexpr std::uint32_t kNoParent = UINT32_MAX;

std::atomic<std::uint64_t> g_next_op{1};

}  // namespace

struct Tracer::ThreadBuffer {
  struct Span {
    std::uint64_t op = 0;
    SpanName name = SpanName::kCount;
    std::uint32_t parent = kNoParent;
    double start_us = 0, end_us = 0, self_us = 0;
  };
  struct Frame {
    SpanName name;
    std::uint64_t op;
    double start_us;
    double child_us = 0;
  };
  std::uint32_t thread = 0;
  std::vector<Frame> stack;
  std::vector<Span> spans;
  std::array<Aggregate, kSpanNames> aggregates;
  std::array<std::vector<double>, kValueNames> values;
};

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard lock(mutex_);
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    local = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *local;
}

Tracer::Scope::Scope(SpanName name) {
  Tracer& tracer = Get();
  if (!tracer.recording()) return;
  ThreadBuffer& local = tracer.Local();
  const std::uint64_t op = local.stack.empty()
                               ? g_next_op.fetch_add(1, std::memory_order_relaxed)
                               : local.stack.back().op;
  local.stack.push_back({name, op, NowSeconds() * 1e6});
  active_ = true;
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  ThreadBuffer& local = Get().Local();
  const ThreadBuffer::Frame frame = local.stack.back();
  local.stack.pop_back();
  const double end_us = NowSeconds() * 1e6;
  const double duration = end_us - frame.start_us;
  const double self = duration - frame.child_us;
  if (!local.stack.empty()) local.stack.back().child_us += duration;
  auto& aggregate = local.aggregates[static_cast<std::size_t>(frame.name)];
  aggregate.duration_us.push_back(duration);
  aggregate.self_us.push_back(self);
  if (local.spans.size() < kDumpSpansPerThread) {
    // Parents close after their children, so a child names its parent by
    // the parent's span name; the shared operation id ties them together.
    ThreadBuffer::Span span;
    span.op = frame.op;
    span.name = frame.name;
    span.parent = local.stack.empty()
                      ? kNoParent
                      : static_cast<std::uint32_t>(local.stack.back().name);
    span.start_us = frame.start_us;
    span.end_us = end_us;
    span.self_us = self;
    local.spans.push_back(span);
  }
}

void Tracer::RecordValue(ValueName name, double value) {
  if (!recording()) return;
  Local().values[static_cast<std::size_t>(name)].push_back(value);
}

std::array<Tracer::Aggregate, kSpanNames> Tracer::Aggregates() const {
  std::array<Aggregate, kSpanNames> merged;
  std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      const auto& from = buffer->aggregates[i];
      auto& to = merged[i];
      to.duration_us.insert(to.duration_us.end(), from.duration_us.begin(),
                            from.duration_us.end());
      to.self_us.insert(to.self_us.end(), from.self_us.begin(),
                        from.self_us.end());
    }
  }
  return merged;
}

std::vector<double> Tracer::Values(ValueName name) const {
  std::vector<double> merged;
  std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    const auto& from = buffer->values[static_cast<std::size_t>(name)];
    merged.insert(merged.end(), from.begin(), from.end());
  }
  return merged;
}

std::size_t Tracer::Dump(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return 0;
  std::fprintf(out, "thread\top\tname\tparent\tstart_us\tend_us\tself_us\n");
  std::size_t written = 0;
  std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const auto& span : buffer->spans) {
      std::fprintf(out, "%u\t%llu\t%s\t%s\t%.3f\t%.3f\t%.3f\n", buffer->thread,
                   static_cast<unsigned long long>(span.op),
                   SpanNameString(span.name),
                   span.parent == kNoParent
                       ? "-"
                       : SpanNameString(static_cast<SpanName>(span.parent)),
                   span.start_us, span.end_us, span.self_us);
      ++written;
    }
  }
  std::fclose(out);
  return written;
}

// --- TracedCudaApi -----------------------------------------------------------

using CudaError = cs::CudaError;

CudaError TracedCudaApi::Malloc(cs::DevicePtr* p, std::size_t size) {
  Tracer::Scope span(SpanName::kCudaMalloc);
  return inner_->Malloc(p, size);
}
CudaError TracedCudaApi::MallocPitch(cs::DevicePtr* p, std::size_t* pitch,
                                     std::size_t w, std::size_t h) {
  Tracer::Scope span(SpanName::kCudaMalloc);
  return inner_->MallocPitch(p, pitch, w, h);
}
CudaError TracedCudaApi::Malloc3D(cs::PitchedPtr* p, const cs::Extent& e) {
  Tracer::Scope span(SpanName::kCudaMalloc);
  return inner_->Malloc3D(p, e);
}
CudaError TracedCudaApi::MallocManaged(cs::DevicePtr* p, std::size_t size) {
  Tracer::Scope span(SpanName::kCudaMalloc);
  return inner_->MallocManaged(p, size);
}
CudaError TracedCudaApi::Free(cs::DevicePtr p) {
  Tracer::Scope span(SpanName::kCudaFree);
  return inner_->Free(p);
}
CudaError TracedCudaApi::MemGetInfo(std::size_t* free_bytes, std::size_t* total) {
  Tracer::Scope span(SpanName::kCudaOther);
  return inner_->MemGetInfo(free_bytes, total);
}
CudaError TracedCudaApi::GetDeviceProperties(cs::DeviceProp* prop, int device) {
  Tracer::Scope span(SpanName::kCudaOther);
  return inner_->GetDeviceProperties(prop, device);
}
CudaError TracedCudaApi::MemcpyHostToDevice(cs::DevicePtr dst, const void* src,
                                            std::size_t count) {
  Tracer::Scope span(SpanName::kCudaOther);
  return inner_->MemcpyHostToDevice(dst, src, count);
}
CudaError TracedCudaApi::MemcpyDeviceToHost(void* dst, cs::DevicePtr src,
                                            std::size_t count) {
  Tracer::Scope span(SpanName::kCudaOther);
  return inner_->MemcpyDeviceToHost(dst, src, count);
}
CudaError TracedCudaApi::MemcpyDeviceToDevice(cs::DevicePtr dst, cs::DevicePtr src,
                                              std::size_t count) {
  Tracer::Scope span(SpanName::kCudaOther);
  return inner_->MemcpyDeviceToDevice(dst, src, count);
}
CudaError TracedCudaApi::LaunchKernel(const cs::KernelLaunch& launch) {
  Tracer::Scope span(SpanName::kCudaOther);
  return inner_->LaunchKernel(launch);
}
CudaError TracedCudaApi::DeviceSynchronize() {
  Tracer::Scope span(SpanName::kCudaOther);
  return inner_->DeviceSynchronize();
}
CudaError TracedCudaApi::StreamCreate(cs::StreamId* stream) {
  Tracer::Scope span(SpanName::kCudaOther);
  return inner_->StreamCreate(stream);
}
CudaError TracedCudaApi::StreamDestroy(cs::StreamId stream) {
  Tracer::Scope span(SpanName::kCudaOther);
  return inner_->StreamDestroy(stream);
}
void TracedCudaApi::RegisterFatBinary() { inner_->RegisterFatBinary(); }
void TracedCudaApi::UnregisterFatBinary() {
  Tracer::Scope span(SpanName::kCudaOther);
  inner_->UnregisterFatBinary();
}
CudaError TracedCudaApi::GetLastError() { return inner_->GetLastError(); }

// --- MessageSampler ----------------------------------------------------------

MessageSampler& MessageSampler::Get() {
  static MessageSampler sampler;
  return sampler;
}

void MessageSampler::Offer(const proto::Message& message) {
  const std::size_t type = message.index();
  std::lock_guard lock(mutex_);
  ++counts_[type];
  if (samples_[type].size() < kPerType) samples_[type].push_back(message);
}

std::vector<proto::Message> MessageSampler::Samples() const {
  std::lock_guard lock(mutex_);
  std::vector<proto::Message> all;
  for (const auto& of_type : samples_) {
    all.insert(all.end(), of_type.begin(), of_type.end());
  }
  return all;
}

std::array<std::uint64_t, std::variant_size_v<proto::Message>>
MessageSampler::Counts() const {
  std::lock_guard lock(mutex_);
  return counts_;
}

// --- TracedLink --------------------------------------------------------------

convgpu::SchedulerLink::ReplyFuture TracedLink::AsyncCall(
    const proto::Message& request) {
  const bool recording = Tracer::Get().recording();
  if (!recording) return inner_->AsyncCall(request);
  const bool alloc = std::holds_alternative<proto::AllocRequest>(request);
  const bool mem_info = std::holds_alternative<proto::MemGetInfoRequest>(request);
  const SpanName name = core_ ? (alloc ? SpanName::kCoreCallAlloc
                                 : mem_info ? SpanName::kCoreCallMemInfo
                                            : SpanName::kLinkCallOther)
                              : (alloc ? SpanName::kLinkCallAlloc
                                 : mem_info ? SpanName::kLinkCallMemInfo
                                            : SpanName::kLinkCallOther);
  if (!core_) MessageSampler::Get().Offer(request);
  const double start = NowSeconds();
  convgpu::Result<proto::Message> reply = [&] {
    Tracer::Scope span(name);
    auto pending = inner_->AsyncCall(request);
    if (socket_ != nullptr) {
      Tracer::Get().RecordValue(ValueName::kOutstanding,
                                static_cast<double>(socket_->outstanding_calls()));
    }
    return pending.get();
  }();
  if (!core_ && alloc && first_alloc_.exchange(false)) {
    Tracer::Get().RecordValue(ValueName::kGrantWaitUs,
                              (NowSeconds() - start) * 1e6);
  }
  if (!core_ && reply.ok()) MessageSampler::Get().Offer(*reply);
  std::promise<convgpu::Result<proto::Message>> ready;
  ready.set_value(std::move(reply));
  return ready.get_future();
}

convgpu::Status TracedLink::Notify(const proto::Message& message) {
  if (!Tracer::Get().recording()) return inner_->Notify(message);
  if (!core_) MessageSampler::Get().Offer(message);
  Tracer::Scope span(core_ ? SpanName::kCoreNotify : SpanName::kLinkNotify);
  return inner_->Notify(message);
}

// --- TracedPlugin ------------------------------------------------------------

convgpu::Result<std::string> TracedPlugin::Mount(const std::string& volume_name,
                                                 const std::string& container_id) {
  Tracer::Scope span(SpanName::kPluginMount);
  return inner_->Mount(volume_name, container_id);
}

void TracedPlugin::Unmount(const std::string& volume_name,
                           const std::string& container_id) {
  const std::string_view prefix = convgpu::kExitVolumePrefix;
  if (probe_ && Tracer::Get().recording() && volume_name.starts_with(prefix)) {
    probe_(volume_name.substr(prefix.size()));
  }
  Tracer::Scope span(SpanName::kPluginUnmount);
  inner_->Unmount(volume_name, container_id);
}

}  // namespace convbench
