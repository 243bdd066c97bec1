// convbench — the repository benchmark.
//
//   convbench --workload NAME --seed N --seconds S --trace 0|1
//             [--run-dir DIR] [--daemon PATH]
//
// Workloads: alloc_fanin, alloc_shared_link, tenant_churn (see
// convbench/README.md); every run also runs the paper's Table IV/V
// experiment in virtual time. Prints a report, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// non-zero when any output check failed.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <thread>

#include "bench.h"
#include "common/log.h"
#include "convgpu/codec.h"
#include "convgpu/scheduler_core.h"
#include "convgpu/wrapper_core.h"
#include "cudasim/sim_cuda_api.h"
#include "json/json.h"
#include "node.h"
#include "trace.h"
#include "workload/des.h"

namespace convbench {
namespace {

namespace cs = convgpu::cudasim;
namespace proto = convgpu::protocol;

constexpr int kSetups = 9;          // set-ups per run; setup_s is their median
constexpr int kWindows = 10;        // measurement windows per run
constexpr int kDesReplicas = 1024;   // cloud simulations averaged per run
constexpr double kTraceToggleS = 0.25;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "alloc_fanin", "alloc_shared_link", "tenant_churn"};
  return names;
}

WorkloadShape ShapeFor(const std::string& name) {
  if (name == "alloc_fanin") return AllocFanInShape();
  if (name == "alloc_shared_link") return AllocSharedLinkShape();
  return TenantChurnShape();
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// What the live node measured between `begin` and `end`.
struct LiveFigures {
  double calls_per_s = 0;
  double malloc_p50 = 0, malloc_p99 = 0, info_p50 = 0, info_p99 = 0;
  double containers_per_s = 0;
  double start_p50_us = 0, turnaround_p50_ms = 0, turnaround_p99_ms = 0;
  std::vector<double> malloc_all, info_all;
  std::vector<double> window_rates;  // calls/s of each window, in order
};

/// Samples bucketed into the run's measurement windows. A figure is the
/// median over windows of that window's own figure, so a disturbance that
/// covers less than half of the run does not move it.
class Windows {
 public:
  Windows(double begin, double end) : begin_(begin), end_(end), buckets_(kWindows) {}

  bool Add(double t, double value) {
    if (t < begin_ || t >= end_) return false;
    const auto w = std::min<std::size_t>(
        kWindows - 1,
        static_cast<std::size_t>((t - begin_) / (end_ - begin_) * kWindows));
    buckets_[w].push_back(value);
    return true;
  }
  /// Median over windows of each window's q-quantile. Adjacent windows are
  /// merged until each holds about kMinSamples, so that a p99 still has ten
  /// samples beyond it; a sparse metric ends up pooled over the whole run.
  [[nodiscard]] double MedianOf(double q) const {
    constexpr std::size_t kMinSamples = 1000;
    std::size_t total = 0;
    for (const auto& bucket : buckets_) total += bucket.size();
    const std::size_t groups = std::clamp<std::size_t>(total / kMinSamples, 1, kWindows);
    std::vector<double> per_group;
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<double> merged;
      for (std::size_t w = g * kWindows / groups; w < (g + 1) * kWindows / groups; ++w) {
        merged.insert(merged.end(), buckets_[w].begin(), buckets_[w].end());
      }
      if (!merged.empty()) per_group.push_back(Percentile(std::move(merged), q));
    }
    return Median(per_group);
  }
  [[nodiscard]] std::vector<double> Rates() const {
    std::vector<double> rates;
    const double width = (end_ - begin_) / kWindows;
    for (const auto& bucket : buckets_) {
      rates.push_back(static_cast<double>(bucket.size()) / width);
    }
    return rates;
  }
  [[nodiscard]] std::vector<double> All() const {
    std::vector<double> all;
    for (const auto& bucket : buckets_) all.insert(all.end(), bucket.begin(), bucket.end());
    return all;
  }

 private:
  double begin_, end_;
  std::vector<std::vector<double>> buckets_;
};

LiveFigures Summarize(const std::vector<CallSample>& calls,
                      const std::vector<ContainerRecord>& containers,
                      double begin, double end) {
  Windows all_calls(begin, end), mallocs(begin, end), infos(begin, end);
  for (const auto& call : calls) {
    all_calls.Add(call.end_s, call.us);
    if (call.kind == CallKind::kMalloc) mallocs.Add(call.end_s, call.us);
    if (call.kind == CallKind::kMemGetInfo) infos.Add(call.end_s, call.us);
  }
  Windows exits(begin, end), starts(begin, end);
  for (const auto& c : containers) {
    exits.Add(c.exited_s, (c.exited_s - c.run_s) * 1e3);
    starts.Add(c.run_s, (c.started_s - c.run_s) * 1e6);
  }
  LiveFigures f;
  f.window_rates = all_calls.Rates();
  f.calls_per_s = Median(f.window_rates);
  f.malloc_all = mallocs.All();
  f.info_all = infos.All();
  f.malloc_p50 = mallocs.MedianOf(0.50);
  f.malloc_p99 = mallocs.MedianOf(0.99);
  f.info_p50 = infos.MedianOf(0.50);
  f.info_p99 = infos.MedianOf(0.99);
  f.containers_per_s = Median(exits.Rates());
  f.start_p50_us = starts.MedianOf(0.50);
  f.turnaround_p50_ms = exits.MedianOf(0.50);
  f.turnaround_p99_ms = exits.MedianOf(0.99);
  return f;
}

/// The paper's Table IV/V experiment in virtual time (38 Table III
/// containers, one every 5 s, one 5 GB GPU), averaged over replicas whose
/// seeds derive from the benchmark seed. It runs as the one-GPU case of
/// workload::RunMultiGpuSimulation: the same SchedulerCore, container types
/// and arrivals as workload::RunCloudSimulation, whose volume plugin writes
/// under /tmp — outside the checkout a benchmark run may write to.
struct DesFigures {
  double makespan_s = 0, suspended_mean_s = 0, suspended_p95_s = 0;
  double suspend_episodes = 0;
};

DesFigures RunDes(const Options& options, RunResult& result) {
  std::vector<double> makespan, mean, p95, episodes;
  std::uint64_t state = options.seed ^ 0xC0FFEEULL;
  for (int r = 0; r < kDesReplicas; ++r) {
    convgpu::workload::MultiGpuSimConfig config;
    config.num_containers = 38;
    config.num_gpus = 1;
    config.spawn_interval = convgpu::Seconds(5);
    config.seed = convgpu::SplitMix64(state);
    config.policy = kPolicy;
    auto sim = convgpu::workload::RunMultiGpuSimulation(config);
    result.Check("des.simulation_ok", sim.ok());
    if (!sim.ok()) continue;
    bool all_done = sim->containers.size() == 38;
    for (const auto& c : sim->containers) all_done &= !c.failed;
    result.Check("des.all_containers_finished", all_done);
    makespan.push_back(convgpu::ToSeconds(sim->finished_time));
    mean.push_back(convgpu::ToSeconds(sim->avg_suspended_time));
    p95.push_back(convgpu::ToSeconds(sim->p95_suspended_time));
    episodes.push_back(static_cast<double>(sim->total_suspend_episodes));
  }
  return {Mean(makespan), Mean(mean), Mean(p95), Mean(episodes)};
}

/// Encode/decode cost of the workload's own messages with the negotiated
/// binary codec, per message type, plus the traffic-weighted mix.
void TimeCodec(Metrics& out) {
  const auto samples = MessageSampler::Get().Samples();
  const auto counts = MessageSampler::Get().Counts();
  const auto& codec = proto::binary_codec();
  double weighted_encode = 0, weighted_decode = 0, weight = 0;
  std::map<std::size_t, std::vector<const proto::Message*>> by_type;
  for (const auto& message : samples) by_type[message.index()].push_back(&message);
  for (const auto& [type, messages] : by_type) {
    std::vector<std::string> payloads;
    for (const auto* message : messages) {
      payloads.push_back(proto::EncodePayload(codec, *message, 4242));
    }
    std::string scratch;
    std::size_t sink = 0;
    constexpr int kRounds = 2000;
    const double e0 = NowSeconds();
    for (int round = 0; round < kRounds; ++round) {
      for (const auto* message : messages) {
        codec.Encode(*message, 4242, scratch);
        sink += scratch.size();
      }
    }
    const double e1 = NowSeconds();
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& payload : payloads) {
        sink += proto::DecodePayload(payload).ok() ? 1 : 0;
      }
    }
    const double e2 = NowSeconds();
    if (sink == 0) std::fputs("codec timing produced nothing\n", stderr);
    const double n = static_cast<double>(kRounds) * static_cast<double>(messages.size());
    const double encode_ns = (e1 - e0) * 1e9 / n;
    const double decode_ns = (e2 - e1) * 1e9 / n;
    // Per-type figures for the data-plane messages every workload sends;
    // the mix below covers every type sampled.
    const std::string name(proto::TypeName(*messages.front()));
    static const std::set<std::string> kPerType = {
        "alloc_request", "alloc_reply", "alloc_commit",
        "free",          "mem_get_info", "mem_info_reply"};
    if (kPerType.count(name) > 0) {
      out["codec.encode_ns." + name] = {encode_ns, "ns"};
      out["codec.decode_ns." + name] = {decode_ns, "ns"};
    }
    const auto c = static_cast<double>(counts[type]);
    weighted_encode += c * encode_ns;
    weighted_decode += c * decode_ns;
    weight += c;
  }
  if (weight > 0) {
    out["codec.encode_ns.mix"] = {weighted_encode / weight, "ns"};
    out["codec.decode_ns.mix"] = {weighted_decode / weight, "ns"};
  }
}

/// Replays the workload's seeded tenant programs in-process through
/// DirectSchedulerLink: the scheduler core's own cost, without transport
/// or daemon. Stops after a fixed amount of work.
void ReplayCore(const Options& options, const WorkloadShape& shape,
                RunResult& result) {
  convgpu::SchedulerOptions core_options;
  core_options.capacity = shape.capacity;
  core_options.policy = kPolicy;
  convgpu::SchedulerCore core(core_options);
  cs::GpuDevice device(0, cs::TeslaK20m());
  convgpu::Rng rng(options.seed ^ 0xBADC0DEULL);
  constexpr int kMaxContainers = 400;
  const double deadline = NowSeconds() + 2.0;
  for (int k = 0; k < kMaxContainers && NowSeconds() < deadline; ++k) {
    const std::string id = "replay" + std::to_string(k);
    const convgpu::Bytes limit = shape.limit(rng);
    if (!core.RegisterContainer(id, limit).ok()) {
      result.Check("replay.register", false);
      continue;
    }
    convgpu::DirectSchedulerLink direct(&core, id);
    TracedLink traced(&direct, /*core=*/true);
    const convgpu::Pid pid = 100000 + k;
    cs::SimCudaApi sim(&device, pid);
    convgpu::WrapperCore wrapper(&sim, &traced, pid);
    for (int thread = 0; thread < shape.threads; ++thread) {
      TenantContext t;
      t.cuda = &wrapper;
      t.limit = limit;
      t.rng = convgpu::Rng(rng());
      result.Check("replay.program", shape.program(t));
    }
    wrapper.UnregisterFatBinary();
    result.Check("replay.close", core.ContainerClose(id).ok());
  }
}

std::string Fixed(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

void PrintMetrics(const char* kind, const Metrics& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("%s %-44s %16.4f %s\n", kind, name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string JsonLine(const RunResult& result, const Metrics& metrics) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + Fixed(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  return line;
}

void WriteResultFile(const Options& options, const RunResult& result) {
  const std::string dir = options.run_dir + "/results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  convgpu::json::Json doc;
  convgpu::json::Json env;
  for (const auto& [key, value] : result.env) env[key] = value;
  doc["env"] = env;
  doc["correct"] = result.correct;
  doc["attempted"] = static_cast<long long>(result.attempted);
  doc["failed"] = static_cast<long long>(result.failed);
  for (const char* kind : {"end_to_end", "per_layer"}) {
    const Metrics& metrics =
        std::strcmp(kind, "end_to_end") == 0 ? result.end_to_end : result.per_layer;
    convgpu::json::Json section;
    for (const auto& [name, metric] : metrics) {
      convgpu::json::Json m;
      m["value"] = metric.value;
      m["unit"] = metric.unit;
      section[name] = m;
    }
    doc[kind] = section;
  }
  convgpu::json::Json checks;
  for (const auto& [name, counts] : result.checks) {
    convgpu::json::Json c;
    c["ran"] = static_cast<long long>(counts.first);
    c["failed"] = static_cast<long long>(counts.second);
    checks[name] = c;
  }
  doc["checks"] = checks;
  const std::string path = dir + "/" + options.workload + "-s" +
                           std::to_string(options.seed) + "-t" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream(path) << doc.Dump(2) << "\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: convbench --workload alloc_fanin|alloc_shared_link|"
               "tenant_churn --seed N --seconds S --trace 0|1 "
               "[--run-dir DIR] [--daemon PATH]\n");
  return 2;
}

int Run(int argc, char** argv) {
  Options options;
  const std::string self = argv[0];
  options.daemon_binary =
      std::filesystem::path(self).parent_path().string() + "/convgpu-scheduler";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::stoull(value);
    else if (arg == "--seconds") options.seconds = std::stod(value);
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--run-dir") options.run_dir = value;
    else if (arg == "--daemon") options.daemon_binary = value;
    else return Usage();
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end() ||
      options.seconds <= 0) {
    return Usage();
  }
  convgpu::SetLogLevel(convgpu::LogLevel::kWarn);
  // A hung run ends by SIGALRM (no result printed); the daemon follows via
  // its parent-death signal.
  ::alarm(static_cast<unsigned>(options.seconds) + 120);
  std::filesystem::create_directories(options.run_dir);

  RunResult result;
  const WorkloadShape shape = ShapeFor(options.workload);
  Tracer& tracer = Tracer::Get();
  if (options.trace) tracer.Install();

  std::printf("convbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  // --- Set-up, several times; the last node is the one measured. ---------
  std::vector<double> setups;
  std::unique_ptr<Node> node;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSeconds();
    node = std::make_unique<Node>(options, shape, i);
    const convgpu::Status started = node->Start();
    setups.push_back(NowSeconds() - t0);
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", started.ToString().c_str());
      return 1;
    }
    if (i + 1 < kSetups) {
      node->Go(false);
      node.reset();
    }
  }

  // --- Closed-loop measurement. ------------------------------------------
  node->Go(true);
  const double warmup = std::min(1.0, 0.1 * options.seconds);
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  const double begin = NowSeconds();
  const double end = begin + options.seconds;
  const ProcSample proc_begin = node->daemon().Sample();
  // Trace: recording alternates with untraced windows of the same length.
  // In an untraced window the decorators pass straight through, the plugin
  // skips its suspend probe and the daemon is not polled, so the daemon's
  // CPU per op is taken from those windows alone.
  std::vector<std::pair<double, bool>> toggles;  // (time, recording after)
  int max_threads = proc_begin.threads;
  std::uint64_t max_kicked = 0;
  double untraced_cpu_s = 0;
  for (bool on = true; NowSeconds() < end; on = !on) {
    if (options.trace) {
      tracer.SetRecording(on);
      toggles.emplace_back(NowSeconds(), on);
      const double slice_end = std::min(end, NowSeconds() + kTraceToggleS);
      const double cpu_before = on ? 0.0 : node->daemon().Sample().cpu_seconds;
      while (NowSeconds() < slice_end) {
        if (on) {
          max_threads = std::max(max_threads, node->daemon().Sample().threads);
          if (auto stats = node->daemon().Stats(); stats.ok()) {
            max_kicked = std::max(max_kicked, stats->kicked_connections);
          }
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(on ? 0.1 : kTraceToggleS, std::max(0.0, slice_end - NowSeconds()))));
      }
      if (!on) untraced_cpu_s += node->daemon().Sample().cpu_seconds - cpu_before;
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(0.0, end - NowSeconds())));
    }
  }
  const double measured_end = NowSeconds();
  const ProcSample proc_end = node->daemon().Sample();
  tracer.SetRecording(false);
  node->Stop();
  node->CheckEndState(result);

  const auto calls = node->calls().Merged();
  const auto containers = node->containers();
  const LiveFigures live = Summarize(calls, containers, begin, end);
  {
    std::lock_guard lock(node->checks_mutex());
    for (const auto& [name, counts] : node->checks().checks) {
      result.checks[name].first += counts.first;
      result.checks[name].second += counts.second;
    }
    for (const auto& d : node->checks().diagnostics) result.diagnostics.push_back(d);
    if (!node->checks().correct) result.correct = false;
    result.failed += node->checks().failed;
  }

  const double des_begin = NowSeconds();
  const DesFigures des = RunDes(options, result);
  std::printf("cloud simulation: %d replicas in %.3f s\n", kDesReplicas,
              NowSeconds() - des_begin);

  Metrics& e2e = result.end_to_end;
  e2e["setup_s"] = {Median(setups), "s"};
  e2e["daemon_peak_rss_mib"] = {proc_end.peak_rss_mib, "MiB"};
  e2e["cuda_calls_per_s"] = {live.calls_per_s, "1/s"};
  e2e["malloc_p50_us"] = {live.malloc_p50, "us"};
  e2e["malloc_p99_us"] = {live.malloc_p99, "us"};
  e2e["memgetinfo_p50_us"] = {live.info_p50, "us"};
  e2e["memgetinfo_p99_us"] = {live.info_p99, "us"};
  e2e["containers_per_s"] = {live.containers_per_s, "1/s"};
  e2e["turnaround_p50_ms"] = {live.turnaround_p50_ms, "ms"};
  e2e["turnaround_p99_ms"] = {live.turnaround_p99_ms, "ms"};
  e2e["makespan_s"] = {des.makespan_s, "s"};
  e2e["suspended_mean_s"] = {des.suspended_mean_s, "s"};
  e2e["suspended_p95_s"] = {des.suspended_p95_s, "s"};

  std::string windows = "window calls/s:";
  for (double rate : live.window_rates) windows += " " + std::to_string(std::lround(rate));
  result.diagnostics.push_back(windows);
  // Fig. 5's container start. Kept out of the end-to-end set: it is bound by
  // directory and socket creation, which varied by up to 4x between runs
  // on the filesystem it was tuned on.
  result.diagnostics.push_back("start_p50_us (NvDocker::Run): " +
                               std::to_string(live.start_p50_us));
  result.diagnostics.push_back("registration retries (name still closing): " +
                               std::to_string(node->register_retries()));
  result.diagnostics.push_back(TailDiagnostic("malloc", live.malloc_all, "us"));
  result.diagnostics.push_back(TailDiagnostic("memgetinfo", live.info_all, "us"));

  if (options.trace) {
    // Tracing overhead: calls/s in recording windows vs untraced ones.
    double on_time = 0, off_time = 0;
    std::uint64_t on_calls = 0, off_calls = 0;
    toggles.emplace_back(measured_end, false);
    for (std::size_t i = 0; i + 1 < toggles.size(); ++i) {
      const double a = toggles[i].first, b = toggles[i + 1].first;
      std::uint64_t n = 0;
      for (const auto& call : calls) n += call.end_s >= a && call.end_s < b;
      (toggles[i].second ? on_time : off_time) += b - a;
      (toggles[i].second ? on_calls : off_calls) += n;
    }
    const double on_rate = on_time > 0 ? static_cast<double>(on_calls) / on_time : 0;
    const double off_rate = off_time > 0 ? static_cast<double>(off_calls) / off_time : 0;

    const auto live_spans = tracer.Aggregates();
    auto span = [&](SpanName name) -> const Tracer::Aggregate& {
      return live_spans[static_cast<std::size_t>(name)];
    };
    std::vector<double> wrapper_self;
    for (SpanName name : {SpanName::kWrapperMalloc, SpanName::kWrapperFree,
                          SpanName::kWrapperMemGetInfo}) {
      wrapper_self.insert(wrapper_self.end(), span(name).self_us.begin(),
                          span(name).self_us.end());
    }
    const auto outstanding = tracer.Values(ValueName::kOutstanding);
    const auto grant_wait = tracer.Values(ValueName::kGrantWaitUs);

    Metrics& layer = result.per_layer;
    layer["wrapper_core.self_us"] = {Median(wrapper_self), "us"};
    layer["scheduler_link.call_us.alloc.p50"] = {
        Percentile(span(SpanName::kLinkCallAlloc).duration_us, 0.5), "us"};
    layer["scheduler_link.call_us.alloc.p99"] = {
        Percentile(span(SpanName::kLinkCallAlloc).duration_us, 0.99), "us"};
    layer["scheduler_link.call_us.mem_get_info.p50"] = {
        Percentile(span(SpanName::kLinkCallMemInfo).duration_us, 0.5), "us"};
    layer["scheduler_link.call_us.mem_get_info.p99"] = {
        Percentile(span(SpanName::kLinkCallMemInfo).duration_us, 0.99), "us"};
    layer["scheduler_link.notify_us"] = {Median(span(SpanName::kLinkNotify).duration_us),
                                         "us"};
    layer["scheduler_link.outstanding_max"] = {
        outstanding.empty() ? 0.0 : *std::max_element(outstanding.begin(), outstanding.end()),
        "count"};
    layer["scheduler_link.connect_us"] = {Median(span(SpanName::kLinkConnect).duration_us),
                                          "us"};
    layer["scheduler_link.grant_wait_us.p50"] = {Percentile(grant_wait, 0.5), "us"};
    layer["scheduler_link.grant_wait_us.p99"] = {Percentile(grant_wait, 0.99), "us"};
    layer["scheduler_link.reconnects"] = {static_cast<double>(node->reconnects()), "count"};
    layer["scheduler_link.binary_share"] = {
        node->links() > 0 ? static_cast<double>(node->binary_links()) /
                                static_cast<double>(node->links())
                          : 0.0,
        "ratio"};
    layer["scheduler_server.cpu_us_per_op"] = {
        off_calls > 0 ? untraced_cpu_s * 1e6 / static_cast<double>(off_calls) : 0.0, "us"};
    layer["scheduler_server.cpu_util"] = {off_time > 0 ? untraced_cpu_s / off_time : 0.0,
                                          "ratio"};
    layer["scheduler_server.threads"] = {static_cast<double>(max_threads), "count"};
    layer["scheduler_server.kicked_connections"] = {static_cast<double>(max_kicked),
                                                    "count"};
    layer["cudasim.malloc_us"] = {Median(span(SpanName::kCudaMalloc).duration_us), "us"};
    layer["cudasim.free_us"] = {Median(span(SpanName::kCudaFree).duration_us), "us"};
    layer["nvdocker.run_us"] = {Median(span(SpanName::kNvDockerRun).duration_us), "us"};
    layer["plugin.unmount_us"] = {Median(span(SpanName::kPluginUnmount).duration_us),
                                  "us"};
    layer["policy.suspended_share"] = {Mean(node->suspend_probes()), "ratio"};
    layer["policy.suspend_episodes"] = {des.suspend_episodes, "count"};
    layer["tracing.overhead_pct"] = {
        off_rate > 0 ? 100.0 * (off_rate - on_rate) / off_rate : 0.0, "%"};
    TimeCodec(layer);

    // Per-layer summary of the live spans, then the dump.
    std::printf("spans %-36s %9s %10s %10s %10s\n", "name", "n", "p50_us",
                "p99_us", "self_p50");
    for (std::size_t i = 0; i < live_spans.size(); ++i) {
      const auto& a = live_spans[i];
      if (a.duration_us.empty()) continue;
      std::printf("spans %-36s %9zu %10.2f %10.2f %10.2f\n",
                  SpanNameString(static_cast<SpanName>(i)), a.duration_us.size(),
                  Percentile(a.duration_us, 0.5), Percentile(a.duration_us, 0.99),
                  Percentile(a.self_us, 0.5));
    }
    const std::string dump = options.run_dir + "/spans-" + options.workload + "-s" +
                             std::to_string(options.seed) + ".tsv";
    std::printf("spans written: %zu to %s\n", tracer.Dump(dump), dump.c_str());

    tracer.SetRecording(true);
    ReplayCore(options, shape, result);
    tracer.SetRecording(false);
    const auto replay = tracer.Aggregates();
    auto core_span = [&](SpanName name) {
      return Median(replay[static_cast<std::size_t>(name)].duration_us);
    };
    layer["scheduler_core.call_us.alloc_request"] = {core_span(SpanName::kCoreCallAlloc),
                                                     "us"};
    layer["scheduler_core.call_us.mem_get_info"] = {core_span(SpanName::kCoreCallMemInfo),
                                                    "us"};
    layer["scheduler_core.notify_us"] = {core_span(SpanName::kCoreNotify), "us"};
    std::printf("tracing overhead: %.0f calls/s untraced vs %.0f traced\n", off_rate,
                on_rate);
  }
  const std::uint64_t links = node->links();
  const std::uint64_t binary_links = node->binary_links();
  node.reset();
  // Removing a run's container and volume directories frees thousands of
  // blocks; flush that now, so the journal work (online discards on this
  // kind of disk) lands on this run's teardown rather than the next run.
  const double sync_begin = NowSeconds();
  if (const int fd = ::open(options.run_dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  std::printf("teardown sync: %.3f s\n", NowSeconds() - sync_begin);

  // --- Correctness, environment, report. -----------------------------------
  for (const auto& [name, counts] : result.checks) {
    result.attempted += counts.first;
    result.failed += counts.second;
  }
  if (result.failed > 0) result.correct = false;
  if (result.attempted == 0) result.attempted = 1;

  result.env["workload"] = options.workload;
  result.env["seed"] = std::to_string(options.seed);
  result.env["seconds"] = Fixed(options.seconds);
  result.env["trace"] = options.trace ? "1" : "0";
  result.env["build_type"] = CONVBENCH_BUILD_TYPE;
#ifdef CONVGPU_LEDGER_AUDIT
  result.env["ledger_audit"] = "on";
#else
  result.env["ledger_audit"] = "off";
#endif
  result.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.env["policy"] = kPolicy;
  result.env["capacity_bytes"] = std::to_string(shape.capacity);
  result.env["codecs"] = "binary=" + std::to_string(binary_links) +
                         " json=" + std::to_string(links - binary_links);

  const double fail_ratio =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  for (const auto& [key, value] : result.env) {
    std::printf("env %-16s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, counts] : result.checks) {
    std::printf("check %-40s ran=%llu failed=%llu\n", name.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
  for (const auto& line : result.diagnostics) std::printf("%s\n", line.c_str());
  std::printf("metric %-44s %16.6f %s\n", "fail_ratio", fail_ratio, "ratio");
  PrintMetrics("metric", result.end_to_end);
  if (options.trace) PrintMetrics("layer", result.per_layer);
  WriteResultFile(options, result);
  std::printf("%s\n",
              JsonLine(result, options.trace ? result.per_layer : result.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace convbench

int main(int argc, char** argv) { return convbench::Run(argc, argv); }
