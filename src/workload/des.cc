#include "workload/des.h"

#include <algorithm>
#include <functional>

namespace convgpu::workload {

namespace {

/// Fig. 7/8 aggregates over the containers' outcomes.
void FillAggregates(CloudSimResult& result) {
  Duration total_suspended = Duration::zero();
  std::vector<Duration> suspended;
  suspended.reserve(result.containers.size());
  for (const SimContainerOutcome& outcome : result.containers) {
    if (outcome.failed) continue;
    result.finished_time =
        std::max(result.finished_time, outcome.finished - kTimeZero);
    total_suspended += outcome.suspended;
    result.max_suspended_time =
        std::max(result.max_suspended_time, outcome.suspended);
    suspended.push_back(outcome.suspended);
  }
  if (!result.containers.empty()) {
    result.avg_suspended_time =
        total_suspended / static_cast<std::int64_t>(result.containers.size());
  }
  if (!suspended.empty()) {
    std::sort(suspended.begin(), suspended.end());
    const auto index = static_cast<std::size_t>(
        0.95 * static_cast<double>(suspended.size() - 1) + 0.5);
    result.p95_suspended_time = suspended[index];
  }
}

std::string CsvEscape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

Result<CloudSimResult> RunMultiGpuSimulation(const MultiGpuSimConfig& config) {
  if (config.num_containers <= 0 || config.num_gpus <= 0) {
    return InvalidArgumentError("containers and gpus must be positive");
  }

  SimClock clock;
  Rng rng(config.seed);

  SchedulerOptions base;
  base.first_alloc_overhead = config.first_alloc_overhead;
  base.policy = config.policy;
  base.policy_seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
  std::vector<MultiGpuScheduler::DeviceSpec> devices;
  devices.reserve(static_cast<std::size_t>(config.num_gpus));
  for (int i = 0; i < config.num_gpus; ++i) {
    devices.push_back({i, config.gpu_capacity});
  }
  MultiGpuScheduler scheduler(devices, base, config.placement, &clock);

  std::vector<SimContainerOutcome> outcomes(
      static_cast<std::size_t>(config.num_containers));
  std::uint64_t episodes = 0;

  // Submit → allocate → compute → release, per container, driving the
  // placement layer directly.
  std::function<void(std::size_t)> submit = [&](std::size_t index) {
    const ContainerType& type = RandomContainerType(rng);
    SimContainerOutcome& outcome = outcomes[index];
    outcome.type_name = std::string(type.name);
    outcome.gpu_memory = type.gpu_memory;
    outcome.submitted = clock.Now();
    const std::string key = "mg" + std::to_string(index);
    outcome.id = key;

    auto placed = scheduler.RegisterContainer(key, type.gpu_memory);
    if (!placed.ok()) {
      outcome.failed = true;
      outcome.failure = placed.status().ToString();
      outcome.finished = clock.Now();
      return;
    }
    const Pid pid = 5000 + static_cast<Pid>(index);
    scheduler.RequestAlloc(
        key, pid, type.gpu_memory,
        [&, index, key, pid, type](const Status& status) {
          SimContainerOutcome& inner = outcomes[index];
          if (!status.ok()) {
            inner.failed = true;
            inner.failure = status.ToString();
            if (auto stats = scheduler.StatsFor(key)) {
              inner.suspended = stats->total_suspended;
              episodes += stats->suspend_episodes;
            }
            (void)scheduler.ContainerClose(key);
            inner.finished = clock.Now();
            return;
          }
          const std::uint64_t address =
              0x7000'0000'0000ULL + index * 0x1'0000'0000ULL;
          (void)scheduler.CommitAlloc(key, pid, address, type.gpu_memory);
          inner.compute_started = clock.Now();
          clock.ScheduleAfter(SampleProgramDuration(type),
                              [&, index, key, pid, address] {
                                SimContainerOutcome& done = outcomes[index];
                                (void)scheduler.FreeAlloc(key, pid, address);
                                (void)scheduler.ProcessExit(key, pid);
                                if (auto stats = scheduler.StatsFor(key)) {
                                  done.suspended = stats->total_suspended;
                                  episodes += stats->suspend_episodes;
                                }
                                (void)scheduler.ContainerClose(key);
                                done.finished = clock.Now();
                              });
        });
  };

  for (int i = 0; i < config.num_containers; ++i) {
    clock.ScheduleAt(kTimeZero + config.spawn_interval * i,
                     [&submit, i] { submit(static_cast<std::size_t>(i)); });
  }
  clock.RunUntilIdle();

  CONVGPU_RETURN_IF_ERROR(scheduler.CheckInvariants());
  if (scheduler.pending_request_count() != 0) {
    return InternalError("simulation ended with suspended requests — "
                         "scheduling deadlock");
  }

  CloudSimResult result;
  result.containers = std::move(outcomes);
  result.total_suspend_episodes = episodes;
  FillAggregates(result);
  return result;
}

Result<CloudSimResult> RunCloudSimulationAveraged(MultiGpuSimConfig config,
                                                  int repetitions) {
  if (repetitions <= 0) {
    return InvalidArgumentError("repetitions must be positive");
  }
  CloudSimResult accumulated;
  for (int rep = 0; rep < repetitions; ++rep) {
    auto result = RunMultiGpuSimulation(config);
    if (!result.ok()) return result;
    accumulated.finished_time += result->finished_time;
    accumulated.avg_suspended_time += result->avg_suspended_time;
    accumulated.p95_suspended_time += result->p95_suspended_time;
    accumulated.max_suspended_time =
        std::max(accumulated.max_suspended_time, result->max_suspended_time);
    accumulated.total_suspend_episodes += result->total_suspend_episodes;
    config.seed += 1;
  }
  accumulated.finished_time /= repetitions;
  accumulated.avg_suspended_time /= repetitions;
  accumulated.p95_suspended_time /= repetitions;
  return accumulated;
}

std::string ResultToCsv(const CloudSimResult& result) {
  std::string out =
      "name,type,gpu_memory_bytes,submitted_s,compute_started_s,finished_s,"
      "suspended_s,failed\n";
  for (const SimContainerOutcome& c : result.containers) {
    out += CsvEscape(c.id) + ',' + CsvEscape(c.type_name) + ',' +
           std::to_string(c.gpu_memory) + ',' +
           std::to_string(ToSeconds(c.submitted - kTimeZero)) + ',' +
           std::to_string(ToSeconds(c.compute_started - kTimeZero)) + ',' +
           std::to_string(ToSeconds(c.finished - kTimeZero)) + ',' +
           std::to_string(ToSeconds(c.suspended)) + ',' +
           (c.failed ? "1" : "0") + '\n';
  }
  return out;
}

json::Json ResultToJson(const CloudSimResult& result) {
  json::Json root;
  root["finished_time_s"] = ToSeconds(result.finished_time);
  root["avg_suspended_time_s"] = ToSeconds(result.avg_suspended_time);
  root["max_suspended_time_s"] = ToSeconds(result.max_suspended_time);
  root["p95_suspended_time_s"] = ToSeconds(result.p95_suspended_time);
  root["suspend_episodes"] =
      static_cast<std::int64_t>(result.total_suspend_episodes);
  json::Array containers;
  for (const SimContainerOutcome& c : result.containers) {
    json::Json entry;
    entry["name"] = c.id;
    entry["type"] = c.type_name;
    entry["gpu_memory_bytes"] = c.gpu_memory;
    entry["submitted_s"] = ToSeconds(c.submitted - kTimeZero);
    entry["compute_started_s"] = ToSeconds(c.compute_started - kTimeZero);
    entry["finished_s"] = ToSeconds(c.finished - kTimeZero);
    entry["suspended_s"] = ToSeconds(c.suspended);
    entry["failed"] = c.failed;
    if (c.failed) entry["failure"] = c.failure;
    containers.push_back(std::move(entry));
  }
  root["containers"] = std::move(containers);
  return root;
}

}  // namespace convgpu::workload
