// Discrete-event cloud simulation (paper §IV-A/C).
//
// Reproduces the multi-container experiment: container types drawn
// uniformly from Table III, one container submitted every 5 seconds, each
// running the sample program (single full-size allocation, 5–45 s compute,
// free, exit) against shared 5 GB GPUs managed by ConVGPU.
//
// The harness drives the REAL SchedulerCore — the same object behind the
// socket daemon — through the MultiGpuScheduler placement layer, on a
// virtual clock. One GPU is the paper's setup; more is its §V future work.
// Everything is deterministic in (seed, policy), so Table IV/V regenerate
// in milliseconds instead of the paper's wall-clock hours. The container
// engine, nvdocker and the volume plugin are not on this path; they are
// covered by integration_test and nvdocker_test.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "convgpu/multigpu.h"
#include "json/json.h"
#include "workload/container_types.h"

namespace convgpu::workload {

struct SimContainerOutcome {
  std::string id;  // scheduler key
  std::string type_name;
  Bytes gpu_memory = 0;
  TimePoint submitted = kTimeZero;   // registered with the scheduler
  TimePoint compute_started = kTimeZero;  // allocation finally granted
  TimePoint finished = kTimeZero;    // container exited
  Duration suspended = Duration::zero();
  bool failed = false;
  std::string failure;
};

struct CloudSimResult {
  /// Paper Fig. 7 / Table IV: "finished time of all containers" — from the
  /// first submission to the last container exit.
  Duration finished_time = Duration::zero();
  /// Paper Fig. 8 / Table V: mean of per-container suspended time.
  Duration avg_suspended_time = Duration::zero();
  Duration max_suspended_time = Duration::zero();
  /// Tail of the suspended-time distribution (95th percentile) — the
  /// metric on which Best-Fit's starvation tendency shows up.
  Duration p95_suspended_time = Duration::zero();
  std::vector<SimContainerOutcome> containers;
  std::uint64_t total_suspend_episodes = 0;
};

/// One simulation run: the Table III workload over `num_gpus` devices,
/// each scheduled by `policy`, behind a placement stage.
struct MultiGpuSimConfig {
  int num_containers = 16;
  int num_gpus = 1;
  Bytes gpu_capacity = 5 * kGiB;
  Duration spawn_interval = Seconds(5);
  std::uint64_t seed = 1;
  std::string policy = "FIFO";          // per-device scheduling
  PlacementPolicy placement = PlacementPolicy::kMostFree;
  Bytes first_alloc_overhead = 66 * kMiB;
};

/// Runs one complete simulation. Deterministic in `config`.
Result<CloudSimResult> RunMultiGpuSimulation(const MultiGpuSimConfig& config);

/// Averages `repetitions` runs with seeds seed, seed+1, ... (the paper
/// repeats every configuration 6 times and averages).
Result<CloudSimResult> RunCloudSimulationAveraged(MultiGpuSimConfig config,
                                                  int repetitions);

/// CSV export (one row per container plus a header) for external plotting
/// of Figures 7/8-style data.
std::string ResultToCsv(const CloudSimResult& result);

/// Full JSON document: aggregates + per-container outcomes.
json::Json ResultToJson(const CloudSimResult& result);

}  // namespace convgpu::workload
