// Cloud-usage simulation (the paper's §IV-C experiment), interactive.
//
//   cloud_sim [N] [POLICY] [SEED] [--csv|--json]
//
// Submits N containers of random Table III types (one every 5 simulated
// seconds) onto a 5 GB K20m scheduled by POLICY, then prints the timeline
// and the two headline metrics of Figures 7/8. With --csv/--json the raw
// per-container outcomes are emitted instead, ready for plotting.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload/des.h"

int main(int argc, char** argv) {
  using namespace convgpu;
  using namespace convgpu::workload;

  MultiGpuSimConfig config;
  enum class Output { kTable, kCsv, kJson } output = Output::kTable;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      output = Output::kCsv;
    } else if (arg == "--json") {
      output = Output::kJson;
    } else if (positional == 0) {
      config.num_containers = std::atoi(argv[i]);
      ++positional;
    } else if (positional == 1) {
      config.policy = arg;
      ++positional;
    } else {
      config.seed = static_cast<std::uint64_t>(std::atoll(argv[i]));
    }
  }
  if (positional == 0) config.num_containers = 18;
  if (config.policy.empty()) config.policy = "BF";
  if (config.seed == 1 && positional < 3) config.seed = 42;

  auto result = RunMultiGpuSimulation(config);
  if (!result.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (output == Output::kCsv) {
    std::fputs(ResultToCsv(*result).c_str(), stdout);
    return 0;
  }
  if (output == Output::kJson) {
    std::printf("%s\n", ResultToJson(*result).Dump(2).c_str());
    return 0;
  }

  std::printf(
      "cloud simulation — %d containers, policy %s, seed %llu, 5 GB GPU\n\n",
      config.num_containers, config.policy.c_str(),
      static_cast<unsigned long long>(config.seed));
  std::printf("%-8s %-8s %10s %12s %12s %12s %12s\n", "name", "type", "gpu-mem",
              "submitted", "started", "finished", "suspended");
  for (const auto& c : result->containers) {
    if (c.failed) {
      std::printf("%-8s %-8s FAILED: %s\n", c.id.c_str(), c.type_name.c_str(),
                  c.failure.c_str());
      continue;
    }
    std::printf("%-8s %-8s %10s %11.1fs %11.1fs %11.1fs %11.1fs\n",
                c.id.c_str(), c.type_name.c_str(),
                FormatByteSize(c.gpu_memory).c_str(),
                ToSeconds(c.submitted - kTimeZero),
                ToSeconds(c.compute_started - kTimeZero),
                ToSeconds(c.finished - kTimeZero), ToSeconds(c.suspended));
  }

  std::printf("\nfinished time (Fig. 7 metric):        %8.1f s\n",
              ToSeconds(result->finished_time));
  std::printf("average suspended time (Fig. 8 metric): %8.1f s\n",
              ToSeconds(result->avg_suspended_time));
  std::printf("max suspended time:                     %8.1f s\n",
              ToSeconds(result->max_suspended_time));
  std::printf("suspension episodes:                    %8llu\n",
              static_cast<unsigned long long>(result->total_suspend_episodes));
  return 0;
}
