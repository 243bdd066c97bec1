// Figure 8 / Table V: average suspended time per container under the four
// scheduling algorithms, same sweep as Figure 7.
//
// Expected shape (paper §IV-C): near-identical below ~24 containers; above
// ~26 Best-Fit suspends containers ~15 s longer on average than the other
// algorithms (its throughput-first choices starve poorly-matched sizes).
#include <cstdio>
#include <string>
#include <vector>

#include "workload/des.h"

int main(int argc, char** argv) {
  using namespace convgpu;
  using namespace convgpu::workload;

  int repetitions = 6;
  if (argc > 1) repetitions = std::max(1, std::atoi(argv[1]));

  const std::vector<std::string> policies = {"FIFO", "BF", "RU", "Rand"};

  std::printf(
      "Table V / Figure 8 — average suspended time (s) per container, "
      "%d-run average\n\n",
      repetitions);
  std::printf("%-6s", "N");
  for (const auto& policy : policies) std::printf("%10s", policy.c_str());
  std::printf("\n");

  for (int n = 4; n <= 38; n += 2) {
    std::printf("%-6d", n);
    for (const auto& policy : policies) {
      MultiGpuSimConfig config;
      config.num_containers = n;
      config.policy = policy;
      config.seed = 1000 + static_cast<std::uint64_t>(n);
      auto result = RunCloudSimulationAveraged(config, repetitions);
      if (!result.ok()) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("%10.1f", ToSeconds(result->avg_suspended_time));
    }
    std::printf("\n");
  }

  // The starvation the paper attributes to Best-Fit lives in the tail of
  // the distribution, not the mean — print p95 alongside.
  std::printf("\nTail view — p95 suspended time (s) at high load\n\n");
  std::printf("%-6s", "N");
  for (const auto& policy : policies) std::printf("%10s", policy.c_str());
  std::printf("\n");
  for (int n = 26; n <= 38; n += 4) {
    std::printf("%-6d", n);
    for (const auto& policy : policies) {
      MultiGpuSimConfig config;
      config.num_containers = n;
      config.policy = policy;
      config.seed = 1000 + static_cast<std::uint64_t>(n);
      auto result = RunCloudSimulationAveraged(config, repetitions);
      if (!result.ok()) return 1;
      std::printf("%10.1f", ToSeconds(result->p95_suspended_time));
    }
    std::printf("\n");
  }

  std::printf(
      "\npaper shape: algorithms tie below ~N=24; BF pays the largest "
      "per-container suspended time at high load (in this reproduction "
      "BF's cost shows in the p95 tail rather than the mean — see "
      "EXPERIMENTS.md)\n");
  return 0;
}
