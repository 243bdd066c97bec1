// Figure 7 / Table IV: finished time of N containers under the four
// scheduling algorithms, N = 4..38 step 2, container types drawn from
// Table III, one container submitted every 5 s, 6 repetitions averaged.
//
// Expected shape (paper §IV-C): finish time roughly doubles as N doubles;
// the four algorithms tie below ~16 containers; Best-Fit wins by ~30 s
// beyond ~18; Random is generally worst.
#include <cstdio>
#include <string>
#include <vector>

#include "workload/des.h"

int main(int argc, char** argv) {
  using namespace convgpu;
  using namespace convgpu::workload;

  int repetitions = 6;  // the paper's repetition count
  if (argc > 1) repetitions = std::max(1, std::atoi(argv[1]));

  const std::vector<std::string> policies = {"FIFO", "BF", "RU", "Rand"};

  std::printf(
      "Table IV / Figure 7 — finished time (s) of N containers, %d-run "
      "average, one container every 5 s, Table III types, 5 GB K20m\n\n",
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
      config.seed = 1000 + static_cast<std::uint64_t>(n);  // same trace for
                                                           // every policy
      auto result = RunCloudSimulationAveraged(config, repetitions);
      if (!result.ok()) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("%10.1f", ToSeconds(result->finished_time));
    }
    std::printf("\n");
  }

  std::printf(
      "\npaper shape: ~2x growth per doubling of N; ties below N=16; "
      "BF fastest at high load; Rand generally worst\n");
  return 0;
}
