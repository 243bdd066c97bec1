#include "workload/des.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/container_types.h"

namespace convgpu::workload {
namespace {

using namespace convgpu::literals;

TEST(ContainerTypesTest, TableThreeValues) {
  const auto& types = ContainerTypes();
  ASSERT_EQ(types.size(), 6u);
  EXPECT_EQ(types[0].name, "nano");
  EXPECT_EQ(types[0].gpu_memory, 128_MiB);
  EXPECT_EQ(types[5].name, "xlarge");
  EXPECT_EQ(types[5].gpu_memory, 4096_MiB);
  EXPECT_EQ(types[5].vcpus, 4);
  EXPECT_EQ(types[3].host_memory, 4_GiB);
  EXPECT_EQ(FindContainerType("small")->gpu_memory, 512_MiB);
  EXPECT_FALSE(FindContainerType("galactic").has_value());
}

TEST(ContainerTypesTest, SampleDurationSpansPaperRange) {
  EXPECT_EQ(SampleProgramDuration(*FindContainerType("nano")), Seconds(5));
  EXPECT_EQ(SampleProgramDuration(*FindContainerType("xlarge")), Seconds(45));
  // Monotone in size.
  Duration previous = Duration::zero();
  for (const auto& type : ContainerTypes()) {
    const Duration d = SampleProgramDuration(type);
    EXPECT_GT(d, previous);
    previous = d;
  }
}

TEST(CloudSimTest, SmallRunCompletesAllContainers) {
  MultiGpuSimConfig config;
  config.num_containers = 4;
  config.seed = 7;
  auto result = RunMultiGpuSimulation(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->containers.size(), 4u);
  for (const auto& outcome : result->containers) {
    EXPECT_FALSE(outcome.failed) << outcome.failure;
    EXPECT_GE(outcome.finished, outcome.compute_started);
    EXPECT_GE(outcome.compute_started, outcome.submitted);
  }
  EXPECT_GT(result->finished_time, Duration::zero());
}

TEST(CloudSimTest, DeterministicForSameSeed) {
  MultiGpuSimConfig config;
  config.num_containers = 20;
  config.seed = 11;
  config.policy = "BF";
  auto a = RunMultiGpuSimulation(config);
  auto b = RunMultiGpuSimulation(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->finished_time, b->finished_time);
  EXPECT_EQ(a->avg_suspended_time, b->avg_suspended_time);
  ASSERT_EQ(a->containers.size(), b->containers.size());
  for (std::size_t i = 0; i < a->containers.size(); ++i) {
    EXPECT_EQ(a->containers[i].type_name, b->containers[i].type_name);
    EXPECT_EQ(a->containers[i].finished, b->containers[i].finished);
  }
}

TEST(CloudSimTest, DifferentSeedsProduceDifferentTraces) {
  MultiGpuSimConfig config;
  config.num_containers = 20;
  config.seed = 1;
  auto a = RunMultiGpuSimulation(config);
  config.seed = 2;
  auto b = RunMultiGpuSimulation(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->finished_time, b->finished_time);
}

TEST(CloudSimTest, FinishedTimeGrowsWithLoad) {
  // The paper: "As the number of the containers is doubled, finished time
  // is also roughly increased to double."
  MultiGpuSimConfig config;
  config.seed = 3;
  config.num_containers = 8;
  auto small = RunCloudSimulationAveraged(config, 3);
  config.num_containers = 32;
  auto large = RunCloudSimulationAveraged(config, 3);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->finished_time, small->finished_time * 2);
}

TEST(CloudSimTest, LowLoadRunsMostlyUnsuspended) {
  MultiGpuSimConfig config;
  config.num_containers = 4;
  config.seed = 5;
  auto result = RunMultiGpuSimulation(config);
  ASSERT_TRUE(result.ok());
  // With 4 staggered containers on a 5 GB GPU suspension is rare/short.
  EXPECT_LT(ToSeconds(result->avg_suspended_time), 20.0);
}

TEST(CloudSimTest, HighLoadSuspendsSomebody) {
  MultiGpuSimConfig config;
  config.num_containers = 30;
  config.seed = 5;
  auto result = RunMultiGpuSimulation(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_suspend_episodes, 0u);
  EXPECT_GT(result->max_suspended_time, Duration::zero());
}

// The Table IV/V cells published in EXPERIMENTS.md, regenerated with the
// fig7/fig8 setup: 6 repetitions, seed 1000 + N. Rand is the policy that
// reads the policy seed, so its cells pin the seed derivation too.
TEST(PublishedNumbersTest, TablesFourAndFiveAtHighLoad) {
  struct Cell {
    const char* policy;
    double finished_s;
    double avg_suspended_s;
  };
  for (const Cell& cell : {Cell{"FIFO", 504.8, 142.6}, Cell{"BF", 462.7, 85.5},
                           Cell{"RU", 533.2, 114.5},
                           Cell{"Rand", 558.7, 118.5}}) {
    auto result = RunCloudSimulationAveraged(
        {.num_containers = 38, .seed = 1038, .policy = cell.policy}, 6);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NEAR(ToSeconds(result->finished_time), cell.finished_s, 0.05)
        << cell.policy;
    EXPECT_NEAR(ToSeconds(result->avg_suspended_time), cell.avg_suspended_s,
                0.05)
        << cell.policy;
  }
  auto tail = RunCloudSimulationAveraged(
      {.num_containers = 30, .seed = 1030, .policy = "BF"}, 6);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_NEAR(ToSeconds(tail->p95_suspended_time), 241.2, 0.05);
}

// Property: every policy finishes every container (no deadlock, no lost
// requests) across loads and seeds — the paper's stability claim.
class PolicySweepTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, std::uint64_t>> {
};

TEST_P(PolicySweepTest, AllContainersFinish) {
  const auto& [policy, count, seed] = GetParam();
  MultiGpuSimConfig config;
  config.policy = policy;
  config.num_containers = count;
  config.seed = seed;
  auto result = RunMultiGpuSimulation(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->containers.size(), static_cast<std::size_t>(count));
  for (const auto& outcome : result->containers) {
    EXPECT_FALSE(outcome.failed) << outcome.type_name << ": " << outcome.failure;
    EXPECT_GT(outcome.finished, kTimeZero);
  }
  // Sanity on the headline metrics.
  EXPECT_GT(result->finished_time, Duration::zero());
  EXPECT_GE(result->max_suspended_time, result->avg_suspended_time);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesLoadsSeeds, PolicySweepTest,
    ::testing::Combine(::testing::Values("FIFO", "BF", "RU", "Rand"),
                       ::testing::Values(4, 18, 38),
                       ::testing::Values(1u, 2u)));

TEST(CloudSimTest, AveragingReducesToSingleRunWhenOneRep) {
  MultiGpuSimConfig config;
  config.num_containers = 10;
  config.seed = 9;
  auto single = RunMultiGpuSimulation(config);
  auto averaged = RunCloudSimulationAveraged(config, 1);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(averaged.ok());
  EXPECT_EQ(single->finished_time, averaged->finished_time);
}

TEST(CloudSimTest, InvalidConfigRejected) {
  MultiGpuSimConfig config;
  config.num_containers = 0;
  EXPECT_FALSE(RunMultiGpuSimulation(config).ok());
  config.num_containers = 4;
  EXPECT_FALSE(RunCloudSimulationAveraged(config, 0).ok());
}


TEST(MultiGpuSimTest, RunsAndScales) {
  MultiGpuSimConfig config;
  config.num_gpus = 2;
  config.num_containers = 24;
  config.seed = 4;
  auto two = RunMultiGpuSimulation(config);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  for (const auto& outcome : two->containers) {
    EXPECT_FALSE(outcome.failed) << outcome.failure;
  }

  // Same workload on one GPU must not finish faster than on two.
  config.num_gpus = 1;
  auto one = RunMultiGpuSimulation(config);
  ASSERT_TRUE(one.ok());
  EXPECT_GE(one->finished_time, two->finished_time);
}

TEST(MultiGpuSimTest, DeterministicPerSeed) {
  MultiGpuSimConfig config;
  config.num_gpus = 3;
  config.num_containers = 18;
  config.seed = 9;
  config.placement = PlacementPolicy::kBestFit;
  auto a = RunMultiGpuSimulation(config);
  auto b = RunMultiGpuSimulation(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->finished_time, b->finished_time);
  EXPECT_EQ(a->avg_suspended_time, b->avg_suspended_time);
}

TEST(MultiGpuSimTest, AllPlacementsComplete) {
  for (auto placement : {PlacementPolicy::kMostFree, PlacementPolicy::kBestFit,
                         PlacementPolicy::kRoundRobin}) {
    MultiGpuSimConfig config;
    config.num_gpus = 2;
    config.num_containers = 30;
    config.seed = 11;
    config.placement = placement;
    auto result = RunMultiGpuSimulation(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const auto& outcome : result->containers) {
      EXPECT_FALSE(outcome.failed)
          << std::string(PlacementPolicyName(placement)) << ": "
          << outcome.failure;
    }
  }
}

TEST(CloudSimTest, PercentileIsBetweenAvgAndMax) {
  MultiGpuSimConfig config;
  config.num_containers = 30;
  config.seed = 21;
  auto result = RunMultiGpuSimulation(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->p95_suspended_time, Duration::zero());
  EXPECT_LE(result->p95_suspended_time, result->max_suspended_time);
}


TEST(ResultExportTest, CsvHasHeaderAndOneRowPerContainer) {
  MultiGpuSimConfig config;
  config.num_containers = 6;
  config.seed = 13;
  auto result = RunMultiGpuSimulation(config);
  ASSERT_TRUE(result.ok());
  const std::string csv = ResultToCsv(*result);
  // Header + 6 rows, newline-terminated.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);
  EXPECT_EQ(csv.rfind("name,type,", 0), 0u);
  // Every data row has exactly the 8 header columns.
  const auto first_newline = csv.find('\n');
  const auto second_newline = csv.find('\n', first_newline + 1);
  const std::string first_row =
      csv.substr(first_newline + 1, second_newline - first_newline - 1);
  EXPECT_EQ(std::count(first_row.begin(), first_row.end(), ','), 7);
}

TEST(ResultExportTest, JsonRoundTripsAndMatchesAggregates) {
  MultiGpuSimConfig config;
  config.num_containers = 5;
  config.seed = 17;
  auto result = RunMultiGpuSimulation(config);
  ASSERT_TRUE(result.ok());
  const json::Json doc = ResultToJson(*result);
  auto reparsed = json::Json::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, doc);
  EXPECT_DOUBLE_EQ(*doc.GetDouble("finished_time_s"),
                   ToSeconds(result->finished_time));
  ASSERT_NE(doc.Find("containers"), nullptr);
  EXPECT_EQ(doc.Find("containers")->as_array().size(), 5u);
  const json::Json& first = doc.Find("containers")->as_array()[0];
  EXPECT_EQ(first.GetBool("failed"), false);
}

}  // namespace
}  // namespace convgpu::workload
