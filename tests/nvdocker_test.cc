#include "convgpu/nvdocker.h"

#include <gtest/gtest.h>

#include <fstream>

#include "containersim/engine.h"
#include "convgpu/plugin.h"
#include "convgpu/scheduler_server.h"
#include "tests/test_util.h"

namespace convgpu {
namespace {

using namespace convgpu::literals;
using containersim::Image;
using containersim::ImageRegistry;

TEST(ResolveMemoryLimitTest, OptionWinsOverLabel) {
  const Image image = ImageRegistry::CudaImage("app", "8.0", "2GiB");
  auto limit = ResolveMemoryLimit(std::string("512MiB"), image);
  ASSERT_TRUE(limit.ok());
  EXPECT_EQ(*limit, 512_MiB);
}

TEST(ResolveMemoryLimitTest, LabelWinsOverDefault) {
  const Image image = ImageRegistry::CudaImage("app", "8.0", "2GiB");
  auto limit = ResolveMemoryLimit(std::nullopt, image);
  ASSERT_TRUE(limit.ok());
  EXPECT_EQ(*limit, 2_GiB);
}

TEST(ResolveMemoryLimitTest, DefaultIsOneGiB) {
  const Image image = ImageRegistry::CudaImage("app", "8.0");
  auto limit = ResolveMemoryLimit(std::nullopt, image);
  ASSERT_TRUE(limit.ok());
  EXPECT_EQ(*limit, 1_GiB);  // paper §III-B
}

TEST(ResolveMemoryLimitTest, MalformedInputsRejected) {
  const Image good_label = ImageRegistry::CudaImage("app", "8.0", "2GiB");
  EXPECT_FALSE(ResolveMemoryLimit(std::string("banana"), good_label).ok());
  Image bad_label = ImageRegistry::CudaImage("app", "8.0", "not-a-size");
  EXPECT_FALSE(ResolveMemoryLimit(std::nullopt, bad_label).ok());
}

std::vector<std::string> Args(std::initializer_list<const char*> list) {
  return {list.begin(), list.end()};
}

TEST(ParseCommandLineTest, NonRunCommandsPassThrough) {
  auto parsed = ParseCommandLine(Args({"ps", "-a"}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, ParsedCommand::Kind::kPassthrough);
  EXPECT_EQ(parsed->passthrough, Args({"ps", "-a"}));
}

TEST(ParseCommandLineTest, RunWithAllOptions) {
  auto parsed = ParseCommandLine(Args({"run", "--nvidia-memory=512MiB",
                                       "--name", "worker1", "-e", "X=1",
                                       "--cpus", "2", "--memory", "4GiB",
                                       "cuda-app"}));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->kind, ParsedCommand::Kind::kRun);
  const RunRequest& run = parsed->run;
  EXPECT_EQ(run.image, "cuda-app");
  EXPECT_EQ(run.name, "worker1");
  EXPECT_EQ(run.nvidia_memory, "512MiB");
  EXPECT_EQ(run.env.at("X"), "1");
  EXPECT_EQ(run.vcpus, 2);
  EXPECT_EQ(run.memory_limit, 4_GiB);
}

TEST(ParseCommandLineTest, EqualsAndSeparateValueForms) {
  auto a = ParseCommandLine(Args({"run", "--nvidia-memory=1GiB", "img"}));
  auto b = ParseCommandLine(Args({"run", "--nvidia-memory", "1GiB", "img"}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->run.nvidia_memory, b->run.nvidia_memory);
}

TEST(ParseCommandLineTest, Rejections) {
  EXPECT_FALSE(ParseCommandLine(Args({})).ok());
  EXPECT_FALSE(ParseCommandLine(Args({"run"})).ok());  // no image
  EXPECT_FALSE(ParseCommandLine(Args({"run", "--nvidia-memory"})).ok());
  EXPECT_FALSE(ParseCommandLine(Args({"run", "--bogus-flag", "img"})).ok());
  EXPECT_FALSE(ParseCommandLine(Args({"run", "-e", "NOEQUALS", "img"})).ok());
}

// nvdocker and its volume plugin against a real scheduler daemon: both
// reach the scheduler only over its main socket, as in the paper.
class NvDockerTest : public ::testing::Test {
 protected:
  NvDockerTest() {
    SchedulerServerOptions server_options;
    server_options.base_dir = dir_.path();
    server_options.scheduler.capacity = 5_GiB;
    server_ = std::make_unique<SchedulerServer>(std::move(server_options));
    EXPECT_TRUE(server_->Start().ok());

    engine_.images().Put(ImageRegistry::CudaImage("cuda-app", "8.0", "256MiB"));
    Image plain;
    plain.name = "busybox";
    engine_.images().Put(plain);
    UsePlugin(dir_.path() + "/volumes");

    NvDocker::Options options;
    options.engine = &engine_;
    options.scheduler_socket = server_->main_socket_path();
    nvdocker_ = std::make_unique<NvDocker>(options);
  }

  void UsePlugin(const std::string& volume_root) {
    NvDockerPlugin::Options plugin_options;
    plugin_options.volume_root = volume_root;
    plugin_options.scheduler_socket = server_->main_socket_path();
    auto plugin = std::make_unique<NvDockerPlugin>(plugin_options);
    engine_.RegisterVolumePlugin("nvidia-docker", plugin.get());
    plugin_ = std::move(plugin);
  }

  SchedulerCore& core() { return server_->core(); }

  testing::TempDir dir_;
  std::unique_ptr<SchedulerServer> server_;
  std::unique_ptr<NvDockerPlugin> plugin_;
  containersim::Engine engine_;
  std::unique_ptr<NvDocker> nvdocker_;
};

// The cases that call Prepare/Run directly keep their suite name, so their
// test ids stay stable.
using NvDockerDirectTest = NvDockerTest;

TEST_F(NvDockerDirectTest, PrepareWiresGpuContainer) {
  RunRequest request;
  request.image = "cuda-app";
  request.name = "job1";
  request.nvidia_memory = "512MiB";
  auto prepared = nvdocker_->Prepare(std::move(request));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const auto& [spec, result] = *prepared;

  EXPECT_EQ(result.scheduler_key, "job1");
  EXPECT_EQ(result.gpu_memory_limit, 512_MiB);
  // Registered with the scheduler before the container exists.
  EXPECT_EQ(core().StatsFor("job1")->limit, 512_MiB);

  // --device for the GPU.
  ASSERT_EQ(spec.devices.size(), 1u);
  EXPECT_EQ(spec.devices[0].host_path, "/dev/nvidia0");
  // Driver volume + exit-detection dummy volume, both plugin-driven.
  bool has_driver = false;
  bool has_exit = false;
  for (const auto& mount : spec.mounts) {
    if (mount.source == "nvidia_driver") has_driver = true;
    if (mount.source == std::string(kExitVolumePrefix) + "job1") has_exit = true;
  }
  EXPECT_TRUE(has_driver);
  EXPECT_TRUE(has_exit);
  EXPECT_EQ(spec.env.at("CONVGPU_CONTAINER_ID"), "job1");
  EXPECT_EQ(spec.env.at("CONVGPU_MEMORY_LIMIT"), std::to_string(512_MiB));
}

TEST_F(NvDockerDirectTest, LabelFallbackApplies) {
  RunRequest request;
  request.image = "cuda-app";  // label says 256 MiB
  request.name = "labeled";
  auto prepared = nvdocker_->Prepare(std::move(request));
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->second.gpu_memory_limit, 256_MiB);
}

TEST_F(NvDockerDirectTest, NonGpuImageBypassesConvgpu) {
  RunRequest request;
  request.image = "busybox";
  request.name = "plain";
  auto prepared = nvdocker_->Prepare(std::move(request));
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->second.scheduler_key.empty());
  EXPECT_TRUE(prepared->first.devices.empty());
  EXPECT_TRUE(prepared->first.mounts.empty());
  EXPECT_FALSE(core().StatsFor("plain").has_value());
}

TEST_F(NvDockerDirectTest, DuplicateNameRefused) {
  RunRequest request;
  request.image = "cuda-app";
  request.name = "dup";
  ASSERT_TRUE(nvdocker_->Prepare(RunRequest(request)).ok());
  auto again = nvdocker_->Prepare(std::move(request));
  EXPECT_FALSE(again.ok());
}

TEST_F(NvDockerDirectTest, GeneratedNamesAreUnique) {
  RunRequest request;
  request.image = "cuda-app";
  auto a = nvdocker_->Prepare(RunRequest(request));
  auto b = nvdocker_->Prepare(std::move(request));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->second.scheduler_key, b->second.scheduler_key);
}

TEST_F(NvDockerDirectTest, RunStartsContainerAndEntryPointRuns) {
  std::atomic<bool> ran{false};
  RunRequest request;
  request.image = "cuda-app";
  request.name = "worker";
  request.entrypoint = [&](containersim::ContainerContext& ctx) {
    EXPECT_EQ(ctx.Env("CONVGPU_CONTAINER_ID"), "worker");
    ran = true;
    return 0;
  };
  auto result = nvdocker_->Run(std::move(request));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(engine_.Wait(result->container_id).ok());
  EXPECT_TRUE(ran);
}

TEST_F(NvDockerDirectTest, ImpossibleLimitRefusedBeforeCreate) {
  RunRequest request;
  request.image = "cuda-app";
  request.name = "huge";
  request.nvidia_memory = "64GiB";  // beyond the 5 GiB GPU
  auto result = nvdocker_->Run(std::move(request));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(engine_.List().empty());  // nothing half-created
}

TEST_F(NvDockerTest, FailedStartReleasesTheRegistration) {
  // A volume root under a regular file: every Mount fails, so Start does.
  const std::string blocker = dir_.path() + "/not-a-directory";
  std::ofstream(blocker) << "x";
  UsePlugin(blocker + "/volumes");

  RunRequest request;
  request.image = "cuda-app";
  request.name = "doomed";
  request.nvidia_memory = "2GiB";
  auto result = nvdocker_->Run(std::move(request));
  ASSERT_FALSE(result.ok());

  EXPECT_TRUE(testing::WaitUntil(
      [&] { return !core().StatsFor("doomed").has_value(); },
      std::chrono::seconds(2)));
  EXPECT_EQ(core().free_pool(), core().capacity());
  EXPECT_TRUE(engine_.List().empty());
  EXPECT_TRUE(plugin_->closed_containers().empty());  // one close, ours
}

}  // namespace
}  // namespace convgpu
