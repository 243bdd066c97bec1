// Genuine LD_PRELOAD interposition test: a real scheduler daemon, a real
// child process running the unmodified user program against
// libcudasim_rt.so, with libgpushare_preload.so injected by the dynamic
// linker — the paper's exact mechanism (§III-C).
//
// Paths to the built artifacts are injected by CMake:
//   CONVGPU_PRELOAD_LIB   libgpushare_preload.so
//   CONVGPU_USER_PROGRAM  examples/preload_user_program
//   CONVGPU_NVDOCKER_SIM  tools/nvdocker-sim
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "convgpu/scheduler_server.h"
#include "tests/test_util.h"

#if defined(__SANITIZE_ADDRESS__)
#define CONVGPU_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CONVGPU_ASAN_BUILD 1
#endif
#endif

namespace convgpu {
namespace {

using namespace convgpu::literals;
using convgpu::testing::TempDir;

// In an ASan build the preload library is ASan-instrumented, so LD_PRELOAD
// puts it ahead of the runtime in the child's initial library list; the
// child executable links the runtime itself, so the strict ordering check
// can be relaxed instead of failing the exec.
void RelaxChildAsanLinkOrder() {
#ifdef CONVGPU_ASAN_BUILD
  ::setenv("ASAN_OPTIONS", "verify_asan_link_order=0", 1);
#endif
}

int RunChild(const std::vector<std::string>& args,
             const std::vector<std::pair<std::string, std::string>>& env) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    RelaxChildAsanLinkOrder();
    for (const auto& [key, value] : env) {
      ::setenv(key.c_str(), value.c_str(), 1);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

class PreloadTest : public ::testing::Test {
 protected:
  PreloadTest() {
    SchedulerServerOptions options;
    options.base_dir = dir_.path();
    options.scheduler.capacity = 5_GiB;
    options.wrapper_module_path = CONVGPU_PRELOAD_LIB;
    server_ = std::make_unique<SchedulerServer>(std::move(options));
    EXPECT_TRUE(server_->Start().ok());
  }

  TempDir dir_;
  std::unique_ptr<SchedulerServer> server_;
};

TEST_F(PreloadTest, BareUserProgramSeesWholeDevice) {
  const int code = RunChild({CONVGPU_USER_PROGRAM}, {});
  EXPECT_EQ(code, 0);
}

TEST_F(PreloadTest, PreloadWithoutSocketIsTransparent) {
  // LD_PRELOAD set but no CONVGPU_SOCKET: the wrapper must forward
  // everything untouched.
  const int code = RunChild({CONVGPU_USER_PROGRAM},
                            {{"LD_PRELOAD", CONVGPU_PRELOAD_LIB}});
  EXPECT_EQ(code, 0);
}

TEST_F(PreloadTest, SocketWithoutContainerIdIsTransparent) {
  // CONVGPU_SOCKET set but no CONVGPU_CONTAINER_ID: the wrapper cannot say
  // hello, so it reports that it cannot reach the scheduler and forwards
  // everything untouched. The program then sees the bare device, and the
  // daemon never accounts a byte for the container.
  auto main = ipc::MessageClient::ConnectUnix(server_->main_socket_path());
  ASSERT_TRUE(main.ok());
  protocol::RegisterContainer request;
  request.container_id = "nocid";
  request.memory_limit = 512_MiB;
  auto registered = protocol::Expect<protocol::RegisterReply>(
      protocol::Call(**main, protocol::Message(request), /*req_id=*/1));
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  ASSERT_TRUE(registered->ok) << registered->error;

  const int code = RunChild({CONVGPU_USER_PROGRAM},
                            {{"LD_PRELOAD", CONVGPU_PRELOAD_LIB},
                             {"CONVGPU_SOCKET", registered->socket_path}});
  EXPECT_EQ(code, 0);
  EXPECT_EQ(server_->core().StatsFor("nocid")->used, 0);
}

TEST_F(PreloadTest, NvDockerSimInterposesAndLimits) {
  // The full paper flow: nvdocker-sim registers, launches the child with
  // LD_PRELOAD + CONVGPU_SOCKET, and sends the close signal afterwards.
  // The user program's own checks (virtualized total == 512 MiB, over-
  // limit malloc fails, fitting malloc works) are its exit code.
  const int code = RunChild(
      {CONVGPU_NVDOCKER_SIM, "--socket", server_->main_socket_path(),
       "--preload", CONVGPU_PRELOAD_LIB, "run", "--nvidia-memory=512MiB",
       "--name", "preload1", CONVGPU_USER_PROGRAM},
      {});
  EXPECT_EQ(code, 0);

  // The close signal cleaned the container out of the scheduler.
  for (int i = 0; i < 500; ++i) {
    if (!server_->core().StatsFor("preload1").has_value()) break;
    ::usleep(2000);
  }
  EXPECT_FALSE(server_->core().StatsFor("preload1").has_value());
  EXPECT_EQ(server_->core().free_pool(), 5_GiB);
}

TEST_F(PreloadTest, WrapperModuleCopiedIntoContainerDir) {
  // The scheduler copies libgpushare.so into each container's directory,
  // as the paper's scheduler does (§III-D).
  const int code = RunChild(
      {CONVGPU_NVDOCKER_SIM, "--socket", server_->main_socket_path(), "run",
       "--nvidia-memory=256MiB", "--name", "copied", CONVGPU_USER_PROGRAM},
      {});
  // No --preload given: the child used the copy at
  // <dir>/containers/copied/libgpushare.so.
  EXPECT_EQ(code, 0);
}

TEST_F(PreloadTest, SchedulerObservesChildAllocations) {
  // Snapshot the ledger while a slow child holds memory.
  const std::string socket = server_->main_socket_path();
  // Launch via nvdocker-sim in the background through a shell-less fork.
  const pid_t pid = ::fork();
  if (pid == 0) {
    RelaxChildAsanLinkOrder();
    ::setenv("CONVGPU_SLEEP_MS", "400", 1);
    ::execl(CONVGPU_NVDOCKER_SIM, CONVGPU_NVDOCKER_SIM, "--socket",
            socket.c_str(), "--preload", CONVGPU_PRELOAD_LIB, "run",
            "--nvidia-memory=512MiB", "--name", "observer", "-e",
            "CONVGPU_SLEEP_MS=400", CONVGPU_USER_PROGRAM,
            static_cast<char*>(nullptr));
    _exit(127);
  }
  // Poll until the child's 32 MiB allocation (+66 MiB overhead) shows up.
  bool observed = false;
  for (int i = 0; i < 1000; ++i) {
    auto stats = server_->core().StatsFor("observer");
    if (stats.has_value() && stats->used > 0) {
      observed = true;
      break;
    }
    ::usleep(1000);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(observed);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace convgpu
