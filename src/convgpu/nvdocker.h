// Customized nvidia-docker (paper §III-B): the CLI front-end that wires a
// container to ConVGPU.
//
// Responsibilities, mirroring the paper exactly:
//  * accept the custom --nvidia-memory=<size> option; fall back to the
//    image's com.nvidia.memory.limit label, then to a 1 GiB default;
//  * register the container with the scheduler *before* creating it and
//    receive the per-container directory;
//  * bind-mount that directory (wrapper module + UNIX socket) into the
//    container and set LD_PRELOAD so libgpushare.so loads first;
//  * add the GPU --device mapping and the driver volume;
//  * add a dummy plugin-driven volume whose unmount tells the plugin the
//    container exited;
//  * pass every non-run/create command through to docker untouched.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "containersim/engine.h"

namespace convgpu {

/// Volume-name prefix of the exit-detection dummy volume; the plugin parses
/// the scheduler key out of names with this prefix on unmount.
inline constexpr char kExitVolumePrefix[] = "convgpu_exit_";
/// Container-side mount point of the per-container scheduler directory.
inline constexpr char kContainerConvgpuDir[] = "/var/lib/convgpu";

/// Sends the scheduler the close signal for `scheduler_key` over its main
/// socket: the container is gone and its memory returns to the pool.
Status SendContainerClose(const std::string& scheduler_socket,
                          const std::string& scheduler_key);

/// A `nvidia-docker run` invocation after option parsing.
struct RunRequest {
  std::string image;
  std::string name;                          // scheduler key; generated if empty
  std::optional<std::string> nvidia_memory;  // raw --nvidia-memory value
  std::map<std::string, std::string> env;
  int vcpus = 1;
  Bytes memory_limit = 0;  // host memory (cgroup), 0 = unlimited
  containersim::Entrypoint entrypoint;
};

/// What Run() hands back for the caller to track the container.
struct RunResult {
  std::string container_id;  // engine id
  std::string scheduler_key; // id used in the ConVGPU protocol
  Bytes gpu_memory_limit = 0;
  std::string socket_dir;    // host path mounted into the container
  std::string socket_path;   // per-container scheduler socket
};

/// Option/label/default resolution of the GPU memory limit (paper §III-B).
Result<Bytes> ResolveMemoryLimit(const std::optional<std::string>& option,
                                 const containersim::Image& image,
                                 Bytes fallback = 1 * kGiB);

/// Command-line front-end parsing: `run` is interpreted, everything else is
/// passthrough (the real nvidia-docker forwards those to docker verbatim).
struct ParsedCommand {
  enum class Kind { kRun, kPassthrough } kind = Kind::kPassthrough;
  RunRequest run;
  std::vector<std::string> passthrough;
};
Result<ParsedCommand> ParseCommandLine(std::span<const std::string> args);

class NvDocker {
 public:
  struct Options {
    containersim::Engine* engine = nullptr;  // required
    /// The scheduler's main socket (required for GPU images).
    std::string scheduler_socket;
    /// GPU device node exposed via --device.
    std::string gpu_device_path = "/dev/nvidia0";
  };

  explicit NvDocker(Options options);

  /// The full run pipeline: limit resolution → scheduler registration →
  /// spec construction → engine create + start. If create or start fails,
  /// the container is removed and its registration closed.
  Result<RunResult> Run(RunRequest request);

  /// Builds the ContainerSpec without creating it (inspectable by tests).
  Result<std::pair<containersim::ContainerSpec, RunResult>> Prepare(
      RunRequest request);

 private:
  Result<RunResult> RegisterWithScheduler(const std::string& key, Bytes limit);

  Options options_;
  IdGenerator key_gen_;
};

}  // namespace convgpu
