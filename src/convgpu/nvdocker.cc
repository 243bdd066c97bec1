#include "convgpu/nvdocker.h"

#include "common/log.h"
#include "convgpu/protocol.h"
#include "ipc/message_server.h"

namespace convgpu {

namespace {
constexpr char kTag[] = "nvdocker";
}

Result<Bytes> ResolveMemoryLimit(const std::optional<std::string>& option,
                                 const containersim::Image& image,
                                 Bytes fallback) {
  if (option) {
    auto parsed = ParseByteSize(*option);
    if (!parsed) {
      return InvalidArgumentError("invalid --nvidia-memory value: " + *option);
    }
    return *parsed;
  }
  if (auto label = image.Label(containersim::kLabelMemoryLimit)) {
    auto parsed = ParseByteSize(*label);
    if (!parsed) {
      return InvalidArgumentError("invalid " +
                                  std::string(containersim::kLabelMemoryLimit) +
                                  " label: " + *label);
    }
    return *parsed;
  }
  return fallback;
}

Result<ParsedCommand> ParseCommandLine(std::span<const std::string> args) {
  ParsedCommand command;
  if (args.empty()) {
    return InvalidArgumentError("no command given");
  }
  // Like the real nvidia-docker, only `run` and `create` are interpreted;
  // everything else goes straight to docker.
  if (args[0] != "run" && args[0] != "create") {
    command.kind = ParsedCommand::Kind::kPassthrough;
    command.passthrough.assign(args.begin(), args.end());
    return command;
  }

  command.kind = ParsedCommand::Kind::kRun;
  RunRequest& run = command.run;
  std::size_t i = 1;
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value_of = [&](std::string_view flag) -> Result<std::string> {
      // Accept both --flag=value and --flag value.
      if (arg.size() > flag.size() && arg[flag.size()] == '=') {
        return arg.substr(flag.size() + 1);
      }
      if (i + 1 >= args.size()) {
        return InvalidArgumentError(std::string(flag) + " requires a value");
      }
      return args[++i];
    };

    if (arg.starts_with("--nvidia-memory")) {
      auto value = value_of("--nvidia-memory");
      if (!value.ok()) return value.status();
      run.nvidia_memory = *value;
    } else if (arg.starts_with("--name")) {
      auto value = value_of("--name");
      if (!value.ok()) return value.status();
      run.name = *value;
    } else if (arg.starts_with("--env") || arg.starts_with("-e")) {
      auto value = value_of(arg.starts_with("--env") ? "--env" : "-e");
      if (!value.ok()) return value.status();
      const auto eq = value->find('=');
      if (eq == std::string::npos) {
        return InvalidArgumentError("--env expects NAME=value: " + *value);
      }
      run.env[value->substr(0, eq)] = value->substr(eq + 1);
    } else if (arg.starts_with("--cpus")) {
      auto value = value_of("--cpus");
      if (!value.ok()) return value.status();
      run.vcpus = std::max(1, std::atoi(value->c_str()));
    } else if (arg.starts_with("--memory") || arg.starts_with("-m")) {
      auto value = value_of(arg.starts_with("--memory") ? "--memory" : "-m");
      if (!value.ok()) return value.status();
      auto parsed = ParseByteSize(*value);
      if (!parsed) return InvalidArgumentError("invalid --memory: " + *value);
      run.memory_limit = *parsed;
    } else if (arg == "--detach" || arg == "-d" || arg == "--rm") {
      // accepted, no-op in the simulation
    } else if (!arg.starts_with("-")) {
      run.image = arg;
      break;  // image name ends option parsing (docker semantics)
    } else {
      return InvalidArgumentError("unknown option: " + arg);
    }
  }
  if (run.image.empty()) {
    return InvalidArgumentError("run: image name required");
  }
  return command;
}

Status SendContainerClose(const std::string& scheduler_socket,
                          const std::string& scheduler_key) {
  auto client = ipc::MessageClient::ConnectUnix(scheduler_socket);
  if (!client.ok()) return client.status();
  protocol::ContainerClose close;
  close.container_id = scheduler_key;
  return protocol::Notify(**client, protocol::Message(close));
}

NvDocker::NvDocker(Options options) : options_(std::move(options)) {}

Result<RunResult> NvDocker::RegisterWithScheduler(const std::string& key,
                                                  Bytes limit) {
  // The paper's flow: the limit is sent to the scheduler over the UNIX
  // socket before the container is created, and the scheduler answers with
  // the per-container directory to mount.
  auto client = ipc::MessageClient::ConnectUnix(options_.scheduler_socket);
  if (!client.ok()) {
    return UnavailableError("cannot reach ConVGPU scheduler at " +
                            options_.scheduler_socket + ": " +
                            client.status().message());
  }
  protocol::RegisterContainer request;
  request.container_id = key;
  request.memory_limit = limit;
  auto reply = protocol::Expect<protocol::RegisterReply>(
      protocol::Call(**client, protocol::Message(request), /*req_id=*/1));
  if (!reply.ok()) return reply.status();
  if (!reply->ok) {
    return FailedPreconditionError("scheduler refused container: " +
                                   reply->error);
  }
  RunResult result;
  result.scheduler_key = key;
  result.gpu_memory_limit = limit;
  result.socket_dir = reply->socket_dir;
  result.socket_path = reply->socket_path;
  return result;
}

Result<std::pair<containersim::ContainerSpec, RunResult>> NvDocker::Prepare(
    RunRequest request) {
  if (options_.engine == nullptr) {
    return FailedPreconditionError("NvDocker requires an engine");
  }
  auto image = options_.engine->images().Find(request.image);
  if (!image.ok()) return image.status();

  containersim::ContainerSpec spec;
  spec.image = request.image;
  spec.env = request.env;
  spec.vcpus = request.vcpus;
  spec.memory_limit = request.memory_limit;
  spec.entrypoint = std::move(request.entrypoint);

  RunResult result;
  if (!image->NeedsGpu()) {
    // Not a CUDA image: behave exactly like plain docker.
    spec.name = request.name;
    result.scheduler_key = "";
    return std::make_pair(std::move(spec), std::move(result));
  }

  auto limit = ResolveMemoryLimit(request.nvidia_memory, *image);
  if (!limit.ok()) return limit.status();

  const std::string key = !request.name.empty()
                              ? request.name
                              : "cg" + MakeContainerId(key_gen_.Next(), 0xD0C);
  auto registered = RegisterWithScheduler(key, *limit);
  if (!registered.ok()) return registered.status();
  result = *registered;

  spec.name = key;
  // GPU pass-through (what NVIDIA Docker does with --device).
  spec.devices.push_back({options_.gpu_device_path});
  // Driver volume served by the plugin.
  spec.mounts.push_back({"nvidia_driver", "/usr/local/nvidia", "nvidia-docker",
                         /*read_only=*/true});
  // The ConVGPU directory: wrapper module + per-container socket.
  if (!result.socket_dir.empty()) {
    spec.mounts.push_back(
        {result.socket_dir, kContainerConvgpuDir, "", /*read_only=*/false});
    spec.env["LD_PRELOAD"] =
        std::string(kContainerConvgpuDir) + "/libgpushare.so";
    spec.env["CONVGPU_SOCKET"] = result.socket_path;
  }
  spec.env["CONVGPU_CONTAINER_ID"] = key;
  spec.env["CONVGPU_MEMORY_LIMIT"] = std::to_string(*limit);
  // Exit-detection dummy volume (paper §III-B): its unmount is the
  // container-stopped signal.
  spec.mounts.push_back({std::string(kExitVolumePrefix) + key, "/.convgpu",
                         "nvidia-docker", /*read_only=*/true});

  return std::make_pair(std::move(spec), std::move(result));
}

Result<RunResult> NvDocker::Run(RunRequest request) {
  auto prepared = Prepare(std::move(request));
  if (!prepared.ok()) return prepared.status();
  auto& [spec, result] = *prepared;

  // A container that never starts must not hold its registration, or the
  // scheduler keeps its memory assigned for good.
  auto release = [&](const Status& failure) {
    if (!result.container_id.empty()) {
      (void)options_.engine->Remove(result.container_id);
    }
    if (!result.scheduler_key.empty()) {
      Status closed =
          SendContainerClose(options_.scheduler_socket, result.scheduler_key);
      if (!closed.ok()) {
        CONVGPU_LOG(kError, kTag) << "cannot release " << result.scheduler_key
                                  << ": " << closed.ToString();
      }
    }
    return failure;
  };
  auto id = options_.engine->Create(std::move(spec));
  if (!id.ok()) return release(id.status());
  result.container_id = *id;
  auto started = options_.engine->Start(*id);
  if (!started.ok()) return release(started);
  CONVGPU_LOG(kInfo, kTag) << "started " << result.container_id << " (key "
                           << result.scheduler_key << ", GPU limit "
                           << FormatByteSize(result.gpu_memory_limit) << ")";
  return result;
}

}  // namespace convgpu
