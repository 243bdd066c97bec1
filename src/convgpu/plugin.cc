#include "convgpu/plugin.h"

#include <filesystem>

#include "common/log.h"
#include "convgpu/nvdocker.h"

namespace convgpu {

namespace {
constexpr char kTag[] = "plugin";
}

Result<std::string> NvDockerPlugin::Mount(const std::string& volume_name,
                                          const std::string& container_id) {
  (void)container_id;
  const std::string path = options_.volume_root + "/" + volume_name;
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return InternalError("cannot materialize volume " + volume_name + ": " +
                         ec.message());
  }
  return path;
}

void NvDockerPlugin::Unmount(const std::string& volume_name,
                             const std::string& container_id) {
  (void)container_id;
  // Only the dummy exit-detection volume carries the scheduler key; driver
  // volume unmounts are uninteresting.
  const std::string_view prefix = kExitVolumePrefix;
  if (!volume_name.starts_with(prefix)) return;
  const std::string key = volume_name.substr(prefix.size());
  CONVGPU_LOG(kInfo, kTag) << "container " << key
                           << " exited (dummy volume unmounted), sending close";
  Status closed = SendContainerClose(options_.scheduler_socket, key);
  if (!closed.ok()) {
    CONVGPU_LOG(kError, kTag) << "cannot send close signal for " << key
                              << ": " << closed.ToString();
  }
  MutexLock lock(mutex_);
  closed_.push_back(key);
}

std::vector<std::string> NvDockerPlugin::closed_containers() const {
  MutexLock lock(mutex_);
  return closed_;
}

}  // namespace convgpu
