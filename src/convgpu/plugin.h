// NvDockerPlugin: the nvidia-docker-plugin analogue (paper §II-D, §III-B).
//
// A Docker volume plugin with two jobs:
//  1. serve driver volumes ("nvidia_driver") to containers;
//  2. watch the dummy exit-detection volume — when Docker unmounts it the
//     container has stopped, and the plugin sends the scheduler a *close*
//     signal for that container.
#pragma once

#include <vector>
#include <string>

#include "common/mutex.h"
#include "common/result.h"
#include "containersim/volume.h"

namespace convgpu {

class NvDockerPlugin final : public containersim::VolumePlugin {
 public:
  struct Options {
    /// Host directory under which driver volumes are materialized.
    std::string volume_root = "/tmp/convgpu-volumes";
    /// Scheduler main socket for close signals.
    std::string scheduler_socket;
  };

  explicit NvDockerPlugin(Options options) : options_(std::move(options)) {}

  Result<std::string> Mount(const std::string& volume_name,
                            const std::string& container_id) override;
  void Unmount(const std::string& volume_name,
               const std::string& container_id) override;

  /// Containers whose close signal has been sent (for tests/metrics).
  [[nodiscard]] std::vector<std::string> closed_containers() const;

 private:
  Options options_;
  mutable Mutex mutex_;
  std::vector<std::string> closed_ GUARDED_BY(mutex_);
};

}  // namespace convgpu
