// convbench: shared types of the repository benchmark.
//
// One process drives a live ConVGPU node: the real scheduler daemon
// (convgpu-scheduler) runs as a child process, and this process plays the
// container host — the container engine, the customized nvidia-docker, the
// volume plugin, and every tenant program (WrapperCore over a
// SocketSchedulerLink over a shared simulated K20m). See convbench/README.md
// for the workloads, the metrics, and what each one reproduces.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace convbench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds since the process-wide benchmark epoch (steady clock).
double NowSeconds();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for daemon state, result files and span dumps; a
  /// relative path so socket paths stay short wherever the checkout lives.
  std::string run_dir = ".bench_run";
  std::string daemon_binary;
};

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Outcome of one benchmark run: the result line's correctness counters, the
/// metrics, the recorded environment, and human-readable diagnostics.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  std::map<std::string, std::string> env;
  /// Named output checks: how many times each ran and how often it failed.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> checks;
  std::vector<std::string> diagnostics;

  void Check(const std::string& name, bool ok) {
    auto& [ran, bad] = checks[name];
    ++ran;
    if (!ok) ++bad;
  }
};

/// Sorted-copy percentile (nearest rank on [0, 1]); 0 for an empty set.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// "highest percentile with at least ten samples beyond it": for n samples
/// the largest q such that n * (1 - q) >= 10, as a percentage and its value.
std::string TailDiagnostic(const std::string& name, std::vector<double> values,
                           const std::string& unit);

}  // namespace convbench
