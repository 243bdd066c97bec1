#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace convbench {

double NowSeconds() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return std::chrono::duration<double>(SteadyClock::now() - epoch).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(values.size() - 1)));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

std::string TailDiagnostic(const std::string& name, std::vector<double> values,
                           const std::string& unit) {
  const std::size_t count = values.size();
  char line[256];
  if (count < 20) {
    std::snprintf(line, sizeof line, "tail %s: n=%zu (too few for a tail)",
                  name.c_str(), count);
    return line;
  }
  // Largest q with n * (1 - q) >= 10, in steps of 0.1 percentile points.
  double q = std::floor((1.0 - 10.0 / static_cast<double>(count)) * 1000.0) / 1000.0;
  q = std::clamp(q, 0.5, 0.9999);
  const double value = Percentile(std::move(values), q);
  std::snprintf(line, sizeof line, "tail %s: n=%zu p%.1f=%.2f %s", name.c_str(),
                count, q * 100.0, value, unit.c_str());
  return line;
}

}  // namespace convbench
