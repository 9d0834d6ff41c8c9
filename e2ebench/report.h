// Result reporting shared by the wire run and the traced run.

#ifndef VIEWAUTH_E2EBENCH_REPORT_H_
#define VIEWAUTH_E2EBENCH_REPORT_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// The q-quantile (0 < q <= 1) by the nearest-rank rule; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank), values.end());
  return values[rank];
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::string first_failure;
  std::vector<Metric> metrics;

  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

// Prints the result as the last line of standard output, and the first
// failure (if any) on standard error.
inline void PrintResult(const RunResult& r) {
  if (!r.first_failure.empty()) {
    std::fprintf(stderr, "e2ebench: first failure: %s\n", r.first_failure.c_str());
  }
  bool finite = true;
  for (const Metric& m : r.metrics) finite = finite && std::isfinite(m.value);
  std::string json = "{\"correct\": ";
  json += r.correct && finite ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g",
                  std::isfinite(r.metrics[i].value) ? r.metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace e2ebench

#endif  // VIEWAUTH_E2EBENCH_REPORT_H_
