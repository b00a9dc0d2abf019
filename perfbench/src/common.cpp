#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

namespace {

/// Fixed integer work (xorshift steps) the calibration runs per thread.
void spin(std::uint64_t steps, std::atomic<std::uint64_t>& sink) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink.fetch_add(x, std::memory_order_relaxed);
}

/// Best of three timings of the spin on `threads` threads.
double spin_seconds(int threads, std::uint64_t steps) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::atomic<std::uint64_t> sink{0};
    const double start = now_s();
    std::vector<std::thread> pool;
    for (int i = 1; i < threads; ++i) {
      pool.emplace_back([&] { spin(steps, sink); });
    }
    spin(steps, sink);
    for (auto& thread : pool) thread.join();
    const double elapsed = now_s() - start;
    best = rep == 0 ? elapsed : std::min(best, elapsed);
  }
  return best;
}

}  // namespace

Calibration calibrate() {
  constexpr std::uint64_t kSteps = 20'000'000;
  Calibration calibration;
  calibration.hardware_threads = std::thread::hardware_concurrency();
  const double t1 = spin_seconds(1, kSteps);
  calibration.effective_cores_2 = 2.0 * t1 / spin_seconds(2, kSteps);
  calibration.effective_cores_4 = 4.0 * t1 / spin_seconds(4, kSteps);
  return calibration;
}

void RunResult::metric(const std::string& name, double value,
                       const std::string& unit) {
  if (!std::isfinite(value)) {
    problem("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.emplace_back(name, std::make_pair(value, unit));
}

void RunResult::problem(const std::string& what) {
  // Repeats (the same check failing on every pass) are noted once.
  if (std::find(problems.begin(), problems.end(), what) == problems.end()) {
    note("CHECK FAILED: %s", what.c_str());
  }
  problems.push_back(what);
}

void print_result(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              result.correct() ? "true" : "false", result.attempted,
              result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value] = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), value.first,
                value.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void note(const char* format, ...) {
  // One write per line, so notes from the client threads do not interleave.
  char line[1024];
  std::va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  std::fprintf(stderr, "perfbench: %s\n", line);
}

}  // namespace perfbench
