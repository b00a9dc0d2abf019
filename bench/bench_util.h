#pragma once

// Shared helpers for the benchmark harnesses. Each bench binary regenerates
// one of the paper's tables/figures (printed before the google-benchmark
// timers run) — see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "mapping/mapper.h"

namespace sunmap::bench {

inline void print_heading(const std::string& title) {
  std::printf("\n===== %s =====\n", title.c_str());
}

/// The experimental setup of §6.1: minimum-path routing, minimise delay,
/// 500 MB/s links ("The maximum link bandwidth for the NoCs is
/// conservatively assumed to be 500 MB/s").
inline mapping::MapperConfig video_config() {
  mapping::MapperConfig config;
  config.routing = route::RoutingKind::kMinPath;
  config.objective = mapping::Objective::kMinDelay;
  config.link_bandwidth_mbps = 500.0;
  return config;
}

/// Fixed integer work (xorshift steps) for the core calibration.
inline void calibration_spin(std::uint64_t steps,
                             std::atomic<std::uint64_t>& sink) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink.fetch_add(x, std::memory_order_relaxed);
}

/// Best of three wall times of the spin run on `threads` threads at once.
inline double calibration_seconds(int threads, std::uint64_t steps) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::atomic<std::uint64_t> sink{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int i = 1; i < threads; ++i) {
      pool.emplace_back([&] { calibration_spin(steps, sink); });
    }
    calibration_spin(steps, sink);
    for (auto& thread : pool) thread.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    best = rep == 0 ? elapsed : std::min(best, elapsed);
  }
  return best;
}

/// Cores the host really gives `threads` busy threads right now: the same
/// spin timed alone and on `threads` threads, as threads * t1 / t_threads.
/// On a shared host this swings within minutes, whatever
/// hardware_concurrency() says, so a parallel bar is keyed on a figure
/// measured in the same run as the leg it judges.
inline double effective_cores(int threads) {
  constexpr std::uint64_t kSteps = 20'000'000;
  const double alone = calibration_seconds(1, kSteps);
  return static_cast<double>(threads) * alone /
         calibration_seconds(threads, kSteps);
}

/// Effective cores below which a two-worker speedup bar is not judged.
inline constexpr double kParallelGateCores = 1.9;

/// Judges a two-worker speedup bar given the effective cores measured
/// around the parallel leg. Below kParallelGateCores it prints "not gated"
/// (never a pass) and returns true; otherwise it prints the verdict and
/// returns whether `speedup` reaches `bar`.
inline bool parallel_bar_holds(const char* leg, double speedup, double bar,
                               double cores) {
  if (cores < kParallelGateCores) {
    std::printf("not gated: host gives %.2f cores (%s: %.2fx measured; the "
                "%.1fx bar needs >= %.1f cores)\n",
                cores, leg, speedup, bar, kParallelGateCores);
    return true;
  }
  if (speedup < bar) {
    std::fprintf(stderr,
                 "FAIL: %s is only %.2fx with %.2f effective cores (need >= "
                 "%.1fx)\n",
                 leg, speedup, cores, bar);
    return false;
  }
  std::printf("pass: %s %.2fx >= %.1fx with %.2f effective cores\n", leg,
              speedup, bar, cores);
  return true;
}

/// Runs the registered google-benchmark timers after the tables printed.
inline int run_benchmarks(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

}  // namespace sunmap::bench
