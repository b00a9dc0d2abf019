#pragma once

// Shared plumbing of the end-to-end benchmark: clocks, digests, order
// statistics, the run options, and the result record every workload fills.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic seconds since an arbitrary fixed origin.
double now_s();

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
/// FNV-1a 64 over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = kFnvBasis);
std::string hex64(std::uint64_t value);

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty vector.
double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty vector.
double quantile(std::vector<double> values, double q);

/// This process's peak resident set size in MB.
double peak_rss_mb_self();

/// Effective parallelism of the host right now: the same fixed spin runs on
/// 1, 2 and 4 threads (best of three each), and effective cores at n
/// threads = n * t1 / tn.
struct Calibration {
  unsigned hardware_threads = 0;
  double effective_cores_2 = 0.0;
  double effective_cores_4 = 0.0;
};
Calibration calibrate();

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrunken inputs (self-test): every workload runs small.
  bool smoke = false;
  /// Self-test fault injection: compare reports against a perturbed
  /// expected digest / drop one daemon reply.
  bool inject_bad_digest = false;
  bool inject_drop_reply = false;
  /// Directory for trace span dumps (inside the checkout).
  std::string out_dir = ".bench_build/perfbench/traces";
};

/// What one run reports: the result line's fields plus the problems that
/// made it incorrect.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  /// name -> (value, unit), printed in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (makes the run incorrect).
  void problem(const std::string& what);
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// Prints the result line (the last line of stdout).
void print_result(const RunResult& result);

/// Progress and diagnostics go to stderr; stdout carries only the result.
void note(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
