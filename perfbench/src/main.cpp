// SUNMAP end-to-end benchmark program.
//
//   sunmap_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   sunmap_perfbench --self-test
//   sunmap_perfbench --list-metrics
//
// A run prints diagnostics on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. It exits 1
// when any output check failed, 2 on a usage error.

#include <csignal>
#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "common.h"
#include "layers.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;
using Runner = std::function<void(const Options&, RunResult&)>;

const std::map<std::string, Runner>& workloads() {
  static const std::map<std::string, Runner> table = {
      {"figures_grid", perfbench::run_figures_grid},
      {"anneal_synth32", perfbench::run_anneal_synth32},
      {"sim_rank_synth32", perfbench::run_sim_rank_synth32},
      {"daemon_warm", perfbench::run_daemon_warm},
  };
  return table;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: sunmap_perfbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> | --self-test | "
               "--list-metrics\n",
               message);
  return 2;
}

RunResult run(const Options& options) {
  RunResult result;
  try {
    workloads().at(options.workload)(options, result);
  } catch (const std::exception& e) {
    result.problem(std::string("workload threw: ") + e.what());
  }
  if (result.attempted < 1) result.problem("no operation was attempted");
  return result;
}

/// Runs every workload on shrunken inputs, untraced and traced, and proves
/// that a perturbed report digest and a dropped daemon reply both count as
/// failures.
int self_test() {
  bool ok = true;
  const auto expect = [&](const char* what, bool condition) {
    std::fprintf(stderr, "self-test: %-52s %s\n", what,
                 condition ? "ok" : "FAILED");
    ok = ok && condition;
  };
  for (const auto& [name, runner] : workloads()) {
    Options options;
    options.workload = name;
    options.smoke = true;
    options.seconds = 0.5;
    options.out_dir = ".bench_build/perfbench/selftest";
    for (const bool trace : {false, true}) {
      options.trace = trace;
      const RunResult result = run(options);
      const std::string what =
          name + (trace ? " traced run is correct" : " run is correct");
      expect(what.c_str(), result.correct() && result.failed == 0);
    }
    options.trace = false;
    const bool daemon = name == "daemon_warm";
    options.inject_bad_digest = !daemon;
    options.inject_drop_reply = daemon;
    const RunResult broken = run(options);
    const std::string what =
        name + (daemon ? " dropped reply counts as failed"
                       : " perturbed digest counts as failed");
    expect(what.c_str(), !broken.correct() && broken.failed > 0);
  }
  std::fprintf(stderr, "self-test: %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // A vanished daemon must not kill us.
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (arg == "--self-test") return self_test();
    if (arg == "--list-metrics") {
      for (const auto& metric : perfbench::layer_metrics()) {
        std::printf("%s %s %s\n", metric.name, metric.unit, metric.better);
      }
      return 0;
    }
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
        options.trace = trace == "1";
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || workloads().count(options.workload) == 0) {
    return usage("--workload must be one of figures_grid, anneal_synth32, "
                 "sim_rank_synth32, daemon_warm");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  const RunResult result = run(options);
  perfbench::print_result(result);
  return result.correct() ? 0 : 1;
}
