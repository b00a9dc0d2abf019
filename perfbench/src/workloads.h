#pragma once

// The four workloads. Each runs one benchmark pass loop for
// Options::seconds and fills a RunResult: the end-to-end metrics when
// Options::trace is off, the per-layer metrics when it is on.

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

/// The paper's four applications over their standard libraries, the
/// 24-point §6 grid each, with phase-3 netlist emit for every winner.
void run_figures_grid(const Options& options, RunResult& result);
/// One seeded 32-core synthetic graph, MP routing, restart annealing.
void run_anneal_synth32(const Options& options, RunResult& result);
/// A second seeded 32-core graph, DO+SM, a fault axis, and the simulator
/// finalist tier with sim ranking on 2 explorer threads.
void run_sim_rank_synth32(const Options& options, RunResult& result);
/// sweep::serve in a child process, closed-loop requests over 2 clients.
void run_daemon_warm(const Options& options, RunResult& result);

/// Recorded FNV-1a digests of a workload's concatenated report JSON (and
/// of its finalists' SimStats), per seed. `found` is false for a seed with
/// no recorded digest: its reports are then unchecked, never passed.
struct ExpectedDigests {
  bool found = false;
  std::uint64_t report = 0;
  std::uint64_t sim_stats = 0;
};
ExpectedDigests expected_digests(const std::string& workload,
                                 std::uint64_t seed, bool smoke);

}  // namespace perfbench
