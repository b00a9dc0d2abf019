#pragma once

// The traced run's replay of DesignSpaceExplorer::explore(): the same
// public layer calls in explore()'s own single-thread order (expand, then
// per topology build or rebind the context, then per point rebind + map,
// then selection, finalist simulation and the sim re-rank), each wrapped in
// a span, with the layers' own counters read around every call. The
// replayed report must be byte-identical to explore()'s.

#include <cstdint>
#include <string>
#include <vector>

#include "select/explorer.h"
#include "trace.h"

namespace perfbench {

/// Work counters of one replayed request, read from the layers' public
/// stats around each call.
struct LayerCounts {
  long contexts_built = 0;   ///< Contexts the replay constructed.
  long library_contexts = 0; ///< EvalContext::contexts_built() delta.
  long rebinds = 0;
  long evaluated = 0;
  long pruned = 0;
  std::uint64_t metrics_hits = 0, metrics_misses = 0;
  std::uint64_t floorplan_hits = 0, floorplan_misses = 0;
  std::uint64_t route_solves = 0, route_incremental = 0;
  std::uint64_t route_reused = 0, route_rerouted = 0;
  std::uint64_t fplan_solves = 0, fplan_cached = 0, fplan_incremental = 0;
  /// Map time of the fault points minus that of their fault-free twins.
  double fault_extra_map_s = 0.0;
};

/// Replays `request` (its context_pool, when set, is used exactly as
/// explore() uses it). Spans go to `tracer`, counters to `counts`.
[[nodiscard]] sunmap::select::ExplorationReport replay_explore(
    const sunmap::select::ExplorationRequest& request, Tracer& tracer,
    LayerCounts& counts);

/// Per-cell probes on a finished report, timed outside any pass: the
/// reference routing loop and the from-scratch floorplanner on every cell's
/// final mapping. Cross-checks the replayed link load and area against the
/// report and records mismatches in `problems`.
struct CellProbe {
  long cells = 0;
  double route_s = 0.0;
  double place_s = 0.0;
};
CellProbe probe_cells(const sunmap::select::ExplorationReport& report,
                      const sunmap::mapping::CoreGraph& app,
                      std::vector<std::string>& problems);

}  // namespace perfbench
