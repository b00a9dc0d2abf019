// Experiment SEARCH — the cross-PR perf probe for the pluggable mapping
// search subsystem. Two sections, over VOPD / MPEG4 / netproc16 on their
// meshes:
//
//  * strategies — greedy swaps vs single-seed simulated annealing vs the
//    multi-restart annealer at the SAME total iteration budget. The restart
//    annealer must never return a worse cost than the single-seed chain on
//    the VOPD mesh (the acceptance bar for best-of-restarts).
//
//  * pruning — min-area and min-power greedy-swap searches with the
//    objective-generic lower-bound pruning on vs off. The pruned search
//    must return the bit-identical mapping and cost (the bounds are
//    admissible) while pruning the majority of candidates.
//
// `--json[=path]` dumps BENCH_search.json so CI tracks both wall clocks and
// the correctness invariants across PRs.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "topo/library.h"
#include "util/table.h"

#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace sunmap;

struct Workload {
  const char* name;
  mapping::CoreGraph app;
  std::unique_ptr<topo::Topology> mesh;
  /// Link capacity making the mesh mapping bandwidth-feasible (the paper's
  /// 500 MB/s for VOPD; MPEG4 and netproc peak at ~900 MB/s links). The
  /// bound pruning requires a feasible incumbent, as production-sized
  /// searches have, so an infeasible workload would measure nothing.
  double link_bandwidth_mbps;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({"vopd", apps::vopd(), nullptr, 500.0});
  out.push_back({"mpeg4", apps::mpeg4(), nullptr, 1000.0});
  out.push_back({"netproc16", apps::netproc16(), nullptr, 1000.0});
  for (auto& w : out) w.mesh = topo::make_mesh_for(w.app.num_cores());
  return out;
}

double timed_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

constexpr int kAnnealIterations = 2000;
constexpr int kRestarts = 4;

struct StrategyRow {
  std::string key;
  double wall_ms = 0.0;
  double cost = 0.0;
  bool feasible = false;
  int evaluated = 0;
};

struct PruneRow {
  std::string key;
  double pruned_ms = 0.0;
  double unpruned_ms = 0.0;
  int evaluated = 0;
  int pruned = 0;
  bool bit_identical = false;

  [[nodiscard]] double fraction() const {
    return evaluated > 0 ? static_cast<double>(pruned) / evaluated : 0.0;
  }
};

mapping::MapperConfig strategy_config(mapping::SearchKind kind,
                                      const Workload& w) {
  auto config = sunmap::bench::video_config();
  config.link_bandwidth_mbps = w.link_bandwidth_mbps;
  config.search = kind;
  config.annealing_iterations = kAnnealIterations;
  config.annealing_restarts = kRestarts;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our own --json[=path] flag before google-benchmark sees the
  // arguments.
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_search.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argv[kept] = nullptr;
  argc = kept;

  const auto total_start = std::chrono::steady_clock::now();
  auto loads = workloads();

  // ---- Strategy comparison at equal total iteration budget. ----
  bench::print_heading(
      "Search strategies: greedy swaps vs single-seed SA vs restart SA "
      "(equal total iterations)");
  std::vector<StrategyRow> strategy_rows;
  util::Table strategies({"app", "strategy", "wall ms", "cost", "feasible",
                          "evaluated"});
  bool restart_never_worse = true;
  for (const auto& w : loads) {
    double single_cost = 0.0;
    double restart_cost = 0.0;
    for (const auto kind : {mapping::SearchKind::kGreedySwaps,
                            mapping::SearchKind::kAnnealing,
                            mapping::SearchKind::kRestartAnnealing}) {
      const mapping::Mapper mapper(strategy_config(kind, w));
      mapping::MappingResult result;
      const double ms =
          timed_ms([&] { result = mapper.map(w.app, *w.mesh); });
      StrategyRow row;
      row.key = std::string(w.name) + "_" + mapping::to_string(kind);
      row.wall_ms = ms;
      row.cost = result.eval.cost;
      row.feasible = result.eval.feasible();
      row.evaluated = result.evaluated_mappings;
      strategies.add_row({w.name, mapping::to_string(kind),
                          util::Table::num(ms, 1),
                          util::Table::num(row.cost, 4),
                          row.feasible ? "yes" : "no",
                          std::to_string(row.evaluated)});
      if (kind == mapping::SearchKind::kAnnealing) single_cost = row.cost;
      if (kind == mapping::SearchKind::kRestartAnnealing) {
        restart_cost = row.cost;
      }
      strategy_rows.push_back(std::move(row));
    }
    if (restart_cost > single_cost) {
      restart_never_worse = false;
      std::fprintf(stderr,
                   "FAIL: restart annealer worse than single seed on %s "
                   "(%.17g > %.17g)\n",
                   w.name, restart_cost, single_cost);
    }
  }
  std::printf("%s", strategies.to_string().c_str());

  // ---- Bound-pruning effectiveness + admissibility. ----
  bench::print_heading(
      "Objective-generic bound pruning: min-area / min-power greedy swaps, "
      "pruned vs prune-disabled reference");
  std::vector<PruneRow> prune_rows;
  util::Table pruning({"app", "objective", "pruned ms", "unpruned ms",
                       "evaluated", "pruned", "fraction", "bit-identical"});
  bool all_identical = true;
  double min_fraction = 1.0;
  for (const auto& w : loads) {
    for (const auto objective :
         {mapping::Objective::kMinArea, mapping::Objective::kMinPower}) {
      auto config = sunmap::bench::video_config();
      config.link_bandwidth_mbps = w.link_bandwidth_mbps;
      config.objective = objective;
      const mapping::Mapper fast(config);
      auto reference_config = config;
      reference_config.bound_pruning = false;
      const mapping::Mapper reference(reference_config);

      mapping::MappingResult pruned_result, reference_result;
      PruneRow row;
      row.key = std::string(w.name) + "_" + mapping::to_string(objective);
      row.pruned_ms =
          timed_ms([&] { pruned_result = fast.map(w.app, *w.mesh); });
      row.unpruned_ms = timed_ms(
          [&] { reference_result = reference.map(w.app, *w.mesh); });
      row.evaluated = pruned_result.evaluated_mappings;
      row.pruned = pruned_result.pruned_mappings;
      row.bit_identical =
          pruned_result.core_to_slot == reference_result.core_to_slot &&
          pruned_result.eval.cost == reference_result.eval.cost &&
          pruned_result.eval.design_area_mm2 ==
              reference_result.eval.design_area_mm2 &&
          pruned_result.eval.design_power_mw ==
              reference_result.eval.design_power_mw;
      all_identical = all_identical && row.bit_identical;
      min_fraction = std::min(min_fraction, row.fraction());
      pruning.add_row({w.name, mapping::to_string(objective),
                       util::Table::num(row.pruned_ms, 1),
                       util::Table::num(row.unpruned_ms, 1),
                       std::to_string(row.evaluated),
                       std::to_string(row.pruned),
                       util::Table::num(row.fraction(), 3),
                       row.bit_identical ? "yes" : "NO"});
      prune_rows.push_back(std::move(row));
    }
  }
  std::printf("%s", pruning.to_string().c_str());

  // ---- Simulated annealing through the transactional session path. ------
  //
  // SA rejects roughly half its candidates, so every run exercises the
  // DeltaTxn floorplan-session pushes and pops on accept and reject. The
  // runs are timed as sub-benchmarks; their bit-identity with the
  // from-scratch evaluator is delta_txn_test's job, and bench_floorplan
  // gates the session itself against Floorplanner::place.
  //
  // Setup notes: netproc16 is excluded — its cores share one shape class on
  // a fully occupied mesh, so every mapping has the same floorplan key and
  // the floorplan path is never exercised. Routing is dimension-ordered
  // (static route tables), so the Dijkstras of the load-adaptive functions
  // do not drown the floorplan work. Each workload runs with the default
  // sizing descent and with the rigid engine (sizing_passes = 0).
  bench::print_heading(
      "Transactional SA: incremental floorplan deltas across accept/reject");
  apps::SyntheticSpec synth_spec;
  synth_spec.num_cores = 48;
  synth_spec.edge_density = 0.05;
  synth_spec.seed = 42;
  const auto synth_app = apps::synthetic(synth_spec);
  const auto synth_mesh = topo::make_mesh_for(64);
  struct SaWorkload {
    std::string name;
    const mapping::CoreGraph* app;
    const topo::Topology* mesh;
    double link_bandwidth_mbps;
    int iterations;
  };
  std::vector<SaWorkload> sa_workloads;
  sa_workloads.push_back(
      {"vopd", &loads[0].app, loads[0].mesh.get(), 500.0, kAnnealIterations});
  sa_workloads.push_back(
      {"mpeg4", &loads[1].app, loads[1].mesh.get(), 1000.0,
       kAnnealIterations});
  sa_workloads.push_back(
      {"synth48", &synth_app, synth_mesh.get(), 4000.0, 1000});

  std::vector<std::pair<std::string, double>> sa_rows;
  util::Table sa_table({"workload", "sizing", "ms"});
  for (const auto& w : sa_workloads) {
    for (const bool rigid : {false, true}) {
      mapping::MapperConfig config;
      config.routing = route::RoutingKind::kDimensionOrdered;
      config.link_bandwidth_mbps = w.link_bandwidth_mbps;
      config.search = mapping::SearchKind::kAnnealing;
      config.annealing_iterations = w.iterations;
      if (rigid) config.floorplan.sizing_passes = 0;

      const mapping::Mapper mapper(config);
      double ms = std::numeric_limits<double>::infinity();
      for (int round = 0; round < 3; ++round) {
        ms = std::min(ms, timed_ms([&] {
          benchmark::DoNotOptimize(mapper.map(*w.app, *w.mesh));
        }));
      }
      sa_table.add_row({w.name, rigid ? "rigid" : "default",
                        util::Table::num(ms, 1)});
      sa_rows.emplace_back(w.name + (rigid ? "_sa_rigid" : "_sa"), ms);
    }
  }
  std::printf("%s", sa_table.to_string().c_str());

  // Per-objective aggregate pruning rates over the three workloads — the
  // acceptance bar: min-area and min-power searches must each bound-prune
  // the majority of their candidates. (Individual runs are reported above;
  // the loosest is min-power on the fully-occupied netproc16 mesh, where
  // the bound is ~94% tight but most candidates are within a few percent
  // of the incumbent.)
  double area_fraction = 0.0;
  double power_fraction = 0.0;
  {
    long area_eval = 0, area_pruned = 0, power_eval = 0, power_pruned = 0;
    for (const auto& row : prune_rows) {
      const bool is_area = row.key.find("min-area") != std::string::npos;
      (is_area ? area_eval : power_eval) += row.evaluated;
      (is_area ? area_pruned : power_pruned) += row.pruned;
    }
    area_fraction =
        area_eval > 0 ? static_cast<double>(area_pruned) / area_eval : 0.0;
    power_fraction =
        power_eval > 0 ? static_cast<double>(power_pruned) / power_eval : 0.0;
    std::printf("aggregate prune fraction: min-area %.3f, min-power %.3f\n",
                area_fraction, power_fraction);
  }

  const auto total_end = std::chrono::steady_clock::now();
  const double total_ms =
      std::chrono::duration<double, std::milli>(total_end - total_start)
          .count();

  int status = 0;
  if (!restart_never_worse) status = 1;
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: pruned search diverged from the prune-disabled "
                 "reference\n");
    status = 1;
  }
  if (area_fraction <= 0.5 || power_fraction <= 0.5) {
    std::fprintf(stderr,
                 "FAIL: aggregate bound pruning below the 50%% bar "
                 "(min-area %.1f%%, min-power %.1f%%)\n",
                 100.0 * area_fraction, 100.0 * power_fraction);
    status = 1;
  }

  if (!json_path.empty()) {
    FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"benchmark\": \"search_strategies\",\n"
                 "  \"wall_ms\": %.3f,\n"
                 "  \"anneal_iterations\": %d,\n"
                 "  \"restarts\": %d,\n"
                 "  \"restart_never_worse\": %s,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"min_prune_fraction\": %.4f,\n"
                 "  \"min_area_prune_fraction\": %.4f,\n"
                 "  \"min_power_prune_fraction\": %.4f,\n",
                 total_ms, kAnnealIterations, kRestarts,
                 restart_never_worse ? "true" : "false",
                 all_identical ? "true" : "false", min_fraction,
                 area_fraction, power_fraction);
    std::fprintf(out, "  \"strategies\": [\n");
    for (std::size_t i = 0; i < strategy_rows.size(); ++i) {
      const auto& row = strategy_rows[i];
      std::fprintf(out,
                   "    {\"run\": \"%s\", \"wall_ms\": %.3f, "
                   "\"cost\": %.17g, \"feasible\": %s, \"evaluated\": %d}%s\n",
                   row.key.c_str(), row.wall_ms, row.cost,
                   row.feasible ? "true" : "false", row.evaluated,
                   i + 1 < strategy_rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"pruning\": [\n");
    for (std::size_t i = 0; i < prune_rows.size(); ++i) {
      const auto& row = prune_rows[i];
      std::fprintf(
          out,
          "    {\"run\": \"%s\", \"wall_ms\": %.3f, "
          "\"unpruned_wall_ms\": %.3f, \"evaluated\": %d, \"pruned\": %d, "
          "\"prune_fraction\": %.4f, \"bit_identical\": %s}%s\n",
          row.key.c_str(), row.pruned_ms, row.unpruned_ms, row.evaluated,
          row.pruned, row.fraction(), row.bit_identical ? "true" : "false",
          i + 1 < prune_rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"sub_benchmarks\": {\n");
    for (std::size_t i = 0; i < strategy_rows.size(); ++i) {
      std::fprintf(out, "    \"%s\": %.3f,\n",
                   strategy_rows[i].key.c_str(), strategy_rows[i].wall_ms);
    }
    for (const auto& [key, ms] : sa_rows) {
      std::fprintf(out, "    \"%s\": %.3f,\n", key.c_str(), ms);
    }
    for (std::size_t i = 0; i < prune_rows.size(); ++i) {
      std::fprintf(out, "    \"%s_pruned\": %.3f%s\n",
                   prune_rows[i].key.c_str(), prune_rows[i].pruned_ms,
                   i + 1 < prune_rows.size() ? "," : "");
    }
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (status != 0) return status;
  return sunmap::bench::run_benchmarks(argc, argv);
}
