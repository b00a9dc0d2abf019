// The three batch workloads: each pass explores every request of the
// workload in-process, renders its JSON report and emits the phase-3
// netlist of every objective winner.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>

#include "apps/apps.h"
#include "fault/fault.h"
#include "gen/netlist.h"
#include "io/exploration_io.h"
#include "layers.h"
#include "replay.h"
#include "select/explorer.h"
#include "sweep/coordinator.h"
#include "topo/library.h"
#include "util/prng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sm = sunmap::mapping;
namespace ss = sunmap::select;
using sunmap::route::RoutingKind;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 21;
/// Passes a run makes at least, however long they take.
constexpr int kMinPasses = 3;
/// A run stops starting passes after this many seconds, so it always ends
/// well inside its time limit.
constexpr double kPassBudgetS = 120.0;

struct AppInput {
  explicit AppInput(sm::CoreGraph app_in) : app(std::move(app_in)) {}

  sm::CoreGraph app;
  std::vector<std::unique_ptr<sunmap::topo::Topology>> library;
};

/// A workload's inputs: the apps and libraries its requests borrow.
struct Batch {
  std::vector<std::unique_ptr<AppInput>> inputs;
  std::vector<ss::ExplorationRequest> requests;
  double library_s = 0.0;  ///< Time spent in topo::standard_library.

  ss::ExplorationRequest& add(sm::CoreGraph app) {
    auto input = std::make_unique<AppInput>(std::move(app));
    const double start = now_s();
    input->library = sunmap::topo::standard_library(input->app.num_cores());
    library_s += now_s() - start;
    ss::ExplorationRequest& request = requests.emplace_back();
    request.app = &input->app;
    request.library = &input->library;
    inputs.push_back(std::move(input));
    return request;
  }

  [[nodiscard]] long cells(std::size_t r) const {
    return static_cast<long>(requests[r].num_points() *
                             requests[r].library->size());
  }
};

Batch make_figures_grid(const Options& options, std::uint64_t) {
  Batch batch;
  std::vector<sm::CoreGraph> apps;
  if (options.smoke) {
    apps = {sunmap::apps::dsp_filter(), sunmap::apps::vopd()};
  } else {
    apps = {sunmap::apps::vopd(), sunmap::apps::mpeg4(),
            sunmap::apps::dsp_filter(), sunmap::apps::netproc16()};
  }
  for (auto& app : apps) {
    auto& request = batch.add(std::move(app));
    if (options.smoke) {
      request.routings = {RoutingKind::kDimensionOrdered, RoutingKind::kMinPath};
      request.objectives = {sm::Objective::kMinDelay};
      request.link_bandwidths_mbps = {1000.0};
    } else {
      request.routings = {RoutingKind::kDimensionOrdered, RoutingKind::kMinPath,
                          RoutingKind::kSplitMin, RoutingKind::kSplitAll};
      request.objectives = {sm::Objective::kMinDelay, sm::Objective::kMinArea,
                            sm::Objective::kMinPower};
      request.link_bandwidths_mbps = {500.0, 1000.0};
    }
  }
  return batch;
}

sunmap::apps::SyntheticSpec synthetic_spec(const Options& options,
                                           std::uint64_t graph_seed) {
  sunmap::apps::SyntheticSpec spec;
  spec.num_cores = options.smoke ? 12 : 32;
  spec.edge_density = 0.15;
  spec.seed = graph_seed;
  return spec;
}

/// The generator seed of a workload's 32-core TGFF-style graph (edge
/// density 0.15): the first of `seed` and its own sub-seed sequence whose
/// graph has 170-180 flows. Unconditioned, the flow count swings by about
/// ±15% across seeds (152-206 over seeds 1-20) and the evaluation time
/// follows it; conditioning keeps every seed's workload the same size
/// within ±3%. Choosing the seed is input making, not set-up: the timed
/// set-up generates the chosen graph once.
std::uint64_t synthetic_seed(const Options& options, std::uint64_t seed) {
  auto spec = synthetic_spec(options, seed);
  sunmap::util::Prng draws(seed);
  for (;;) {
    const auto flows = sunmap::apps::synthetic(spec).num_flows();
    if (options.smoke || (flows >= 170 && flows <= 180)) return spec.seed;
    spec.seed = draws.next();
  }
}

Batch make_anneal_synth32(const Options& options, std::uint64_t graph_seed) {
  Batch batch;
  auto& request =
      batch.add(sunmap::apps::synthetic(synthetic_spec(options, graph_seed)));
  request.base.routing = RoutingKind::kMinPath;
  request.base.objective = sm::Objective::kMinDelay;
  request.base.link_bandwidth_mbps = 4000.0;
  request.base.search = sm::SearchKind::kRestartAnnealing;
  request.base.annealing_restarts = 4;
  request.base.annealing_iterations = options.smoke ? 200 : 2000;
  request.base.annealing_seed = options.seed;
  return batch;
}

Batch make_sim_rank_synth32(const Options& options,
                            std::uint64_t graph_seed) {
  Batch batch;
  auto& request =
      batch.add(sunmap::apps::synthetic(synthetic_spec(options, graph_seed)));
  request.base.link_bandwidth_mbps = 4000.0;
  request.base.search = sm::SearchKind::kGreedySwaps;
  request.base.sim_traffic = sm::SimTraffic::kBursty;
  request.base.sim_seed = options.seed;
  request.routings = {RoutingKind::kDimensionOrdered, RoutingKind::kSplitMin};
  request.objectives = {sm::Objective::kMinDelay, sm::Objective::kMinPower};
  sunmap::fault::FaultSet random_links;
  random_links.spec.kind = sunmap::fault::FaultSpec::Kind::kRandom;
  random_links.spec.num_scenarios = 4;
  random_links.spec.faults_per_scenario = 1;
  random_links.spec.seed = options.seed;
  request.fault_sets = {sunmap::fault::FaultSet{}, random_links};
  request.sim_finalists = options.smoke ? 2 : 8;
  request.sim_rank = true;
  request.num_threads = 2;
  return batch;
}

/// Summary of the finalist scores attached to a pass's reports.
struct SimSummary {
  long cells = 0;
  double cycles = 0.0;
  double flit_events = 0.0;
  long saturated = 0;
  double model_error_max = 0.0;
  std::uint64_t stats_digest = kFnvBasis;

  void add(const ss::ExplorationReport& report) {
    for (const auto& result : report.results) {
      for (const auto& candidate : result.selection.candidates) {
        if (!candidate.sim.has_value()) continue;
        const auto& score = *candidate.sim;
        const auto& s = score.stats;
        ++cells;
        cycles += static_cast<double>(s.cycles);
        flit_events += static_cast<double>(s.flit_events);
        saturated += s.saturated ? 1 : 0;
        model_error_max = cells == 1 ? score.model_error()
                                     : std::max(model_error_max,
                                                score.model_error());
        // Every SimStats field, by value, in cell order.
        const double reals[] = {s.avg_latency_cycles,
                                s.max_latency_cycles,
                                s.p50_latency_cycles,
                                s.p95_latency_cycles,
                                s.p99_latency_cycles,
                                s.throughput_flits_per_cycle_per_slot,
                                s.offered_flits_per_cycle_per_slot,
                                score.analytical_latency_cycles};
        const std::uint64_t counts[] = {
            s.cycles,         s.packets_generated,
            s.packets_delivered, static_cast<std::uint64_t>(s.saturated),
            static_cast<std::uint64_t>(s.status), s.stalled_cycles,
            s.undelivered_packets, s.flit_events};
        stats_digest = fnv1a(
            std::string_view(reinterpret_cast<const char*>(reals),
                             sizeof(reals)),
            stats_digest);
        stats_digest = fnv1a(
            std::string_view(reinterpret_cast<const char*>(counts),
                             sizeof(counts)),
            stats_digest);
      }
    }
  }
};

/// One pass over every request of a batch.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> request_s;
  std::string reports;  ///< Every request's JSON report, concatenated.
  std::uint64_t emit_digest = kFnvBasis;
  SimSummary sim;
  double json_bytes = 0.0;
  long cells = 0;
  long failed_cells = 0;
  /// The pass's reports (kept only when asked for, for the probes).
  std::vector<ss::ExplorationReport> kept;
};

/// Runs one pass: explore() when `tracer` is null, the layered replay
/// otherwise. Throws and output-check failures fail the request's cells.
Pass run_pass(const Batch& batch, Tracer* tracer, LayerCounts* counts,
              bool keep, RunResult& result) {
  Pass pass;
  const ss::DesignSpaceExplorer explorer;
  const sunmap::gen::SystemCWriter writer;
  const double start = now_s();
  {
    Scope root(tracer, "pass");
    for (std::size_t r = 0; r < batch.requests.size(); ++r) {
      const auto& request = batch.requests[r];
      pass.cells += batch.cells(r);
      const double request_start = now_s();
      try {
        ss::ExplorationReport report =
            tracer != nullptr ? replay_explore(request, *tracer, *counts)
                              : explorer.explore(request);
        {
          Scope span(tracer, "io.json");
          pass.reports += sunmap::io::exploration_report_json(report);
          pass.reports += '\n';
        }
        bool any_winner = false;
        {
          Scope span(tracer, "gen.emit");
          for (const auto& best : report.winners) {
            if (!best.found()) continue;
            any_winner = true;
            const auto& candidate =
                report.results[static_cast<std::size_t>(best.point_index)]
                    .selection
                    .candidates[static_cast<std::size_t>(best.topology_index)];
            const auto netlist = sunmap::gen::Netlist::build(
                *candidate.topology, *request.app,
                candidate.result.core_to_slot,
                &candidate.result.eval.floorplan);
            const auto out = writer.emit(netlist);
            pass.emit_digest = fnv1a(out.header, pass.emit_digest);
            pass.emit_digest = fnv1a(out.top, pass.emit_digest);
          }
        }
        if (!any_winner) {
          result.problem("request " + std::to_string(r) +
                         " has no feasible winner");
          pass.failed_cells += batch.cells(r);
        }
        pass.sim.add(report);
        if (keep) pass.kept.push_back(std::move(report));
      } catch (const std::exception& e) {
        result.problem("request " + std::to_string(r) + " threw: " + e.what());
        pass.failed_cells += batch.cells(r);
        pass.reports += "<failed>\n";
      }
      pass.request_s.push_back(now_s() - request_start);
    }
  }
  pass.wall_s = now_s() - start;
  pass.json_bytes = static_cast<double>(pass.reports.size());
  return pass;
}

/// Checks a pass's report and SimStats digests against the recorded ones
/// (or, for a seed without a record, against the run's first pass) and the
/// emitted netlists against the first pass; counts the cells of a
/// mismatching pass as failed.
class PassChecker {
 public:
  PassChecker(const Options& options, const std::string& workload)
      : expected_(expected_digests(workload, options.seed, options.smoke)),
        flip_(options.inject_bad_digest ? 1 : 0) {
    if (expected_.found) {
      note("%s seed %llu: reports checked against recorded digests",
           workload.c_str(), static_cast<unsigned long long>(options.seed));
    } else {
      note("%s seed %llu: no recorded digest, reports UNCHECKED (only "
           "cross-pass determinism is verified)",
           workload.c_str(), static_cast<unsigned long long>(options.seed));
    }
  }

  [[nodiscard]] bool recorded() const { return expected_.found; }

  void check(const Pass& pass, RunResult& result) {
    const std::uint64_t report = fnv1a(pass.reports);
    if (!first_) {
      first_ = true;
      first_report_ = expected_.found ? expected_.report : report;
      first_sim_ = expected_.found ? expected_.sim_stats
                                   : pass.sim.stats_digest;
      first_emit_ = pass.emit_digest;
      note("report digest %s, SimStats digest %s (%ld finalist cells)",
           hex64(report).c_str(), hex64(pass.sim.stats_digest).c_str(),
           pass.sim.cells);
    }
    long failed = pass.failed_cells;
    if (report != (first_report_ ^ flip_) ||
        pass.sim.stats_digest != first_sim_ ||
        pass.emit_digest != first_emit_) {
      result.problem("pass output digest mismatch (report " + hex64(report) +
                     ", SimStats " + hex64(pass.sim.stats_digest) + ")");
      failed = pass.cells;
    }
    result.attempted += pass.cells;
    result.failed += failed;
  }

 private:
  ExpectedDigests expected_;
  std::uint64_t flip_;
  bool first_ = false;
  std::uint64_t first_report_ = 0, first_sim_ = 0, first_emit_ = 0;
};

void add_sim_values(const SimSummary& sim, LayerValues& values) {
  values["sim.cells"] = static_cast<double>(sim.cells);
  values["sim.cycles"] = sim.cycles;
  values["sim.flit_events"] = sim.flit_events;
  values["sim.saturated_cells"] = static_cast<double>(sim.saturated);
  values["sim.model_error_max"] = sim.model_error_max;
  const double sim_s = values["sim.finalists_s"];
  values["sim.flit_events_per_s"] = sim_s > 0.0 ? sim.flit_events / sim_s : 0.0;
}

/// The probes a traced run makes once, outside any pass: per-cell routing
/// and floorplan replays, fault-scenario materialisation, and (for
/// figures_grid) the forked sweep of the first request.
void run_probes(const std::string& workload, const Batch& batch,
                const Pass& traced, LayerValues& values, RunResult& result) {
  long cells = 0;
  double route_s = 0.0, place_s = 0.0;
  for (std::size_t r = 0; r < traced.kept.size(); ++r) {
    std::vector<std::string> problems;
    const auto probe =
        probe_cells(traced.kept[r], *batch.requests[r].app, problems);
    for (const auto& what : problems) result.problem(what);
    cells += probe.cells;
    route_s += probe.route_s;
    place_s += probe.place_s;
  }
  values["route.route_us"] = cells > 0 ? 1e6 * route_s / cells : 0.0;
  values["fplan.place_us"] = cells > 0 ? 1e6 * place_s / cells : 0.0;

  double scenarios = 0.0, materialize_s = 0.0;
  for (const auto& request : batch.requests) {
    for (const auto& faults : request.fault_sets) {
      if (faults.empty()) continue;
      for (const auto& topology : *request.library) {
        const double start = now_s();
        const auto materialized =
            sunmap::fault::materialize(faults.spec, *topology);
        materialize_s += now_s() - start;
        scenarios += static_cast<double>(materialized.size());
      }
    }
  }
  values["fault.scenarios"] = scenarios;
  values["fault.materialize_s"] = materialize_s;

  if (workload == "figures_grid") {
    sunmap::sweep::SweepOptions sweep;
    sweep.num_workers = 2;
    try {
      const double start = now_s();
      const auto swept = sunmap::sweep::run_sweep(batch.requests[0], sweep);
      values["sweep.forked_s"] = now_s() - start;
      if (swept.stats.total_points != batch.requests[0].num_points()) {
        result.problem("forked sweep covered the wrong number of points");
      }
    } catch (const std::exception& e) {
      result.problem(std::string("forked sweep threw: ") + e.what());
    }
  }
}

/// The layer-bypass self-checks: a workload that drifts off its layers
/// fails loudly instead of quietly measuring something else.
void check_bypass(const std::string& workload, const LayerValues& values,
                  RunResult& result) {
  const auto value = [&](const char* name) {
    const auto it = values.find(name);
    return it != values.end() ? it->second : 0.0;
  };
  if (workload == "sim_rank_synth32") {
    if (value("route.solves") != 0.0) {
      result.problem("bypass: route.solves must be 0 on sim_rank_synth32");
    }
    if (value("sim.cells") == 0.0 || value("fault.scenarios") == 0.0) {
      result.problem("bypass: sim_rank_synth32 must simulate and fault");
    }
    return;
  }
  for (const auto& [name, v] : values) {
    if ((name.rfind("sim.", 0) == 0 || name.rfind("fault.", 0) == 0) &&
        v != 0.0) {
      result.problem("bypass: " + name + " must read 0 on " + workload);
    }
  }
  if (workload == "anneal_synth32" && value("mapping.pruned") != 0.0) {
    result.problem("bypass: mapping.pruned must be 0 on anneal_synth32");
  }
}

/// Runs a batch workload; `make` builds its inputs (timed as set-up) from
/// the options and `graph_seed`, the synthetic graph's generator seed.
void run_batch(const Options& options, RunResult& result,
               const std::string& workload,
               const std::function<Batch(const Options&, std::uint64_t)>& make,
               std::uint64_t graph_seed) {
  const Calibration calibration = calibrate();
  note_calibration(calibration);

  // Set-up: what a user pays once — building the apps and libraries.
  std::vector<double> setup_s, library_s;
  Batch batch;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double start = now_s();
    Batch fresh = make(options, graph_seed);
    setup_s.push_back(now_s() - start);
    library_s.push_back(fresh.library_s);
    batch = std::move(fresh);
  }

  PassChecker checker(options, workload);
  const double start = now_s();
  const auto keep_going = [&](std::size_t passes) {
    const double elapsed = now_s() - start;
    return elapsed < kPassBudgetS &&
           (passes < kMinPasses || elapsed < options.seconds);
  };

  if (!options.trace) {
    std::vector<double> walls, requests;
    while (keep_going(walls.size())) {
      const Pass pass = run_pass(batch, nullptr, nullptr, false, result);
      checker.check(pass, result);
      walls.push_back(pass.wall_s);
      requests.insert(requests.end(), pass.request_s.begin(),
                      pass.request_s.end());
    }
    const double wall = median(walls);
    note("%zu passes, %zu request samples", walls.size(), requests.size());
    result.metric("wall_s", wall, "s");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb_self(), "MB");
    result.metric("request_p50_ms", 1e3 * quantile(requests, 0.5), "ms");
    result.metric("request_p95_ms", 1e3 * quantile(requests, 0.95), "ms");
    result.metric("requests_per_s",
                  static_cast<double>(batch.requests.size()) / wall, "1/s");
    return;
  }

  // Traced run: untraced and traced passes alternate; each traced pass
  // must reproduce the untraced reports byte for byte.
  Tracer tracer;
  std::vector<LayerValues> per_pass;
  Pass last_traced;
  while (keep_going(per_pass.size())) {
    const Pass plain = run_pass(batch, nullptr, nullptr, false, result);
    checker.check(plain, result);
    tracer.next_run();
    LayerCounts counts;
    Pass traced = run_pass(batch, &tracer, &counts, true, result);
    checker.check(traced, result);
    if (traced.reports != plain.reports) {
      result.problem("traced reports differ from the untraced ones");
    }
    if (counts.library_contexts != counts.contexts_built) {
      result.problem("EvalContext::contexts_built moved by " +
                     std::to_string(counts.library_contexts) +
                     " but the replay built " +
                     std::to_string(counts.contexts_built));
    }
    const auto totals = tracer.totals(tracer.run());
    LayerValues values;
    fill_from_trace(totals, counts, values);
    add_sim_values(traced.sim, values);
    double self_sum = 0.0, spans = 0.0;
    for (const auto& [name, total] : totals) {
      self_sum += total.self_s;
      spans += static_cast<double>(total.count);
    }
    const double traced_wall = tracer.root_seconds(tracer.run());
    if (std::fabs(self_sum - traced_wall) > 1e-6) {
      result.problem("span self times do not sum to the traced wall time");
    }
    values["trace.wall_s"] = traced_wall;
    values["trace.untraced_wall_s"] = plain.wall_s;
    values["trace.overhead_s"] = traced_wall - plain.wall_s;
    values["trace.self_sum_s"] = self_sum;
    values["trace.spans"] = spans;
    values["io.json_bytes"] = traced.json_bytes;
    per_pass.push_back(std::move(values));
    last_traced = std::move(traced);
  }

  LayerValues values = median_values(per_pass);
  run_probes(workload, batch, last_traced, values, result);
  values["topo.library_s"] = median(library_s);
  values["failed_frac"] =
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 0.0;
  values["check.digest_checked"] = checker.recorded() ? 1.0 : 0.0;
  add_calibration(calibration, values);
  check_bypass(workload, values, result);
  note("traced wall %.4f s vs untraced %.4f s (overhead %.4f s) over %zu "
       "passes", values["trace.wall_s"], values["trace.untraced_wall_s"],
       values["trace.overhead_s"], per_pass.size());

  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/" + workload + "-seed" +
                           std::to_string(options.seed) + ".jsonl";
  tracer.write_jsonl(path);
  note("spans written to %s", path.c_str());
  note_self_times(tracer, tracer.run());
  add_layer_metrics(values, result);
}

}  // namespace

void run_figures_grid(const Options& options, RunResult& result) {
  run_batch(options, result, "figures_grid", make_figures_grid, 0);
}

void run_anneal_synth32(const Options& options, RunResult& result) {
  run_batch(options, result, "anneal_synth32", make_anneal_synth32,
            synthetic_seed(options, options.seed));
}

void run_sim_rank_synth32(const Options& options, RunResult& result) {
  // A second graph: the seed is scrambled so it differs from anneal's.
  run_batch(options, result, "sim_rank_synth32", make_sim_rank_synth32,
            synthetic_seed(options, options.seed ^ 0x5eed5eed5eedULL));
}

}  // namespace perfbench
