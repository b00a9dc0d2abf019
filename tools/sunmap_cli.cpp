// Command-line front end to the SUNMAP flow: read a core graph (from a file
// in the src/io text format or one of the built-in benchmarks), run
// topology selection under the requested routing function / objective /
// constraints, print the comparison table, and optionally generate the
// SystemC-style network sources.
//
// With --sweep the tool runs a batched design-space exploration instead:
// the --routing/--objective/--bandwidth/--max-area flags then accept
// comma-separated lists, the cross product of which is swept through
// select::DesignSpaceExplorer with one reusable evaluation context per
// topology.
//
// Usage:
//   sunmap_cli --app vopd
//   sunmap_cli --file my_app.cg --routing SA --objective power \
//              --bandwidth 500 --extensions --out generated/
//   sunmap_cli --app vopd --sweep --objective delay,area,power \
//              --routing DO,MP,SM,SA --csv sweep.csv --json sweep.json

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/sunmap.h"
#include "fault/fault.h"
#include "fplan/render.h"
#include "io/core_graph_io.h"
#include "io/csv.h"
#include "io/exploration_io.h"
#include "io/request_text.h"
#include "mapping/sim_eval.h"
#include "select/explorer.h"
#include "sim/simulator.h"
#include "sweep/coordinator.h"
#include "sweep/daemon.h"
#include "util/table.h"

namespace {

using namespace sunmap;

void usage() {
  std::cout <<
      R"(sunmap_cli — automatic NoC topology selection and generation

  --app <name>        built-in benchmark: vopd | mpeg4 | dsp | netproc16 |
                      pip | mwd
  --file <path>       core graph file (see src/io/core_graph_io.h grammar)
  --routing <fn>      DO | MP | SM | SA           (default MP)
  --objective <obj>   delay | area | power | weighted   (default delay)
  --search <kind>     greedy | sa | rsa: greedy pairwise swaps, single-seed
                      simulated annealing, or the multi-restart annealer
                      (default greedy)
  --restarts <n>      independent annealing chains of --search rsa; the
                      total annealing budget is split across them and the
                      best-of-restarts mapping kept (default 4)
  --reheat <n>        temperature re-heats per annealing chain (default 0)
  --swap-passes <n>   hill-climbing passes of the greedy swap search
                      (default 2; 1 reproduces the paper)
  --fplan-engine <e>  floorplan position engine: lp (constraint-graph
                      longest path, default) | simplex (the literal
                      simplex LP of the paper)
  --fplan-sizing-passes <n>
                      soft-block aspect-ratio sizing passes (default 2;
                      0 keeps every soft block square)
  --w-delay <x>       weight of the delay term    (objective weighted)
  --w-area <x>        weight of the area term     (objective weighted)
  --w-power <x>       weight of the power term    (objective weighted)
  --faults <spec>     fault scenarios folded into the objective:
                      none | n1 (exhaustive single-channel failures) |
                      rand[M] (random scenarios of M channels each,
                      default 1) | an explicit list "a-b,c-d,s7/..."
                      (link faults by endpoint switches, sN = dead
                      switch N, / separates scenarios)  (default none)
  --fault-samples <n> random scenarios drawn by --faults rand (default 4)
  --fault-seed <s>    seed of the --faults rand sampler (default 1)
  --fault-mode <m>    worst (max over fault-free + degraded costs,
                      default) | weighted (weight-normalised mean)
  --fault-penalty <x> fault-free-cost multiplier charged when a scenario
                      disconnects a commodity; must be >= 1 (default 10)
  --bandwidth <MBps>  link capacity               (default 500)
  --sim-engine <e>    flit-level simulator core: event (event-driven,
                      default) | cycle (the cycle-stepped reference; both
                      engines produce bit-identical statistics)
  --sim-finalists <n> high-fidelity finalist tier: after selection the
                      flit-level simulator re-scores the n best feasible
                      candidates (per objective group in sweeps) under the
                      application's own trace, reporting contention-aware
                      delay next to the analytical number (default 0 = off)
  --sim-validate      simulate EVERY feasible candidate and print the
                      analytical-vs-simulated model-validation table (the
                      finalist tier with no cap)
  --sim-rank          two-phase simulated-delay ranking: the analytical
                      search prefilters each objective group to its
                      --sim-finalists best cells (defaults to 3 when
                      unset), the simulator re-ranks those, and the
                      sim-winner table prints next to the analytical
                      winners (sweep reports gain a sim_best CSV column
                      and a sim_winners JSON array). Purely additive:
                      analytical results are bit-identical with it off
  --sim-seed <s>      simulator PRNG seed, decoupled from --seed (the
                      search seed); must be >= 1 (default 1, today's
                      behavior)
  --sim-traffic <t>   finalist-tier traffic model: trace (the mapped
                      commodity rates, default) | bursty (per-flow on/off
                      modulation of the same rates; equal long-run load)
  --sim-burst-len <c> mean burst length in cycles of --sim-traffic bursty
                      (default 50)
  --sim-burst-duty <d> duty cycle in (0,1) of --sim-traffic bursty
                      (default 0.3)
  --threads <n>       swap-search worker threads  (default 1; any n is
                      deterministic and matches the sequential result)
  --max-area <mm2>    area constraint             (default unlimited)
  --extensions        include octagon/star topologies
  --floorplan         print the winning floorplan as ASCII
  --csv <path>        write the comparison table as CSV
  --out <dir>         write generated SystemC sources here
  --sweep             batched design-space exploration: --routing,
                      --objective, --bandwidth, --max-area, --search,
                      --restarts, --swap-passes, --fplan-engine,
                      --fplan-sizing-passes, and --faults accept
                      comma-separated lists (--faults sweeps named specs
                      only — none/n1/rand[M]; explicit scenario lists
                      contain commas and need single-point mode)
                      and the whole cross product is explored with one
                      evaluation context per topology;
                      prints the comparison matrix, per-objective winners,
                      and the area/power Pareto frontier. --floorplan then
                      renders each objective winner's floorplan and --out
                      writes each winner's generated sources to
                      <dir>/<objective>/. In sweep mode --threads means
                      explorer workers spread across topologies (each swap
                      search stays sequential); any thread count returns
                      the identical report
  --json <path>       write the exploration report as JSON (sweep only)

Distributed sweeps (with --sweep; see README "Distributed sweeps"):
  --workers <n>       distribute the sweep across n worker processes; the
                      merged report is bit-identical to the single-process
                      explorer at any worker/shard count
  --shards <n>        shards the grid is split into (default: one per
                      worker; more shards = finer crash-recovery granules)
  --checkpoint <path> append-only journal of completed points; a killed
                      sweep resumes from it with --resume
  --resume            fold the checkpoint's completed points in and only
                      evaluate the remainder (fingerprint-checked)
  --progress          periodic progress lines on stderr (done/total, ETA,
                      points/s, per-worker throughput)

Daemon mode:
  --serve <socket>    serve sweep requests over a unix socket, keeping
                      per-topology evaluation contexts alive across
                      requests; SIGINT (or --serve-requests) stops it
  --serve-requests <n>  exit after serving n requests (default: unlimited)
  --serve-threads <n>   accept-loop worker threads; concurrent requests
                      over different (app, extensions) pairs evaluate in
                      parallel, requests sharing a context pool queue on
                      it (default 1)
  --call <socket>     send THIS command line as a sweep request to a running
                      daemon and print the JSON reply (or write it to
                      --json): every evaluation flag above is forwarded,
                      so the reply is byte-identical to the local --sweep
                      --json report. Flags that are not part of a request
                      (--file, --workers, --checkpoint, --csv, --out,
                      --floorplan, ...) are refused by name with exit 2
  --help              this text
)";
}

void handle_sigint(int) { sweep::request_stop(); }

/// Options that stay with this process: output, distribution and
/// checkpointing. None of them is a request field, so --call refuses them.
struct LocalArgs {
  bool show_floorplan = false;
  std::string out_dir;
  std::string csv_path;
  std::string json_path;
  /// Distributed-sweep options (--workers/--shards/--checkpoint/--resume/
  /// --progress). workers == 0 and an empty checkpoint keep the sweep
  /// in-process.
  int workers = 0;
  int shards = 0;
  std::string checkpoint_path;
  bool resume = false;
  bool progress = false;
  /// The invoking command line, for the "resume with: ..." hint printed
  /// after an interrupted checkpointed sweep.
  std::string command_line;
};

int run_sweep(const mapping::CoreGraph& app, select::ExplorationRequest request,
              bool extensions, const LocalArgs& args) {
  request.app = &app;
  const auto library = topo::standard_library(app.num_cores(), extensions);
  request.library = &library;

  const bool distributed = args.workers > 0 || !args.checkpoint_path.empty();
  if (distributed && (request.sim_finalists > 0 || request.sim_rank)) {
    std::cerr << "--sim-finalists/--sim-validate/--sim-rank need an "
                 "in-process sweep (merged reports carry no routes to "
                 "simulate)\n";
    return 2;
  }
  std::optional<select::ExplorationReport> report;
  try {
    if (distributed) {
      sweep::SweepOptions options;
      options.num_workers = std::max(1, args.workers);
      options.num_shards = args.shards;
      options.checkpoint_path = args.checkpoint_path;
      options.resume = args.resume;
      options.progress = args.progress;
      options.description = app.name();
      sweep::reset_stop();
      std::signal(SIGINT, handle_sigint);
      auto result = sweep::run_sweep(request, options);
      std::signal(SIGINT, SIG_DFL);
      if (result.stats.interrupted) {
        std::cerr << "sweep interrupted: " << result.stats.points_evaluated
                  << " newly completed points";
        if (!args.checkpoint_path.empty()) {
          std::cerr << " flushed to " << args.checkpoint_path
                    << "\nresume with: " << args.command_line;
          if (!args.resume) std::cerr << " --resume";
        }
        std::cerr << "\n";
        return 130;
      }
      report = std::move(result.report);
    } else {
      select::DesignSpaceExplorer explorer;
      report = explorer.explore(request);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "Sweep: " << report->results.size() << " design points x "
            << library.size() << " topologies\n\n";
  util::Table matrix({"point", "routing", "objective", "search", "BW (MB/s)",
                      "feasible", "best topology", "cost", "area (mm2)",
                      "power (mW)"});
  for (std::size_t p = 0; p < report->results.size(); ++p) {
    const auto& result = report->results[p];
    const auto& cfg = result.point.config;
    int feasible = 0;
    for (const auto& candidate : result.selection.candidates) {
      if (candidate.feasible()) ++feasible;
    }
    const auto* best = result.selection.best();
    matrix.add_row(
        {std::to_string(p), route::to_string(cfg.routing),
         mapping::to_string(cfg.objective),
         cfg.search == mapping::SearchKind::kRestartAnnealing
             ? std::string(mapping::to_string(cfg.search)) + "-x" +
                   std::to_string(cfg.annealing_restarts)
             : mapping::to_string(cfg.search),
         util::Table::num(cfg.link_bandwidth_mbps, 0),
         std::to_string(feasible) + "/" +
             std::to_string(result.selection.candidates.size()),
         best != nullptr ? best->topology->name() : "-",
         best != nullptr ? util::Table::num(best->result.eval.cost) : "-",
         best != nullptr
             ? util::Table::num(best->result.eval.design_area_mm2)
             : "-",
         best != nullptr
             ? util::Table::num(best->result.eval.design_power_mw, 1)
             : "-"});
  }
  std::cout << matrix.to_string() << "\n";

  std::cout << "Per-objective winners:\n";
  util::Table winners({"objective", "design point", "topology", "cost"});
  for (const auto& best : report->winners) {
    if (best.found()) {
      const auto& result =
          report->results[static_cast<std::size_t>(best.point_index)];
      const auto& candidate =
          result.selection
              .candidates[static_cast<std::size_t>(best.topology_index)];
      winners.add_row({mapping::to_string(best.objective),
                       result.point.label(), candidate.topology->name(),
                       util::Table::num(candidate.result.eval.cost)});
    } else {
      winners.add_row(
          {mapping::to_string(best.objective), "-", "infeasible", "-"});
    }
  }
  std::cout << winners.to_string() << "\n";

  // The simulated-delay re-rank (--sim-rank): the cell the simulator
  // crowns per objective group, next to the analytical winner table above.
  if (request.sim_rank) {
    std::cout << "Simulated-delay winners (re-ranked top "
              << request.sim_finalists << " per objective):\n";
    util::Table sim_winners(
        {"objective", "design point", "topology", "simulated (cyc)", "cost"});
    for (const auto& best : report->sim_winners) {
      if (best.found()) {
        const auto& result =
            report->results[static_cast<std::size_t>(best.point_index)];
        const auto& candidate =
            result.selection
                .candidates[static_cast<std::size_t>(best.topology_index)];
        sim_winners.add_row(
            {mapping::to_string(best.objective), result.point.label(),
             candidate.topology->name(),
             candidate.sim.has_value()
                 ? util::Table::num(candidate.sim->simulated_latency_cycles)
                 : "-",
             util::Table::num(candidate.result.eval.cost)});
      } else {
        sim_winners.add_row(
            {mapping::to_string(best.objective), "-", "infeasible", "-", "-"});
      }
    }
    std::cout << sim_winners.to_string() << "\n";
  }

  // The finalist tier's verdicts: one row per simulated (point, topology)
  // cell, the contention-aware delay next to the zero-load prediction.
  if (request.sim_finalists > 0) {
    std::cout << "Simulated finalists ("
              << sim::to_string(request.base.sim_use_event_engine
                                    ? sim::SimEngine::kEventDriven
                                    : sim::SimEngine::kCycleStepped)
              << " engine):\n";
    util::Table sims({"point", "topology", "analytical (cyc)",
                      "simulated (cyc)", "model err", "status"});
    for (std::size_t p = 0; p < report->results.size(); ++p) {
      for (const auto& candidate : report->results[p].selection.candidates) {
        if (!candidate.sim.has_value()) continue;
        sims.add_row(
            {std::to_string(p), candidate.topology->name(),
             util::Table::num(candidate.sim->analytical_latency_cycles),
             util::Table::num(candidate.sim->simulated_latency_cycles),
             util::Table::num(candidate.sim->model_error() * 100.0, 1) + "%",
             sim::to_string(candidate.sim->stats.status)});
      }
    }
    std::cout << sims.to_string() << "\n";
  }

  if (!report->pareto.empty()) {
    std::cout << "Area/power Pareto frontier over all feasible mappings:\n";
    util::Table pareto({"area (mm2)", "power (mW)"});
    for (const auto& point : report->pareto) {
      pareto.add_row({util::Table::num(point.area_mm2),
                      util::Table::num(point.power_mw, 1)});
    }
    std::cout << pareto.to_string() << "\n";
  }

  // Sweep-mode --floorplan / --out operate on the per-objective winners:
  // each winner's floorplan is rendered, and its generated sources go to
  // <out>/<objective>[-wN]/ so several winners never overwrite each other.
  // A distributed sweep merges scalars only (floorplan geometry stays in
  // the worker processes), so those two outputs need a single-process run.
  if (distributed && (args.show_floorplan || !args.out_dir.empty())) {
    std::cout << "note: --floorplan/--out need floorplan geometry, which a "
                 "distributed sweep does not merge; rerun the winning "
                 "point without --workers to render or generate it.\n";
  }
  for (const auto& best : report->winners) {
    if (distributed) break;  // No geometry to render in merged reports.
    if (!best.found()) continue;
    const auto& result =
        report->results[static_cast<std::size_t>(best.point_index)];
    const auto& candidate =
        result.selection
            .candidates[static_cast<std::size_t>(best.topology_index)];
    std::string tag = mapping::to_string(best.objective);
    if (best.weights_index >= 0) {
      tag += "-w" + std::to_string(best.weights_index);
    }
    if (args.show_floorplan) {
      const auto& slot_to_core = candidate.result.slot_to_core;
      std::cout << "Floorplan of the " << tag << " winner ("
                << candidate.topology->name() << ", "
                << result.point.label() << "):\n"
                << fplan::render_ascii(
                       candidate.result.eval.floorplan,
                       [&](const fplan::PlacedBlock& block) {
                         if (block.kind == fplan::PlacedBlock::Kind::kSwitch) {
                           return "S" + std::to_string(block.index);
                         }
                         const int core = slot_to_core[
                             static_cast<std::size_t>(block.index)];
                         return core >= 0 ? app.core(core).name
                                          : std::string("-");
                       })
                << "\n";
    }
    if (!args.out_dir.empty()) {
      const auto netlist = gen::Netlist::build(
          *candidate.topology, app, candidate.result.core_to_slot,
          &candidate.result.eval.floorplan);
      const auto dir =
          (std::filesystem::path(args.out_dir) / tag).string();
      std::filesystem::create_directories(dir);
      gen::SystemCWriter writer;
      for (const auto& file : writer.write_to(netlist, dir)) {
        std::cout << "wrote " << file << "\n";
      }
    }
  }

  if (!args.csv_path.empty()) {
    io::write_file(args.csv_path, io::exploration_report_csv(*report));
    std::cout << "wrote " << args.csv_path << "\n";
  }
  if (!args.json_path.empty()) {
    io::write_file(args.json_path, io::exploration_report_json(*report));
    std::cout << "wrote " << args.json_path << "\n";
  }

  for (const auto& best : report->winners) {
    if (best.found()) return 0;
  }
  std::cout << "No feasible mapping for any design point.\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  io::RequestFields fields;
  fields.by_flag = true;
  LocalArgs args;
  std::string file_path;
  bool sweep = false;
  int serve_requests = -1;
  int serve_threads = 1;
  std::string serve_socket;
  std::string call_socket;
  // Flags that are not request fields, which --call cannot forward
  // (--sweep and --json are honoured client-side).
  std::vector<std::string> local_flags;

  for (int i = 0; i < argc; ++i) {
    if (i > 0) args.command_line += ' ';
    args.command_line += argv[i];
  }

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const auto* field = io::field_by_flag(arg)) {
      fields.values[field->key] =
          field->kind == io::RequestField::Kind::kSwitch ? "1" : need_value(i);
      continue;
    }
    if (arg != "--call" && arg != "--sweep" && arg != "--json") {
      local_flags.push_back(arg);
    }
    try {
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--file") {
        file_path = need_value(i);
      } else if (arg == "--sweep") {
        sweep = true;
      } else if (arg == "--workers") {
        args.workers = io::parse_int(need_value(i), arg);
      } else if (arg == "--shards") {
        args.shards = io::parse_int(need_value(i), arg);
      } else if (arg == "--checkpoint") {
        args.checkpoint_path = need_value(i);
      } else if (arg == "--resume") {
        args.resume = true;
      } else if (arg == "--progress") {
        args.progress = true;
      } else if (arg == "--serve") {
        serve_socket = need_value(i);
      } else if (arg == "--serve-requests") {
        serve_requests = io::parse_int(need_value(i), arg);
      } else if (arg == "--serve-threads") {
        serve_threads = io::parse_int(need_value(i), arg);
      } else if (arg == "--call") {
        call_socket = need_value(i);
      } else if (arg == "--floorplan") {
        args.show_floorplan = true;
      } else if (arg == "--csv") {
        args.csv_path = need_value(i);
      } else if (arg == "--json") {
        args.json_path = need_value(i);
      } else if (arg == "--out") {
        args.out_dir = need_value(i);
        std::filesystem::create_directories(args.out_dir);
      } else {
        std::cerr << "unknown argument " << arg << " (try --help)\n";
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  // Daemon mode: no local evaluation at all — serve sweep requests over
  // the socket until SIGINT (or the request budget) stops the loop.
  if (!serve_socket.empty()) {
    sweep::reset_stop();
    std::signal(SIGINT, handle_sigint);
    try {
      sweep::DaemonOptions options;
      options.socket_path = serve_socket;
      options.max_requests = serve_requests;
      options.accept_threads = serve_threads;
      options.verbose = true;
      const auto stats = sweep::serve(options);
      std::cout << "served " << stats.requests_served << " request(s), "
                << stats.requests_failed << " failed\n";
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  const bool has_app = fields.values.count("app") != 0;
  if (has_app && !file_path.empty()) {
    std::cerr << "give --app or --file, not both\n";
    return 2;
  }
  if (!has_app && file_path.empty()) {
    usage();
    return 2;
  }

  // Client mode: send this command line's request fields to the daemon and
  // print the JSON report it returns.
  if (!call_socket.empty()) {
    if (!local_flags.empty()) {
      std::cerr << "error: --call cannot forward";
      for (const auto& flag : local_flags) std::cerr << ' ' << flag;
      std::cerr << " to the daemon; run without --call\n";
      return 2;
    }
    try {
      const auto json =
          sweep::call_daemon(call_socket, io::request_text(fields));
      if (!args.json_path.empty()) {
        io::write_file(args.json_path, json);
        std::cout << "wrote " << args.json_path << "\n";
      } else {
        std::cout << json;
      }
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  if (!sweep && (args.workers > 0 || args.shards > 0 ||
                 !args.checkpoint_path.empty() || args.resume ||
                 args.progress)) {
    std::cerr << "--workers/--shards/--checkpoint/--resume/--progress "
                 "require --sweep\n";
    return 2;
  }

  std::optional<io::BuiltRequest> built;
  std::optional<mapping::CoreGraph> app;
  try {
    built = io::build_request(fields, sweep ? io::RequestShape::kSweep
                                            : io::RequestShape::kSinglePoint);
    app = file_path.empty() ? io::builtin_app(built->app_name)
                            : io::read_core_graph_file(file_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const auto& request = built->request;

  if (sweep) return run_sweep(*app, request, built->extensions, args);

  // Single-point mode: the request must be one design point, whose
  // configuration is the run's mapper configuration.
  if (request.num_points() != 1) {
    std::cerr << "value lists require --sweep\n";
    return 2;
  }
  if (!args.json_path.empty()) {
    std::cerr << "--json requires --sweep\n";
    return 2;
  }
  core::SunmapConfig config;
  config.mapper = select::DesignSpaceExplorer::expand(request).front().config;
  config.mapper.num_threads = request.num_threads;
  config.include_extension_topologies = built->extensions;
  config.output_directory = args.out_dir;
  try {
    config.mapper.validate();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "SUNMAP: " << app->name() << " (" << app->num_cores()
            << " cores, " << app->total_bandwidth_mbps()
            << " MB/s) routing=" << route::to_string(config.mapper.routing)
            << " objective=" << mapping::to_string(config.mapper.objective)
            << " link=" << config.mapper.link_bandwidth_mbps << " MB/s";
  if (!config.mapper.faults.empty()) {
    std::cout << " faults=" << fault::describe(config.mapper.faults) << " ("
              << fault::to_string(config.mapper.faults.aggregation) << ")";
  }
  std::cout << "\n\n";

  // Invalid configurations that slip past validate() (e.g. an application
  // with more cores than any topology has slots) surface as
  // std::invalid_argument from the tool chain; report them as a clean CLI
  // error instead of an abort.
  std::optional<core::SunmapResult> run_result;
  try {
    const core::Sunmap tool(config);
    run_result = tool.run(*app);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const auto& result = *run_result;
  std::cout << core::Sunmap::report_table(result.report) << "\n";

  // Single-point finalist tier / model validation: simulate the n best
  // feasible candidates (--sim-validate lifts the cap) and print the
  // contention-aware delay next to the analytical zero-load number.
  if (request.sim_finalists > 0) {
    std::vector<const select::TopologyCandidate*> finalists;
    for (const auto& candidate : result.report.candidates) {
      if (candidate.feasible()) finalists.push_back(&candidate);
    }
    std::stable_sort(finalists.begin(), finalists.end(),
                     [](const select::TopologyCandidate* a,
                        const select::TopologyCandidate* b) {
                       return a->result.eval.cost < b->result.eval.cost;
                     });
    if (finalists.size() > static_cast<std::size_t>(request.sim_finalists)) {
      finalists.resize(static_cast<std::size_t>(request.sim_finalists));
    }
    try {
      mapping::SimEvaluator evaluator(
          mapping::sim_tier_options(config.mapper));
      util::Table sims({"topology", "analytical (cyc)", "simulated (cyc)",
                        "model err", "status"});
      // --sim-rank: the finalist the simulator crowns, by (drained first,
      // simulated latency, analytical cost) — same ordering as sweep mode.
      const select::TopologyCandidate* sim_best = nullptr;
      mapping::SimScore sim_best_score;
      for (const auto* candidate : finalists) {
        const auto score =
            evaluator.score(*app, *candidate->topology, candidate->result);
        sims.add_row(
            {candidate->topology->name(),
             util::Table::num(score.analytical_latency_cycles),
             util::Table::num(score.simulated_latency_cycles),
             util::Table::num(score.model_error() * 100.0, 1) + "%",
             sim::to_string(score.stats.status)});
        const bool drained = score.stats.status == sim::RunStatus::kDrained;
        const bool best_drained =
            sim_best != nullptr &&
            sim_best_score.stats.status == sim::RunStatus::kDrained;
        if (sim_best == nullptr ||
            (drained != best_drained
                 ? drained
                 : score.simulated_latency_cycles <
                       sim_best_score.simulated_latency_cycles)) {
          sim_best = candidate;
          sim_best_score = score;
        }
      }
      std::cout << "Flit-level validation ("
                << sim::to_string(evaluator.options().config.engine)
                << " engine):\n"
                << sims.to_string() << "\n";
      if (request.sim_rank && sim_best != nullptr) {
        std::cout << "Simulated-delay winner: " << sim_best->topology->name()
                  << " ("
                  << util::Table::num(
                         sim_best_score.simulated_latency_cycles)
                  << " cycles simulated)\n\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  if (!args.csv_path.empty()) {
    io::write_file(args.csv_path, io::selection_report_csv(result.report));
    std::cout << "wrote " << args.csv_path << "\n";
  }

  const auto* best = result.best();
  if (best == nullptr) {
    std::cout << "No feasible mapping for any topology in the library.\n";
    return 1;
  }
  std::cout << "Selected: " << best->topology->name() << "\n\n"
            << result.netlist->summary();

  if (args.show_floorplan) {
    const auto& slot_to_core = best->result.slot_to_core;
    std::cout << "\n"
              << fplan::render_ascii(
                     best->result.eval.floorplan,
                     [&](const fplan::PlacedBlock& block) {
                       if (block.kind == fplan::PlacedBlock::Kind::kSwitch) {
                         return "S" + std::to_string(block.index);
                       }
                       const int core = slot_to_core[
                           static_cast<std::size_t>(block.index)];
                       return core >= 0 ? app->core(core).name
                                        : std::string("-");
                     });
  }
  for (const auto& file : result.written_files) {
    std::cout << "wrote " << file << "\n";
  }
  return 0;
}
