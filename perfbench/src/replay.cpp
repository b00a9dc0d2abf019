#include "replay.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common.h"
#include "mapping/eval_context.h"
#include "route/routing.h"

namespace perfbench {

namespace sm = sunmap::mapping;
namespace ss = sunmap::select;

namespace {

/// Snapshot of a scratch's incremental sessions, so each map() call's
/// counter delta can be taken even when the call rebuilt a session.
struct SessionMark {
  const void* route = nullptr;
  sunmap::route::RoutingSession::Stats route_stats;
  const void* fplan = nullptr;
  sunmap::fplan::FloorplanSession::Stats fplan_stats;

  static SessionMark of(const sm::EvalScratch& scratch) {
    SessionMark mark;
    if (scratch.routing_session) {
      mark.route = scratch.routing_session.get();
      mark.route_stats = scratch.routing_session->stats();
    }
    if (scratch.fplan_session) {
      mark.fplan = scratch.fplan_session.get();
      mark.fplan_stats = scratch.fplan_session->stats();
    }
    return mark;
  }
};

/// Adds the session work done between `before` and `after` to `counts`. A
/// session whose identity changed (or whose counters went backwards, i.e.
/// a new session at a recycled address) contributes its whole count.
void add_session_delta(const SessionMark& before, const SessionMark& after,
                       LayerCounts& counts) {
  if (after.route != nullptr) {
    auto base = before.route_stats;
    if (before.route != after.route || after.route_stats.solves < base.solves) {
      base = {};
    }
    counts.route_solves += after.route_stats.solves - base.solves;
    counts.route_incremental +=
        after.route_stats.incremental_solves - base.incremental_solves;
    counts.route_reused += after.route_stats.reused - base.reused;
    counts.route_rerouted += after.route_stats.rerouted - base.rerouted;
  }
  if (after.fplan != nullptr) {
    auto base = before.fplan_stats;
    if (before.fplan != after.fplan ||
        after.fplan_stats.solves < base.solves ||
        after.fplan_stats.cached_solves < base.cached_solves) {
      base = {};
    }
    counts.fplan_solves += after.fplan_stats.solves - base.solves;
    counts.fplan_cached += after.fplan_stats.cached_solves - base.cached_solves;
    counts.fplan_incremental +=
        after.fplan_stats.incremental_solves - base.incremental_solves;
  }
}

}  // namespace

ss::ExplorationReport replay_explore(const ss::ExplorationRequest& request,
                                     Tracer& tracer, LayerCounts& counts) {
  if (request.app == nullptr || request.library == nullptr) {
    throw std::invalid_argument("replay_explore: request lacks app/library");
  }
  Scope explore_span(&tracer, "select.explore");
  const sm::CoreGraph& app = *request.app;
  const auto& library = *request.library;
  const auto cache_before = sm::EvalContext::cache_stats();
  const auto built_before = sm::EvalContext::contexts_built();

  std::vector<ss::DesignPoint> points;
  {
    Scope span(&tracer, "select.expand");
    points = ss::DesignSpaceExplorer::expand(request);
    for (const auto& point : points) point.config.validate();
  }

  // The same pool binding explore() performs.
  ss::ExplorerContextPool local_pool;
  ss::ExplorerContextPool& pool =
      request.context_pool != nullptr ? *request.context_pool : local_pool;
  if (pool.bound_app == nullptr) {
    pool.bound_app = &app;
    for (const auto& topology : library) {
      pool.bound_topologies.push_back(topology.get());
    }
  } else if (pool.bound_app != &app) {
    throw std::invalid_argument("replay_explore: pool bound to another app");
  }
  pool.contexts.resize(library.size());
  pool.scratches.resize(library.size());

  sm::Mapper mapper(points.front().config);
  ss::ExplorationReport report;
  report.results.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    report.results[p].point = points[p];
    report.results[p].selection.candidates.resize(library.size());
    for (std::size_t t = 0; t < library.size(); ++t) {
      report.results[p].selection.candidates[t].topology = library[t].get();
    }
  }

  std::vector<double> point_map_s(points.size(), 0.0);
  for (std::size_t t = 0; t < library.size(); ++t) {
    if (pool.contexts[t] == nullptr) {
      Scope span(&tracer, "mapping.make_context");
      pool.contexts[t] = std::make_unique<sm::EvalContext>(
          app, *library[t], points.front().config, mapper.library());
      ++counts.contexts_built;
    } else {
      Scope span(&tracer, "mapping.rebind");
      pool.contexts[t]->rebind(points.front().config, mapper.library());
      ++counts.rebinds;
    }
    sm::EvalContext& ctx = *pool.contexts[t];
    sm::EvalScratch& scratch = pool.scratches[t];
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (p > 0) {
        Scope span(&tracer, "mapping.rebind");
        ctx.rebind(points[p].config, mapper.library());
        ++counts.rebinds;
      }
      const SessionMark before = SessionMark::of(scratch);
      const double start = now_s();
      {
        Scope span(&tracer, "mapping.map");
        report.results[p].selection.candidates[t].result =
            mapper.map(ctx, scratch);
      }
      point_map_s[p] += now_s() - start;
      add_session_delta(before, SessionMark::of(scratch), counts);
      const auto& result = report.results[p].selection.candidates[t].result;
      counts.evaluated += result.evaluated_mappings;
      counts.pruned += result.pruned_mappings;
    }
  }

  {
    Scope span(&tracer, "select.select");
    ss::WinnerTracker tracker(request);
    std::vector<std::pair<double, double>> area_power;
    for (std::size_t p = 0; p < report.results.size(); ++p) {
      auto& result = report.results[p];
      result.selection.best_index =
          ss::best_feasible_index(result.selection.candidates);
      tracker.consider(result, static_cast<int>(p));
      for (const auto& candidate : result.selection.candidates) {
        if (!candidate.feasible()) continue;
        area_power.emplace_back(candidate.result.eval.design_area_mm2,
                                candidate.result.eval.design_power_mw);
      }
    }
    report.winners = tracker.take();
    report.pareto = ss::pareto_frontier(area_power);
  }

  if (request.sim_finalists > 0) {
    {
      Scope span(&tracer, "sim.finalists");
      ss::simulate_finalists(request, report);
    }
    if (request.sim_rank) {
      Scope span(&tracer, "sim.rank");
      report.sim_winners = ss::rank_sim_winners(request, report);
    }
  }

  // Fault points against their fault-free twins: the fault axis sits just
  // inside the floorplan axis, so a point's twin is `fault_index` blocks of
  // the inner axes earlier.
  const std::size_t outer =
      std::max<std::size_t>(1, request.floorplan_options.size()) *
      std::max<std::size_t>(1, request.fault_sets.size());
  const std::size_t inner = points.size() / outer;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto x = static_cast<std::size_t>(points[p].fault_index);
    if (x == 0 || points[p].config.faults.empty()) continue;
    counts.fault_extra_map_s += point_map_s[p] - point_map_s[p - x * inner];
  }

  const auto cache_after = sm::EvalContext::cache_stats();
  counts.metrics_hits += cache_after.metrics_hits - cache_before.metrics_hits;
  counts.metrics_misses +=
      cache_after.metrics_misses - cache_before.metrics_misses;
  counts.floorplan_hits +=
      cache_after.floorplan_hits - cache_before.floorplan_hits;
  counts.floorplan_misses +=
      cache_after.floorplan_misses - cache_before.floorplan_misses;
  counts.library_contexts +=
      static_cast<long>(sm::EvalContext::contexts_built() - built_before);
  return report;
}

CellProbe probe_cells(const ss::ExplorationReport& report,
                      const sm::CoreGraph& app,
                      std::vector<std::string>& problems) {
  CellProbe probe;
  if (report.results.empty()) return probe;
  const sm::Mapper mapper(report.results.front().point.config);
  const auto commodities = sm::commodities_by_value(app);
  for (const auto& result : report.results) {
    const auto& config = result.point.config;
    for (const auto& candidate : result.selection.candidates) {
      const auto& mapping = candidate.result;
      if (mapping.core_to_slot.empty()) continue;
      const auto& topology = *candidate.topology;
      ++probe.cells;

      // Routing: the reference loop of Mapper::evaluate (route every
      // commodity in value order, then the rip-up-and-reroute passes of
      // the load-adaptive functions).
      double start = now_s();
      sunmap::route::RoutingEngine::Options engine_options;
      engine_options.split_chunks = config.split_chunks;
      engine_options.capacity_hint_mbps = config.link_bandwidth_mbps;
      const sunmap::route::RoutingEngine engine(topology, config.routing,
                                                engine_options);
      sunmap::route::LoadMap loads(topology.switch_graph().num_edges());
      std::vector<sunmap::route::RouteSet> routes(commodities.size());
      const auto slot_of = [&](int core) {
        return mapping.core_to_slot[static_cast<std::size_t>(core)];
      };
      for (std::size_t k = 0; k < commodities.size(); ++k) {
        const auto& c = commodities[k];
        engine.route(slot_of(c.src_core), slot_of(c.dst_core), c.value_mbps,
                     loads, routes[k]);
        loads.add_route(routes[k], c.value_mbps);
      }
      const bool adaptive =
          config.routing == sunmap::route::RoutingKind::kMinPath ||
          config.routing == sunmap::route::RoutingKind::kSplitAll;
      for (int pass = 0; adaptive && pass < config.reroute_passes; ++pass) {
        for (std::size_t k = 0; k < commodities.size(); ++k) {
          const auto& c = commodities[k];
          loads.remove_route(routes[k], c.value_mbps);
          engine.route(slot_of(c.src_core), slot_of(c.dst_core), c.value_mbps,
                       loads, routes[k]);
          loads.add_route(routes[k], c.value_mbps);
        }
      }
      probe.route_s += now_s() - start;
      if (config.faults.empty() &&
          loads.max_load() != mapping.eval.max_link_load_mbps) {
        problems.push_back("route replay: max link load differs on " +
                           topology.name() + " at " + result.point.label());
      }

      // Floorplan: the from-scratch floorplanner on the final mapping.
      std::vector<std::optional<sunmap::fplan::BlockShape>> core_shapes(
          static_cast<std::size_t>(topology.num_slots()));
      for (std::size_t core = 0; core < mapping.core_to_slot.size(); ++core) {
        core_shapes[static_cast<std::size_t>(mapping.core_to_slot[core])] =
            app.core(static_cast<int>(core)).shape;
      }
      std::vector<sunmap::fplan::BlockShape> switch_shapes;
      for (int sw = 0; sw < topology.num_switches(); ++sw) {
        const auto& entry = mapper.library().lookup(
            topology.switch_in_ports(sw), topology.switch_out_ports(sw));
        auto shape = sunmap::fplan::BlockShape::soft_block(entry.area_mm2);
        shape.min_aspect = 0.5;
        shape.max_aspect = 2.0;
        switch_shapes.push_back(shape);
      }
      const auto placement = topology.relative_placement();
      start = now_s();
      const auto floorplan = sunmap::fplan::Floorplanner(config.floorplan)
                                 .place(placement, core_shapes, switch_shapes);
      probe.place_s += now_s() - start;
      if (floorplan.area_mm2() != mapping.eval.design_area_mm2) {
        problems.push_back("floorplan replay: area differs on " +
                           topology.name() + " at " + result.point.label());
      }
    }
  }
  return probe;
}

}  // namespace perfbench
