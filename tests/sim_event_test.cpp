// Event-driven vs cycle-stepped engine equivalence: the two engines share
// the router model but differ completely in how time advances, so every
// field of SimStats must match bit-for-bit across the full (topology x
// routing kind x VC config x traffic model) matrix, including the stall /
// saturation / undelivered verdict paths.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "topo/library.h"

namespace sunmap::sim {
namespace {

void expect_identical(const SimStats& event, const SimStats& cycle,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(event.cycles, cycle.cycles);
  EXPECT_EQ(event.packets_generated, cycle.packets_generated);
  EXPECT_EQ(event.packets_delivered, cycle.packets_delivered);
  // Exact equality on purpose: the engines must accumulate the same
  // latencies in the same order, not merely agree to within rounding.
  EXPECT_EQ(event.avg_latency_cycles, cycle.avg_latency_cycles);
  EXPECT_EQ(event.max_latency_cycles, cycle.max_latency_cycles);
  EXPECT_EQ(event.p50_latency_cycles, cycle.p50_latency_cycles);
  EXPECT_EQ(event.p95_latency_cycles, cycle.p95_latency_cycles);
  EXPECT_EQ(event.p99_latency_cycles, cycle.p99_latency_cycles);
  EXPECT_EQ(event.throughput_flits_per_cycle_per_slot,
            cycle.throughput_flits_per_cycle_per_slot);
  EXPECT_EQ(event.offered_flits_per_cycle_per_slot,
            cycle.offered_flits_per_cycle_per_slot);
  EXPECT_EQ(event.saturated, cycle.saturated);
  EXPECT_EQ(event.status, cycle.status);
  EXPECT_EQ(event.stalled_cycles, cycle.stalled_cycles);
  EXPECT_EQ(event.undelivered_packets, cycle.undelivered_packets);
  EXPECT_EQ(event.flit_events, cycle.flit_events);
}

SimConfig matrix_config(std::uint64_t seed) {
  SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 1500;
  config.drain_cycles = 6000;
  config.stall_limit_cycles = 400;
  config.seed = seed;
  return config;
}

/// Runs the same traffic spec under both engines and asserts identity.
/// Traffic models are stateful, so each engine gets a fresh instance.
template <typename MakeTraffic>
void run_both(const topo::Topology& topology, const RouteTable& routes,
              SimConfig config, MakeTraffic make_traffic,
              const std::string& label) {
  config.engine = SimEngine::kEventDriven;
  Simulator event_sim(topology, routes, config);
  auto event_traffic = make_traffic();
  const auto event_stats = event_sim.run(*event_traffic);

  config.engine = SimEngine::kCycleStepped;
  Simulator cycle_sim(topology, routes, config);
  auto cycle_traffic = make_traffic();
  const auto cycle_stats = cycle_sim.run(*cycle_traffic);

  expect_identical(event_stats, cycle_stats, label);
}

TEST(SimEventEquivalence, FullMatrixIsBitIdentical) {
  struct TopoCase {
    const char* name;
    std::unique_ptr<topo::Topology> topology;
  };
  std::vector<TopoCase> topologies;
  topologies.push_back({"mesh16", topo::make_mesh_for(16)});
  topologies.push_back({"torus16", topo::make_torus_for(16)});
  topologies.push_back({"butterfly16", topo::make_butterfly_for(16)});

  std::uint64_t seed = 1;
  for (const auto& tc : topologies) {
    for (const auto kind : route::kAllRoutingKinds) {
      const auto routes = RouteTable::all_pairs(*tc.topology, kind);
      for (const bool vcs : {false, true}) {
        for (const bool bursty : {false, true}) {
          SimConfig config = matrix_config(seed++);
          config.distance_class_vcs = vcs;
          const int slots = tc.topology->num_slots();
          auto make_traffic = [&]() -> std::unique_ptr<TrafficModel> {
            if (bursty) {
              return std::make_unique<BurstyTraffic>(
                  slots, Pattern::kUniform, 0.3, config.flits_per_packet,
                  30.0, 0.3);
            }
            return std::make_unique<PatternTraffic>(
                slots, Pattern::kUniform, 0.10, config.flits_per_packet);
          };
          const std::string label =
              std::string(tc.name) + "/" + route::to_string(kind) +
              (vcs ? "/dvc" : "/vc1") + (bursty ? "/bursty" : "/uniform");
          run_both(*tc.topology, routes, config, make_traffic, label);
        }
      }
    }
  }
}

TEST(SimEventEquivalence, DeadlockStallVerdictIsBitIdentical) {
  // Split-traffic routes on a single-VC mesh under heavy adversarial load:
  // the cyclic channel dependencies wedge the wormholes and both engines
  // must hit the stall limit on the same cycle with the same stall count.
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kSplitAll);
  SimConfig config = matrix_config(7);
  config.stall_limit_cycles = 300;
  run_both(*mesh, routes, config, [&] {
    return std::make_unique<PatternTraffic>(mesh->num_slots(),
                                            Pattern::kBitComplement, 0.5,
                                            config.flits_per_packet);
  }, "deadlock-stall");
}

TEST(SimEventEquivalence, SaturationVerdictIsBitIdentical) {
  // Offered load far past capacity, distance-class VCs so it congests
  // without deadlocking: the acceptance check must fire identically.
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  SimConfig config = matrix_config(11);
  config.distance_class_vcs = true;
  config.drain_cycles = 3000;
  run_both(*mesh, routes, config, [&] {
    return std::make_unique<PatternTraffic>(mesh->num_slots(),
                                            Pattern::kBitComplement, 0.8,
                                            config.flits_per_packet);
  }, "saturation");
}

TEST(SimEventEquivalence, UndeliveredVerdictIsBitIdentical) {
  // A drain budget too small to flush the measured packets: the run ends
  // with undelivered packets (not a stall) in both engines.
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  SimConfig config = matrix_config(13);
  config.distance_class_vcs = true;
  config.drain_cycles = 5;
  run_both(*mesh, routes, config, [&] {
    return std::make_unique<PatternTraffic>(mesh->num_slots(),
                                            Pattern::kUniform, 0.3,
                                            config.flits_per_packet);
  }, "undelivered");
}

TEST(SimEventEquivalence, HighLinkLatencyAndDeepBuffersMatch) {
  const auto torus = topo::make_torus_for(16);
  const auto routes =
      RouteTable::all_pairs(*torus, route::RoutingKind::kMinPath);
  SimConfig config = matrix_config(17);
  config.link_latency_cycles = 4;
  config.buffer_depth_flits = 8;
  config.flits_per_packet = 6;
  config.distance_class_vcs = true;
  run_both(*torus, routes, config, [&] {
    return std::make_unique<PatternTraffic>(torus->num_slots(),
                                            Pattern::kTornado, 0.2,
                                            config.flits_per_packet);
  }, "latency4-depth8");
}

TEST(SimEventEquivalence, TraceTrafficMatches) {
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kSplitMin);
  SimConfig config = matrix_config(19);
  config.distance_class_vcs = true;
  run_both(*mesh, routes, config, [&] {
    std::vector<TrafficFlow> flows{
        {0, 15, 400.0}, {15, 0, 400.0}, {3, 12, 250.0}, {5, 10, 150.0}};
    return std::make_unique<TraceTraffic>(flows, config.flits_per_packet,
                                          0.5);
  }, "trace");
}

TEST(Simulator, RunIsRepeatable) {
  // run() resets all dynamic state including the PRNG: the same Simulator
  // rerun with fresh traffic produces the same stats as a new instance.
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  const SimConfig config = matrix_config(23);
  Simulator reused(*mesh, routes, config);
  PatternTraffic first(mesh->num_slots(), Pattern::kUniform, 0.15, 4);
  const auto run1 = reused.run(first);
  PatternTraffic second(mesh->num_slots(), Pattern::kUniform, 0.15, 4);
  const auto run2 = reused.run(second);
  expect_identical(run1, run2, "reuse");

  Simulator fresh(*mesh, routes, config);
  PatternTraffic third(mesh->num_slots(), Pattern::kUniform, 0.15, 4);
  expect_identical(run1, fresh.run(third), "reuse-vs-fresh");
}

TEST(Simulator, SharedLayoutMatchesPrivateLayout) {
  const auto mesh = topo::make_mesh_for(16);
  const auto layout = make_network_layout(*mesh);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kMinPath);
  const SimConfig config = matrix_config(29);
  PatternTraffic a(mesh->num_slots(), Pattern::kTranspose, 0.2, 4);
  Simulator with_layout(*mesh, routes, config, layout);
  const auto shared_stats = with_layout.run(a);
  PatternTraffic b(mesh->num_slots(), Pattern::kTranspose, 0.2, 4);
  Simulator without(*mesh, routes, config);
  expect_identical(shared_stats, without.run(b), "shared-layout");
}

TEST(Simulator, BindRebindsRoutesOnSameNetwork) {
  // One Simulator scores two different route tables over one topology —
  // the finalist-scoring reuse pattern. Each binding must match a fresh
  // simulator built directly on that table.
  const auto mesh = topo::make_mesh_for(16);
  const auto do_routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  const auto sa_routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kSplitAll);
  SimConfig config = matrix_config(31);
  config.distance_class_vcs = true;

  Simulator reused(*mesh, do_routes, config);
  PatternTraffic a(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  const auto do_stats = reused.run(a);
  reused.bind(sa_routes);
  PatternTraffic b(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  const auto sa_stats = reused.run(b);

  Simulator fresh_do(*mesh, do_routes, config);
  PatternTraffic c(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  expect_identical(do_stats, fresh_do.run(c), "bind-do");
  Simulator fresh_sa(*mesh, sa_routes, config);
  PatternTraffic d(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  expect_identical(sa_stats, fresh_sa.run(d), "bind-sa");
}

TEST(RouteTable, BorrowedRoutesBehaveLikeOwned) {
  const auto mesh = topo::make_mesh_for(9);
  const auto owned =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  RouteTable borrowed(mesh->num_slots());
  for (int s = 0; s < mesh->num_slots(); ++s) {
    for (int d = 0; d < mesh->num_slots(); ++d) {
      if (s == d) continue;
      borrowed.set_ref(s, d, owned.at(s, d));
    }
  }
  EXPECT_EQ(borrowed.max_path_switches(), owned.max_path_switches());

  const SimConfig config = matrix_config(37);
  PatternTraffic a(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  Simulator on_owned(*mesh, owned, config);
  const auto owned_stats = on_owned.run(a);
  PatternTraffic b(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  Simulator on_borrowed(*mesh, borrowed, config);
  expect_identical(owned_stats, on_borrowed.run(b), "borrowed");
}

TEST(BurstyTraffic, InjectsOnlyDuringBurstsAtTheConfiguredRate) {
  util::Prng prng(5);
  BurstyTraffic traffic(16, Pattern::kUniform, 0.4, 4, 50.0, 0.25);
  std::vector<std::pair<int, int>> out;
  std::uint64_t injected = 0;
  const std::uint64_t cycles = 200000;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    out.clear();
    traffic.injections(c, prng, out);
    injected += out.size();
  }
  // Long-run packet rate per slot ~= duty * burst_rate / flits_per_packet,
  // minus the self-addressed redraws (none for uniform). 25% duty at 0.1
  // packets/cycle -> 0.025; allow generous tolerance.
  const double rate =
      static_cast<double>(injected) / static_cast<double>(cycles) / 16.0;
  EXPECT_GT(rate, 0.015);
  EXPECT_LT(rate, 0.035);
}

TEST(BurstyTraffic, RejectsInvalidShape) {
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, 0.4, 4, 0.5, 0.25),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, 0.4, 4, 30.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, 0.4, 4, 30.0, 1.0),
               std::invalid_argument);
}

TEST(EventQueue, RingWrapsAndGrowsWithoutReordering) {
  // Interleave schedules and pops so the ring's head walks away from slot 0
  // and the arena both wraps around and grows while wrapped; pop order must
  // stay (cycle, schedule-order) throughout.
  EventQueue queue;
  int scheduled = 0;
  int popped = 0;
  std::uint64_t cycle = 0;
  const auto push = [&](int n) {
    for (int i = 0; i < n; ++i) queue.schedule(++cycle, scheduled++);
  };
  const auto drain = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_FALSE(queue.empty());
      EXPECT_EQ(queue.front().payload, popped++);
      queue.pop();
    }
  };
  push(40);
  drain(30);                        // head now mid-arena
  push(50);                         // wraps within the 64-slot arena
  push(100);                        // grows past 64 while wrapped
  drain(160);
  EXPECT_TRUE(queue.empty());

  // clear() keeps the storage and resets to a pristine queue.
  push(3);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  queue.schedule(cycle + 1, 7);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.front().payload, 7);
}

TEST(EventQueue, PopsInCycleThenFifoOrder) {
  EventQueue queue;
  queue.schedule(3, 1);
  queue.schedule(3, 2);
  queue.schedule(3, 2);  // adjacent duplicate coalesces
  queue.schedule(5, 0);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_FALSE(queue.due(2));
  ASSERT_TRUE(queue.due(3));
  EXPECT_EQ(queue.front().payload, 1);
  queue.pop();
  EXPECT_EQ(queue.front().payload, 2);
  queue.pop();
  EXPECT_FALSE(queue.due(4));
  ASSERT_TRUE(queue.due(5));
  EXPECT_EQ(queue.front().payload, 0);
  queue.pop();
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace sunmap::sim

// ---- The explorer's high-fidelity finalist tier and its outputs. ----

#include <algorithm>

#include "apps/apps.h"
#include "io/exploration_io.h"
#include "mapping/sim_eval.h"
#include "select/explorer.h"

namespace sunmap {
namespace {

select::ExplorationRequest tier_request(
    const mapping::CoreGraph& app,
    const std::vector<std::unique_ptr<topo::Topology>>& library) {
  select::ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.objectives = {mapping::Objective::kMinDelay,
                        mapping::Objective::kMinPower};
  request.routings = {route::RoutingKind::kDimensionOrdered,
                      route::RoutingKind::kMinPath};
  return request;
}

std::size_t count_scored(const select::ExplorationReport& report) {
  std::size_t scored = 0;
  for (const auto& result : report.results) {
    for (const auto& candidate : result.selection.candidates) {
      if (candidate.sim.has_value()) ++scored;
    }
  }
  return scored;
}

TEST(SimFinalistTier, IsPurelyAdditiveAndDeterministic) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  const auto reference = explorer.explore(request);
  request.sim_finalists = 2;
  const auto scored = explorer.explore(request);

  // The tier must not perturb mapping, selection, or winners.
  ASSERT_EQ(scored.results.size(), reference.results.size());
  for (std::size_t p = 0; p < reference.results.size(); ++p) {
    const auto& ref = reference.results[p].selection;
    const auto& got = scored.results[p].selection;
    EXPECT_EQ(got.best_index, ref.best_index);
    ASSERT_EQ(got.candidates.size(), ref.candidates.size());
    for (std::size_t t = 0; t < ref.candidates.size(); ++t) {
      EXPECT_EQ(got.candidates[t].result.eval.cost,
                ref.candidates[t].result.eval.cost);
      EXPECT_EQ(got.candidates[t].result.core_to_slot,
                ref.candidates[t].result.core_to_slot);
      EXPECT_FALSE(ref.candidates[t].sim.has_value());
    }
  }
  ASSERT_EQ(scored.winners.size(), reference.winners.size());
  for (std::size_t w = 0; w < reference.winners.size(); ++w) {
    EXPECT_EQ(scored.winners[w].point_index, reference.winners[w].point_index);
    EXPECT_EQ(scored.winners[w].topology_index,
              reference.winners[w].topology_index);
  }

  // Top-K per objective group: at least each group's best cell is scored,
  // never more than K per group, only feasible cells, and every winner cell
  // (each group's top-1 by definition) carries a score.
  const std::size_t groups = scored.winners.size();
  EXPECT_GE(count_scored(scored), groups);
  EXPECT_LE(count_scored(scored), groups * 2);
  for (const auto& result : scored.results) {
    for (const auto& candidate : result.selection.candidates) {
      if (candidate.sim.has_value()) {
        EXPECT_TRUE(candidate.feasible());
        // Contention can only add to the zero-load pipeline latency.
        EXPECT_GE(candidate.sim->simulated_latency_cycles,
                  candidate.sim->analytical_latency_cycles - 1e-9);
        EXPECT_GT(candidate.sim->stats.packets_delivered, 0u);
      }
    }
  }
  for (const auto& winner : scored.winners) {
    ASSERT_TRUE(winner.found());
    const auto& cell =
        scored.results[static_cast<std::size_t>(winner.point_index)]
            .selection
            .candidates[static_cast<std::size_t>(winner.topology_index)];
    EXPECT_TRUE(cell.sim.has_value());
  }

  // Re-running the identical request reproduces every score bit for bit.
  const auto again = explorer.explore(request);
  ASSERT_EQ(count_scored(again), count_scored(scored));
  for (std::size_t p = 0; p < scored.results.size(); ++p) {
    for (std::size_t t = 0;
         t < scored.results[p].selection.candidates.size(); ++t) {
      const auto& a = scored.results[p].selection.candidates[t].sim;
      const auto& b = again.results[p].selection.candidates[t].sim;
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a.has_value()) continue;
      EXPECT_EQ(a->stats.avg_latency_cycles, b->stats.avg_latency_cycles);
      EXPECT_EQ(a->stats.cycles, b->stats.cycles);
      EXPECT_EQ(a->stats.flit_events, b->stats.flit_events);
      EXPECT_EQ(a->analytical_latency_cycles, b->analytical_latency_cycles);
    }
  }
}

TEST(SimFinalistTier, RejectsStreamingAndNegativeCounts) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = -1;
  EXPECT_THROW((void)explorer.explore(request), std::invalid_argument);
  request.sim_finalists = 1;
  request.on_point = [](const select::PointResult&) {};
  EXPECT_THROW((void)explorer.explore(request), std::invalid_argument);
}

TEST(ExplorationIo, SimColumnsRenderOnlyScoredCells) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = 1;
  const auto report = explorer.explore(request);
  const std::size_t scored = count_scored(report);
  const std::size_t cells = report.results.size() * library.size();
  ASSERT_GT(scored, 0u);
  ASSERT_LT(scored, cells);

  const auto csv = io::exploration_report_csv(report);
  const auto count = [](const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_NE(csv.find("sim_latency_cycles,sim_analytical_cycles,"
                     "sim_model_error,sim_status,sim_best"),
            std::string::npos);
  // Unscored rows leave all five sim columns empty.
  EXPECT_EQ(count(csv, ",,,,\n"), cells - scored);

  const auto json = io::exploration_report_json(report);
  EXPECT_EQ(count(json, "\"sim\": {"), scored);
  EXPECT_EQ(count(json, "\"sim\": null"), cells - scored);
  EXPECT_EQ(count(json, "\"model_error\": "), scored);
}

TEST(SimEvaluator, CachesLayoutsPerTopologyAndRejectsBareResults) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::TopologySelector selector;
  const auto report = selector.select(app, library);

  mapping::SimEvaluator evaluator;
  ASSERT_GE(report.candidates.size(), 2u);
  const auto& first = report.candidates[0];
  const auto& second = report.candidates[1];
  (void)evaluator.score(app, *first.topology, first.result);
  EXPECT_EQ(evaluator.cached_layouts(), 1u);
  const auto once = evaluator.score(app, *second.topology, second.result);
  EXPECT_EQ(evaluator.cached_layouts(), 2u);
  // Repeat scoring reuses the cached simulator and reproduces the result.
  const auto twice = evaluator.score(app, *second.topology, second.result);
  EXPECT_EQ(evaluator.cached_layouts(), 2u);
  EXPECT_EQ(once.stats.avg_latency_cycles, twice.stats.avg_latency_cycles);
  EXPECT_EQ(once.stats.flit_events, twice.stats.flit_events);

  // A result with no materialized routes cannot be simulated.
  mapping::MappingResult bare;
  EXPECT_THROW((void)evaluator.score(app, *first.topology, bare),
               std::invalid_argument);
}

TEST(MapperConfigValidate, ChecksSimTierFields) {
  mapping::MapperConfig config;
  config.sim_flits_per_cycle_per_gbps = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_flits_per_cycle_per_gbps = -0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_flits_per_cycle_per_gbps = 0.05;
  EXPECT_NO_THROW(config.validate());

  // The simulator seed must be a seed, and the burst shape must be a
  // valid on/off process.
  config.sim_seed = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_seed = 42;
  EXPECT_NO_THROW(config.validate());
  config.sim_burst_len = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_burst_len = 50.0;
  config.sim_burst_duty = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_burst_duty = 0.3;
  EXPECT_NO_THROW(config.validate());
}

void expect_same_sim_scores(const select::ExplorationReport& a,
                            const select::ExplorationReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t p = 0; p < a.results.size(); ++p) {
    ASSERT_EQ(a.results[p].selection.candidates.size(),
              b.results[p].selection.candidates.size());
    for (std::size_t t = 0; t < a.results[p].selection.candidates.size();
         ++t) {
      const auto& x = a.results[p].selection.candidates[t].sim;
      const auto& y = b.results[p].selection.candidates[t].sim;
      ASSERT_EQ(x.has_value(), y.has_value());
      if (!x.has_value()) continue;
      EXPECT_EQ(x->stats.cycles, y->stats.cycles);
      EXPECT_EQ(x->stats.packets_delivered, y->stats.packets_delivered);
      EXPECT_EQ(x->stats.avg_latency_cycles, y->stats.avg_latency_cycles);
      EXPECT_EQ(x->stats.p99_latency_cycles, y->stats.p99_latency_cycles);
      EXPECT_EQ(x->stats.flit_events, y->stats.flit_events);
      EXPECT_EQ(x->stats.status, y->stats.status);
      EXPECT_EQ(x->analytical_latency_cycles, y->analytical_latency_cycles);
      EXPECT_EQ(x->simulated_latency_cycles, y->simulated_latency_cycles);
    }
  }
}

TEST(SimFinalistTier, ParallelPoolIsBitIdenticalAtAnyThreadCount) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = 3;

  request.num_threads = 1;
  const auto serial = explorer.explore(request);
  ASSERT_GT(count_scored(serial), 0u);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    request.num_threads = threads;
    const auto parallel = explorer.explore(request);
    ASSERT_EQ(count_scored(parallel), count_scored(serial));
    expect_same_sim_scores(serial, parallel);
  }
}

TEST(SimFinalistTier, BurstyTrafficIsDeterministicAndDistinctFromTrace) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = 2;
  const auto trace = explorer.explore(request);
  request.base.sim_traffic = mapping::SimTraffic::kBursty;
  const auto bursty = explorer.explore(request);
  const auto again = explorer.explore(request);

  // Repeat runs under the bursty model reproduce every score bit for bit.
  ASSERT_GT(count_scored(bursty), 0u);
  expect_same_sim_scores(bursty, again);

  // And the knob actually reaches the simulator: the on/off modulation
  // changes the delivered-traffic statistics of at least one scored cell.
  ASSERT_EQ(count_scored(trace), count_scored(bursty));
  bool differs = false;
  for (std::size_t p = 0; p < trace.results.size(); ++p) {
    for (std::size_t t = 0; t < trace.results[p].selection.candidates.size();
         ++t) {
      const auto& x = trace.results[p].selection.candidates[t].sim;
      const auto& y = bursty.results[p].selection.candidates[t].sim;
      if (!x.has_value() || !y.has_value()) continue;
      differs = differs ||
                x->stats.packets_delivered != y->stats.packets_delivered ||
                x->stats.avg_latency_cycles != y->stats.avg_latency_cycles;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(SimRank, IsAdditiveDeterministicAndCrownsAScoredFinalist) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = 2;
  const auto plain = explorer.explore(request);
  EXPECT_TRUE(plain.sim_winners.empty());

  request.sim_rank = true;
  const auto ranked = explorer.explore(request);
  const auto again = explorer.explore(request);

  // Additive: the re-rank changes nothing about the analytical report or
  // the finalist scores — it only fills sim_winners.
  expect_same_sim_scores(plain, ranked);
  ASSERT_EQ(ranked.winners.size(), plain.winners.size());
  for (std::size_t w = 0; w < plain.winners.size(); ++w) {
    EXPECT_EQ(ranked.winners[w].point_index, plain.winners[w].point_index);
    EXPECT_EQ(ranked.winners[w].topology_index,
              plain.winners[w].topology_index);
  }

  // One sim winner per objective group, deterministic across runs, and
  // always a cell the simulator actually scored.
  ASSERT_EQ(ranked.sim_winners.size(), ranked.winners.size());
  ASSERT_EQ(again.sim_winners.size(), ranked.sim_winners.size());
  for (std::size_t w = 0; w < ranked.sim_winners.size(); ++w) {
    const auto& best = ranked.sim_winners[w];
    EXPECT_EQ(best.objective, ranked.winners[w].objective);
    EXPECT_EQ(best.point_index, again.sim_winners[w].point_index);
    EXPECT_EQ(best.topology_index, again.sim_winners[w].topology_index);
    ASSERT_TRUE(best.found());
    const auto& cell =
        ranked.results[static_cast<std::size_t>(best.point_index)]
            .selection
            .candidates[static_cast<std::size_t>(best.topology_index)];
    EXPECT_TRUE(cell.sim.has_value());
  }

  // The rendered outputs surface the re-rank: the CSV gains a marked
  // sim_best cell and the JSON a sim_winners array.
  const auto csv = io::exploration_report_csv(ranked);
  EXPECT_NE(csv.find(",sim_best"), std::string::npos);
  const auto json = io::exploration_report_json(ranked);
  EXPECT_NE(json.find("\"sim_winners\": ["), std::string::npos);
  EXPECT_EQ(json.find("\"sim_winners\": [\n  ],"), std::string::npos);
  // With the re-rank off the array renders empty.
  EXPECT_NE(io::exploration_report_json(plain).find("\"sim_winners\": [\n  ],"),
            std::string::npos);

  // The re-rank without its prefilter is a contract violation.
  request.sim_finalists = 0;
  EXPECT_THROW((void)explorer.explore(request), std::invalid_argument);
}

TEST(SimEvaluator, EvictsLeastRecentlyScoredBeyondCapacity) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::TopologySelector selector;
  const auto report = selector.select(app, library);
  ASSERT_GE(report.candidates.size(), 3u);
  const auto& a = report.candidates[0];
  const auto& b = report.candidates[1];
  const auto& c = report.candidates[2];

  mapping::SimTierOptions options;
  options.cache_capacity = 2;
  mapping::SimEvaluator evaluator(options);
  const auto first = evaluator.score(app, *a.topology, a.result);
  (void)evaluator.score(app, *b.topology, b.result);
  EXPECT_EQ(evaluator.cached_layouts(), 2u);
  // Third topology evicts the least-recently-scored entry (a).
  (void)evaluator.score(app, *c.topology, c.result);
  EXPECT_EQ(evaluator.cached_layouts(), 2u);
  // Re-scoring the evicted topology rebuilds it and reproduces the score
  // bit for bit — eviction can never change results.
  const auto rebuilt = evaluator.score(app, *a.topology, a.result);
  EXPECT_EQ(evaluator.cached_layouts(), 2u);
  EXPECT_EQ(first.stats.avg_latency_cycles, rebuilt.stats.avg_latency_cycles);
  EXPECT_EQ(first.stats.flit_events, rebuilt.stats.flit_events);
  EXPECT_EQ(first.stats.cycles, rebuilt.stats.cycles);

  // Recency, not insertion order: touching the oldest entry saves it.
  mapping::SimEvaluator lru(options);
  (void)lru.score(app, *a.topology, a.result);
  (void)lru.score(app, *b.topology, b.result);
  (void)lru.score(app, *a.topology, a.result);  // refresh a
  (void)lru.score(app, *c.topology, c.result);  // must evict b, not a
  const auto before = lru.cached_layouts();
  (void)lru.score(app, *a.topology, a.result);  // cache hit
  EXPECT_EQ(lru.cached_layouts(), before);

  mapping::SimTierOptions bad;
  bad.cache_capacity = 0;
  EXPECT_THROW(mapping::SimEvaluator{bad}, std::invalid_argument);
}

TEST(SimSeed, DecouplesSimulatorPrngFromSearchSeed) {
  // sim_tier_options carries the dedicated simulator seed (and the traffic
  // shape) into the tier; the default reproduces the historical behavior
  // of seeding the simulator with SimConfig's own default.
  mapping::MapperConfig config;
  EXPECT_EQ(mapping::sim_tier_options(config).config.seed,
            sim::SimConfig{}.seed);
  config.sim_seed = 99;
  config.sim_traffic = mapping::SimTraffic::kBursty;
  config.sim_burst_len = 20.0;
  config.sim_burst_duty = 0.5;
  const auto options = mapping::sim_tier_options(config);
  EXPECT_EQ(options.config.seed, 99u);
  EXPECT_EQ(options.traffic, mapping::SimTraffic::kBursty);
  EXPECT_EQ(options.burst_len, 20.0);
  EXPECT_EQ(options.burst_duty, 0.5);

  // Different simulator seeds change the measured statistics but never the
  // analytical prediction — the searched mapping is untouched.
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::TopologySelector selector;
  const auto report = selector.select(app, library);
  const auto& best = report.candidates[0];
  mapping::SimTierOptions seeded;
  seeded.config.seed = 1;
  mapping::SimEvaluator one(seeded);
  seeded.config.seed = 2;
  mapping::SimEvaluator two(seeded);
  const auto s1 = one.score(app, *best.topology, best.result);
  const auto s2 = two.score(app, *best.topology, best.result);
  EXPECT_EQ(s1.analytical_latency_cycles, s2.analytical_latency_cycles);
  EXPECT_NE(s1.stats.avg_latency_cycles, s2.stats.avg_latency_cycles);
}

}  // namespace
}  // namespace sunmap
