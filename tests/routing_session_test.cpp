// Transactional incremental-routing tests. The split-all RoutingSession must
// be bit-identical to the from-scratch canonical routing loop after any mix
// of speculative solves, pops, commits and nested frames — and the DeltaTxn
// protocol built on top of it (including batched multi-swap moves) must
// leave every evaluation exactly where the from-scratch Mapper::evaluate
// lands, over randomized accept/reject walks on mesh/torus/butterfly
// topologies under all four routing kinds.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "mapping/delta_txn.h"
#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "route/routing.h"
#include "route/routing_session.h"
#include "topo/library.h"
#include "util/prng.h"

namespace sunmap::route {
namespace {

/// A small commodity list in canonical (decreasing-bandwidth) order over the
/// first `n` slots of a topology, with a deterministic endpoint pattern.
struct Workload {
  std::vector<double> demands;
  std::vector<CommodityEndpoints> endpoints;
};

Workload make_workload(const topo::Topology& topology, int commodities) {
  Workload w;
  const int slots = topology.num_slots();
  for (int k = 0; k < commodities; ++k) {
    w.demands.push_back(400.0 - 17.0 * k);
    const topo::SlotId src = (3 * k) % slots;
    topo::SlotId dst = (3 * k + 5) % slots;
    if (dst == src) dst = (dst + 1) % slots;
    w.endpoints.push_back(CommodityEndpoints{src, dst});
  }
  return w;
}

/// From-scratch reference: the canonical loop inlined — decreasing-bandwidth
/// pass, then two rip-up rounds — with no session and no reuse.
void reference_solve(const RoutingEngine& engine, const Workload& w,
                     const std::vector<CommodityEndpoints>& endpoints,
                     LoadMap& loads, std::vector<RouteSet>& routes,
                     int reroute_passes = 2) {
  loads.clear();
  const std::size_t n = w.demands.size();
  routes.assign(n, RouteSet{});
  for (std::size_t k = 0; k < n; ++k) {
    engine.route(endpoints[k].src, endpoints[k].dst, w.demands[k], loads,
                 routes[k]);
    loads.add_route(routes[k], w.demands[k]);
  }
  for (int pass = 0; pass < reroute_passes; ++pass) {
    for (std::size_t k = 0; k < n; ++k) {
      loads.remove_route(routes[k], w.demands[k]);
      engine.route(endpoints[k].src, endpoints[k].dst, w.demands[k], loads,
                   routes[k]);
      loads.add_route(routes[k], w.demands[k]);
    }
  }
}

void expect_same_state(const RoutingSession& session, const LoadMap& loads,
                       const LoadMap& expected_loads,
                       const std::vector<RouteSet>& expected_routes) {
  for (std::size_t e = 0; e < expected_loads.values().size(); ++e) {
    EXPECT_EQ(loads.values()[e], expected_loads.values()[e]) << "edge " << e;
  }
  for (int k = 0; k < session.num_commodities(); ++k) {
    EXPECT_TRUE(same_routes(session.route(k),
                            expected_routes[static_cast<std::size_t>(k)]))
        << "commodity " << k;
  }
}

TEST(RoutingSession, FirstSolveIsAFullSolveEqualToFromScratch) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 10);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  EXPECT_EQ(session.stats().full_solves, 1);
  EXPECT_EQ(session.stats().incremental_solves, 0);
  EXPECT_EQ(session.stats().reused, 0);
  LoadMap expected_loads(num_edges);
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w, w.endpoints, expected_loads, expected_routes);
  expect_same_state(session, loads, expected_loads, expected_routes);
}

TEST(RoutingSession, IncrementalSolveBitIdenticalToFromScratch) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 10);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);

  // A sequence of single-endpoint moves, each checked bitwise against a
  // from-scratch solve of the same assignment.
  auto endpoints = w.endpoints;
  util::Prng prng(7);
  for (int step = 0; step < 12; ++step) {
    const auto idx = static_cast<std::size_t>(prng.next_int(0, 9));
    endpoints[idx].dst =
        (endpoints[idx].dst + 1 + prng.next_int(0, mesh->num_slots() - 3)) %
        mesh->num_slots();
    if (endpoints[idx].dst == endpoints[idx].src) {
      endpoints[idx].dst = (endpoints[idx].dst + 1) % mesh->num_slots();
    }
    session.solve(engine, endpoints, loads, /*speculative=*/false);
    LoadMap expected_loads(num_edges);
    std::vector<RouteSet> expected_routes;
    reference_solve(engine, w, endpoints, expected_loads, expected_routes);
    SCOPED_TRACE("step " + std::to_string(step));
    expect_same_state(session, loads, expected_loads, expected_routes);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // One commodity moving at a time keeps the walk under the dirty
  // fallback, so the incremental path was actually exercised.
  EXPECT_GT(session.stats().incremental_solves, 0);
  EXPECT_GT(session.stats().reused, 0);
}

TEST(RoutingSession, RejectsEnginesThatAreNotSplitAll) {
  const auto mesh = topo::make_mesh_for(9);
  const auto w = make_workload(*mesh, 5);
  for (const RoutingKind kind :
       {RoutingKind::kMinPath, RoutingKind::kDimensionOrdered,
        RoutingKind::kSplitMin}) {
    RoutingEngine engine(*mesh, kind);
    RoutingSession session;
    session.reset(w.demands, /*reroute_passes=*/1);
    LoadMap loads(mesh->switch_graph().num_edges());
    EXPECT_THROW(
        session.solve(engine, w.endpoints, loads, /*speculative=*/false),
        std::invalid_argument)
        << to_string(kind);
    EXPECT_EQ(session.stats().solves, 0);
    EXPECT_FALSE(session.valid());
  }
}

TEST(RoutingSession, SpeculativePopRestoresDisplacedStateVerbatim) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 10);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  LoadMap base_loads(num_edges);
  std::vector<RouteSet> base_routes;
  reference_solve(engine, w, w.endpoints, base_loads, base_routes);

  auto moved = w.endpoints;
  std::swap(moved[2].dst, moved[5].dst);
  {
    // The speculative result itself must match a from-scratch solve.
    session.solve(engine, moved, loads, /*speculative=*/true);
    EXPECT_EQ(session.open_frames(), 1);
    LoadMap expected(num_edges);
    std::vector<RouteSet> expected_routes;
    reference_solve(engine, w, moved, expected, expected_routes);
    expect_same_state(session, loads, expected, expected_routes);
  }
  session.pop();
  EXPECT_EQ(session.open_frames(), 0);
  // After the pop, replaying the base endpoints must reuse the restored
  // trace and land bit-identically on the base state.
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  expect_same_state(session, loads, base_loads, base_routes);
}

TEST(RoutingSession, NestedFramesUnwindInOrder) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 8);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);

  auto level1 = w.endpoints;
  level1[0].dst = (level1[0].dst + 3) % mesh->num_slots();
  if (level1[0].dst == level1[0].src) {
    level1[0].dst = (level1[0].dst + 1) % mesh->num_slots();
  }
  auto level2 = level1;
  level2[7].src = (level2[7].src + 2) % mesh->num_slots();
  if (level2[7].src == level2[7].dst) {
    level2[7].src = (level2[7].src + 1) % mesh->num_slots();
  }

  session.solve(engine, level1, loads, /*speculative=*/true);
  session.solve(engine, level2, loads, /*speculative=*/true);
  EXPECT_EQ(session.open_frames(), 2);

  // Unwind to level 1: a replay of its endpoints (speculatively — the outer
  // frame is still open) must land exactly on the level-1 state.
  session.pop();
  EXPECT_EQ(session.open_frames(), 1);
  {
    session.solve(engine, level1, loads, /*speculative=*/true);
    LoadMap expected(num_edges);
    std::vector<RouteSet> expected_routes;
    reference_solve(engine, w, level1, expected, expected_routes);
    expect_same_state(session, loads, expected, expected_routes);
    session.pop();
  }
  // Unwind to the base and verify it destructively.
  session.pop();
  EXPECT_EQ(session.open_frames(), 0);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  LoadMap expected(num_edges);
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w, w.endpoints, expected, expected_routes);
  expect_same_state(session, loads, expected, expected_routes);
}

TEST(RoutingSession, CommitKeepsSpeculatedTrace) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 10);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  auto moved = w.endpoints;
  moved[4].dst = (moved[4].dst + 7) % mesh->num_slots();
  if (moved[4].dst == moved[4].src) {
    moved[4].dst = (moved[4].dst + 1) % mesh->num_slots();
  }
  session.solve(engine, moved, loads, /*speculative=*/true);
  session.commit();
  EXPECT_EQ(session.open_frames(), 0);
  // The committed trace is now the base: replaying it must be pure reuse.
  const auto reused_before = session.stats().reused;
  session.solve(engine, moved, loads, /*speculative=*/false);
  EXPECT_GT(session.stats().reused, reused_before);
  LoadMap expected(num_edges);
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w, moved, expected, expected_routes);
  expect_same_state(session, loads, expected, expected_routes);
}

TEST(RoutingSession, DirtyFallbackStillBitIdentical) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 8);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);

  // Move more than a quarter of the commodities: the session must abandon
  // the replay (full_solves ticks) and still match from scratch.
  auto moved = w.endpoints;
  for (int k = 0; k < 4; ++k) {
    moved[static_cast<std::size_t>(k)].dst =
        (moved[static_cast<std::size_t>(k)].dst + 4) % mesh->num_slots();
    if (moved[static_cast<std::size_t>(k)].dst ==
        moved[static_cast<std::size_t>(k)].src) {
      moved[static_cast<std::size_t>(k)].dst =
          (moved[static_cast<std::size_t>(k)].dst + 1) % mesh->num_slots();
    }
  }
  const auto full_before = session.stats().full_solves;
  session.solve(engine, moved, loads, /*speculative=*/true);
  EXPECT_EQ(session.stats().full_solves, full_before + 1);
  LoadMap expected(num_edges);
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w, moved, expected, expected_routes);
  expect_same_state(session, loads, expected, expected_routes);
  session.pop();
}

TEST(RoutingSession, ProtocolMisuseThrows) {
  const auto mesh = topo::make_mesh_for(9);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 5);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/1);
  LoadMap loads(mesh->switch_graph().num_edges());

  EXPECT_THROW(session.pop(), std::logic_error);
  std::vector<CommodityEndpoints> short_list(3);
  EXPECT_THROW(
      session.solve(engine, short_list, loads, /*speculative=*/false),
      std::invalid_argument);

  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  session.solve(engine, w.endpoints, loads, /*speculative=*/true);
  // A destructive solve under an open frame would corrupt the journal.
  EXPECT_THROW(
      session.solve(engine, w.endpoints, loads, /*speculative=*/false),
      std::logic_error);
  session.pop();
  EXPECT_THROW(session.pop(), std::logic_error);
}

TEST(RoutingSession, SpeculationOnInvalidBasePopsToInvalid) {
  const auto mesh = topo::make_mesh_for(9);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 5);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/1);
  LoadMap loads(mesh->switch_graph().num_edges());
  EXPECT_FALSE(session.valid());
  // First solve is speculative (a txn opened before any base solve): there
  // is no trace to restore, so the pop leaves the session invalid and the
  // next solve simply re-routes from scratch.
  session.solve(engine, w.endpoints, loads, /*speculative=*/true);
  EXPECT_TRUE(session.valid());
  session.pop();
  EXPECT_FALSE(session.valid());
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  LoadMap expected(mesh->switch_graph().num_edges());
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w, w.endpoints, expected, expected_routes,
                  /*reroute_passes=*/1);
  expect_same_state(session, loads, expected, expected_routes);
}

}  // namespace
}  // namespace sunmap::route

namespace sunmap::mapping {
namespace {

void expect_same_metrics(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.avg_switch_hops, b.avg_switch_hops);
  EXPECT_EQ(a.avg_path_latency_ns, b.avg_path_latency_ns);
  EXPECT_EQ(a.design_area_mm2, b.design_area_mm2);
  EXPECT_EQ(a.design_power_mw, b.design_power_mw);
  EXPECT_EQ(a.max_link_load_mbps, b.max_link_load_mbps);
  EXPECT_EQ(a.bandwidth_feasible, b.bandwidth_feasible);
  EXPECT_EQ(a.area_feasible, b.area_feasible);
}

std::vector<int> inverse_of(const std::vector<int>& core_to_slot,
                            int num_slots) {
  std::vector<int> slot_to_core(static_cast<std::size_t>(num_slots), -1);
  for (std::size_t c = 0; c < core_to_slot.size(); ++c) {
    slot_to_core[static_cast<std::size_t>(core_to_slot[c])] =
        static_cast<int>(c);
  }
  return slot_to_core;
}

/// Randomized accept/reject walk over batched multi-swap transactions:
/// every speculative evaluation is checked bitwise against the from-scratch
/// Mapper::evaluate (no session, no floorplan or metrics cache) — including
/// evaluations right after rollbacks, where a stale routing frame would
/// show.
void run_routing_txn_walk(const CoreGraph& app,
                          const topo::Topology& topology, MapperConfig config,
                          int steps, std::uint64_t seed) {
  Mapper mapper(config);
  const EvalContext ctx(app, topology, config, mapper.library());

  std::vector<int> mapping(static_cast<std::size_t>(app.num_cores()));
  for (int c = 0; c < app.num_cores(); ++c) {
    mapping[static_cast<std::size_t>(c)] = c;
  }
  auto inverse = inverse_of(mapping, topology.num_slots());

  EvalScratch scratch;
  DeltaTxn txn(ctx, scratch, mapping, inverse);
  util::Prng prng(seed);
  const int slots = topology.num_slots();
  for (int step = 0; step < steps; ++step) {
    std::vector<SlotMove> moves;
    const int batch = prng.chance(0.4) ? 2 : 1;
    for (int m = 0; m < batch; ++m) {
      const int a = prng.next_int(0, slots - 1);
      int b = prng.next_int(0, slots - 2);
      if (b >= a) ++b;
      moves.emplace_back(a, b);
    }
    txn.begin_moves(moves);
    const auto eval = txn.evaluate(/*materialize=*/false);
    {
      const auto expected = mapper.evaluate(app, topology, mapping);
      SCOPED_TRACE(topology.name() + " step " + std::to_string(step) +
                   " batch " + std::to_string(batch));
      expect_same_metrics(eval, expected);
    }
    if (prng.chance(0.5)) {
      txn.commit();
    } else {
      txn.rollback();
      EXPECT_EQ(inverse, inverse_of(mapping, topology.num_slots()));
      const auto back = txn.evaluate(/*materialize=*/false);
      const auto expected = mapper.evaluate(app, topology, mapping);
      SCOPED_TRACE(topology.name() + " rollback " + std::to_string(step));
      expect_same_metrics(back, expected);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void run_walk_all_kinds(const topo::Topology& topology, int steps,
                        std::uint64_t seed) {
  const auto app = apps::vopd();
  for (route::RoutingKind kind : route::kAllRoutingKinds) {
    MapperConfig config;
    config.routing = kind;
    SCOPED_TRACE(route::to_string(kind));
    run_routing_txn_walk(app, topology, config, steps, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RoutingTxnWalk, AllKindsOnMesh) {
  const auto mesh = topo::make_mesh_for(16);  // 12 cores, 4 empty slots
  run_walk_all_kinds(*mesh, 20, 61);
}

TEST(RoutingTxnWalk, AllKindsOnTorus) {
  const auto torus = topo::make_torus_for(apps::vopd().num_cores());
  run_walk_all_kinds(*torus, 20, 62);
}

TEST(RoutingTxnWalk, AllKindsOnButterfly) {
  const auto butterfly = topo::make_butterfly_for(apps::vopd().num_cores());
  run_walk_all_kinds(*butterfly, 20, 63);
}

TEST(RoutingTxnWalk, MaterializedRoutesMatchFromScratch) {
  // Materialized evaluations copy the routes out (from the split-all
  // session, or the minimum-path loop's buffers); those must be the exact
  // routes the from-scratch Mapper::evaluate computes.
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  for (const route::RoutingKind kind :
       {route::RoutingKind::kMinPath, route::RoutingKind::kSplitAll}) {
    SCOPED_TRACE(route::to_string(kind));
    MapperConfig config;
    config.routing = kind;
    Mapper mapper(config);
    const EvalContext ctx(app, *mesh, config, mapper.library());

    std::vector<int> mapping(static_cast<std::size_t>(app.num_cores()));
    for (int c = 0; c < app.num_cores(); ++c) {
      mapping[static_cast<std::size_t>(c)] = c;
    }
    auto inverse = inverse_of(mapping, mesh->num_slots());
    EvalScratch scratch;
    DeltaTxn txn(ctx, scratch, mapping, inverse);
    util::Prng prng(77);
    for (int step = 0; step < 10; ++step) {
      const int a = prng.next_int(0, mesh->num_slots() - 1);
      int b = prng.next_int(0, mesh->num_slots() - 2);
      if (b >= a) ++b;
      txn.begin_swap(a, b);
      const auto eval = txn.evaluate(/*materialize=*/true);
      const auto expected = mapper.evaluate(app, *mesh, mapping);
      ASSERT_EQ(eval.routes.size(), expected.routes.size());
      for (std::size_t k = 0; k < eval.routes.size(); ++k) {
        EXPECT_TRUE(route::same_routes(eval.routes[k], expected.routes[k]))
            << "commodity " << k << " step " << step;
      }
      expect_same_metrics(eval, expected);
      if (prng.chance(0.5)) {
        txn.commit();
      } else {
        txn.rollback();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(RoutingTxnWalk, SessionOnlyForSplitAll) {
  // Minimum-path evaluations route from scratch and never build a session;
  // split-all walks keep one and reuse part of the cached trace.
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  for (const route::RoutingKind kind : route::kAllRoutingKinds) {
    SCOPED_TRACE(route::to_string(kind));
    MapperConfig config;
    config.routing = kind;
    config.search = SearchKind::kAnnealing;
    config.annealing_iterations = 100;
    const Mapper mapper(config);
    const EvalContext ctx = mapper.make_context(app, *mesh);
    EvalScratch scratch;
    (void)mapper.map(ctx, scratch);
    if (kind == route::RoutingKind::kSplitAll) {
      ASSERT_NE(scratch.routing_session, nullptr);
      EXPECT_GT(scratch.routing_session->stats().incremental_solves, 0);
      EXPECT_GT(scratch.routing_session->stats().reused, 0);
    } else {
      EXPECT_EQ(scratch.routing_session, nullptr);
    }
  }
}

TEST(RoutingTxn, EmptyMoveBatchThrows) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  Mapper mapper{MapperConfig{}};
  const EvalContext ctx(app, *mesh, MapperConfig{}, mapper.library());
  std::vector<int> mapping(static_cast<std::size_t>(app.num_cores()));
  for (int c = 0; c < app.num_cores(); ++c) {
    mapping[static_cast<std::size_t>(c)] = c;
  }
  auto inverse = inverse_of(mapping, mesh->num_slots());
  EvalScratch scratch;
  DeltaTxn txn(ctx, scratch, mapping, inverse);
  EXPECT_THROW(txn.begin_moves({}), std::invalid_argument);
  txn.begin_moves({{0, 1}, {1, 2}});
  EXPECT_THROW(txn.begin_moves({{2, 3}}), std::logic_error);
  txn.rollback();
  EXPECT_EQ(inverse, inverse_of(mapping, mesh->num_slots()));
}

/// Frozen result of a from-scratch split-all search: recorded with the
/// session bypassed (every evaluation paying the canonical loop), so the
/// session may only change how routes are computed, never what any search
/// sees — including with the 2-opt chain move generator exercising batched
/// multi-swap transactions.
struct FrozenSearch {
  std::vector<int> core_to_slot;
  double cost = 0.0;
  double max_link_load_mbps = 0.0;
  double design_power_mw = 0.0;
  int evaluated_mappings = 0;
  int pruned_mappings = 0;
};

void expect_search_matches(SearchKind kind, double chain_move_prob,
                           const FrozenSearch& frozen) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.search = kind;
  config.routing = route::RoutingKind::kSplitAll;
  config.annealing_iterations = 300;
  config.annealing_chain_move_prob = chain_move_prob;
  const MappingResult result = Mapper(config).map(app, *mesh);
  EXPECT_EQ(result.core_to_slot, frozen.core_to_slot);
  EXPECT_EQ(result.eval.cost, frozen.cost);
  EXPECT_EQ(result.eval.max_link_load_mbps, frozen.max_link_load_mbps);
  EXPECT_EQ(result.eval.design_power_mw, frozen.design_power_mw);
  EXPECT_EQ(result.evaluated_mappings, frozen.evaluated_mappings);
  EXPECT_EQ(result.pruned_mappings, frozen.pruned_mappings);
}

TEST(TransactionalRoutingSearch, GreedyMatchesFromScratchUnderSplitAll) {
  expect_search_matches(SearchKind::kGreedySwaps, 0.0,
                        {{7, 6, 10, 9, 13, 8, 4, 0, 5, 2, 1, 3},
                         2.3564907993099484,
                         500.0,
                         497.38779098889506,
                         229,
                         132});
}

TEST(TransactionalRoutingSearch, AnnealingChainMovesMatchFromScratchUnderSplitAll) {
  expect_search_matches(SearchKind::kAnnealing, 0.35,
                        {{7, 6, 10, 9, 13, 8, 4, 5, 0, 2, 1, 3},
                         2.3989361702127661,
                         375.0,
                         517.35655209879985,
                         290,
                         0});
}

TEST(TransactionalRoutingSearch, RestartAnnealingMatchesFromScratchUnderSplitAll) {
  expect_search_matches(SearchKind::kRestartAnnealing, 0.0,
                        {{7, 6, 10, 9, 13, 8, 4, 5, 0, 2, 1, 3},
                         2.3989361702127661,
                         375.0,
                         517.35655209879985,
                         287,
                         0});
}

TEST(TransactionalRoutingSearch, ChainMoveProbabilityValidated) {
  MapperConfig config;
  config.annealing_chain_move_prob = 1.5;
  EXPECT_THROW(Mapper{config}, std::invalid_argument);
  config.annealing_chain_move_prob = -0.1;
  EXPECT_THROW(Mapper{config}, std::invalid_argument);
}

}  // namespace
}  // namespace sunmap::mapping
