// Transactional delta-evaluation tests: a DeltaTxn speculation
// (begin_swap -> evaluate/prunable -> commit | rollback) must leave every
// piece of coordinated state — mapping arrays, the scratch's incremental
// floorplan session, the session shape key — bit-identically where a
// from-scratch evaluation stack would have it, over randomized
// accept/reject sequences on grid- and columns-mode topologies under both
// floorplan engines; and the search strategies ported onto the protocol
// must return winners that the from-scratch evaluator agrees with, whatever
// state the scratch's sessions were left in by an earlier search.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/apps.h"
#include "mapping/delta_txn.h"
#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "topo/library.h"
#include "util/prng.h"

namespace sunmap::mapping {
namespace {

void expect_same_metrics(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.avg_switch_hops, b.avg_switch_hops);
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

/// Randomized accept/reject walk: every speculative evaluation through the
/// transaction is checked bitwise against the from-scratch
/// Mapper::evaluate() reference — including evaluations right after
/// rollbacks, which is where a stale session would show.
void run_txn_walk(const CoreGraph& app, const topo::Topology& topology,
                  MapperConfig config, int steps, std::uint64_t seed) {
  Mapper mapper(config);
  const EvalContext ctx(app, topology, config, mapper.library());

  std::vector<int> mapping;
  {
    // Any valid initial mapping works; take the identity-ish one.
    mapping.resize(static_cast<std::size_t>(app.num_cores()));
    for (int c = 0; c < app.num_cores(); ++c) {
      mapping[static_cast<std::size_t>(c)] = c;
    }
  }
  auto inverse = inverse_of(mapping, topology.num_slots());

  EvalScratch scratch;
  DeltaTxn txn(ctx, scratch, mapping, inverse);
  util::Prng prng(seed);
  for (int step = 0; step < steps; ++step) {
    const int a = prng.next_int(0, topology.num_slots() - 1);
    int b = prng.next_int(0, topology.num_slots() - 2);
    if (b >= a) ++b;
    if (inverse[static_cast<std::size_t>(a)] < 0 &&
        inverse[static_cast<std::size_t>(b)] < 0) {
      continue;
    }
    txn.begin_swap(a, b);
    const auto eval = txn.evaluate(/*materialize=*/false);
    {
      SCOPED_TRACE(topology.name() + " step " + std::to_string(step));
      expect_same_metrics(eval, mapper.evaluate(app, topology, mapping));
    }
    if (prng.chance(0.5)) {
      txn.commit();
    } else {
      const auto speculative = mapping;
      txn.rollback();
      EXPECT_NE(mapping, speculative);
      EXPECT_EQ(inverse, inverse_of(mapping, topology.num_slots()));
      // The rolled-back state must evaluate bit-identically too (the
      // floorplan session was popped, not left on the rejected candidate).
      const auto back = txn.evaluate(/*materialize=*/false);
      SCOPED_TRACE(topology.name() + " rollback " + std::to_string(step));
      expect_same_metrics(back, mapper.evaluate(app, topology, mapping));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DeltaTxn, RandomWalkMatchesFromScratchOnMesh) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);  // 12 cores, 4 empty slots
  run_txn_walk(app, *mesh, MapperConfig{}, 60, 51);
}

TEST(DeltaTxn, RandomWalkMatchesFromScratchOnTorus) {
  const auto app = apps::vopd();
  const auto torus = topo::make_torus_for(app.num_cores());
  run_txn_walk(app, *torus, MapperConfig{}, 60, 52);
}

TEST(DeltaTxn, RandomWalkMatchesFromScratchOnButterfly) {
  const auto app = apps::vopd();
  const auto butterfly = topo::make_butterfly_for(app.num_cores());
  run_txn_walk(app, *butterfly, MapperConfig{}, 60, 53);
}

TEST(DeltaTxn, RandomWalkMatchesUnderSimplexEngine) {
  const auto app = apps::pip();  // 8 cores: the LP stays small
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.floorplan.engine = fplan::Floorplanner::Engine::kSimplexLp;
  run_txn_walk(app, *mesh, config, 16, 54);
}

TEST(DeltaTxn, RandomWalkMatchesUnderMinPowerObjective) {
  // prunable() + evaluate() inside one speculation open two session frames;
  // rollback must pop both.
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.objective = Objective::kMinPower;
  run_txn_walk(app, *mesh, config, 60, 55);
}

TEST(DeltaTxn, RandomWalkMatchesUnderRigidFloorplan) {
  // sizing_passes = 0: the session never resizes soft blocks, a separate
  // code path from the default sizing loop.
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.floorplan.sizing_passes = 0;
  run_txn_walk(app, *mesh, config, 60, 56);
}

apps::SyntheticSpec synth48_spec() {
  apps::SyntheticSpec spec;
  spec.num_cores = 48;
  spec.edge_density = 0.05;
  spec.seed = 42;
  return spec;
}

TEST(DeltaTxn, RandomWalkMatchesOnSynthetic48Cores) {
  const auto app = apps::synthetic(synth48_spec());
  const auto mesh = topo::make_mesh_for(64);  // 16 empty slots
  run_txn_walk(app, *mesh, MapperConfig{}, 24, 57);
}

TEST(DeltaTxn, RandomWalkMatchesOnSynthetic48CoresRigid) {
  const auto app = apps::synthetic(synth48_spec());
  const auto mesh = topo::make_mesh_for(64);
  MapperConfig config;
  config.floorplan.sizing_passes = 0;
  run_txn_walk(app, *mesh, config, 24, 58);
}

TEST(DeltaTxn, ProtocolMisuseThrows) {
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
  EXPECT_THROW(txn.commit(), std::logic_error);
  EXPECT_THROW(txn.rollback(), std::logic_error);
  txn.begin_swap(0, 1);
  EXPECT_THROW(txn.begin_swap(1, 2), std::logic_error);
  txn.rollback();
  // A second transaction on a scratch already carrying a speculation is
  // rejected up front.
  txn.begin_swap(0, 1);
  EXPECT_THROW((DeltaTxn{ctx, scratch, mapping, inverse}), std::logic_error);
  txn.commit();
}

TEST(DeltaTxn, DestructionRollsBackOpenSpeculation) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  Mapper mapper{MapperConfig{}};
  const EvalContext ctx(app, *mesh, MapperConfig{}, mapper.library());
  std::vector<int> mapping(static_cast<std::size_t>(app.num_cores()));
  for (int c = 0; c < app.num_cores(); ++c) {
    mapping[static_cast<std::size_t>(c)] = c;
  }
  auto inverse = inverse_of(mapping, mesh->num_slots());
  const auto original = mapping;
  EvalScratch scratch;
  {
    DeltaTxn txn(ctx, scratch, mapping, inverse);
    txn.begin_swap(0, 1);
    (void)txn.evaluate();
    EXPECT_NE(mapping, original);
  }
  EXPECT_EQ(mapping, original);
  EXPECT_EQ(inverse, inverse_of(mapping, mesh->num_slots()));
  EXPECT_EQ(scratch.txn_depth, 0);
}

/// The full search stack (greedy / annealing / restart annealing) through
/// the transactional session path: the winner's evaluation must equal the
/// from-scratch Mapper::evaluate() of the winning mapping, and a search on
/// a scratch whose sessions a different search left behind must return
/// exactly what a fresh scratch returns.
void expect_search_matches_reference(SearchKind kind) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.search = kind;
  // Min-area: every cost the search compares is a floorplan area, so a
  // stale floorplan session would steer it. (Under min-delay the hop bound
  // prunes every greedy swap on this input before it floorplans.)
  config.objective = Objective::kMinArea;
  config.annealing_iterations = 400;
  const Mapper mapper(config);
  const EvalContext fresh_ctx = mapper.make_context(app, *mesh);
  EvalScratch fresh_scratch;
  const MappingResult fresh = mapper.map(fresh_ctx, fresh_scratch);
  expect_same_metrics(fresh.eval,
                      mapper.evaluate(app, *mesh, fresh.core_to_slot));

  // Warm a scratch with a different search on a second context: a short
  // annealing run under another objective and seed keeps the evaluation
  // class, so the scratch's floorplan session survives the rebind and
  // carries that run's last mapping. The second context's caches hold only
  // that run's few floorplans, so the compared search misses them and
  // solves through the warm session instead of replaying cache entries (a
  // long warm-up would cover every floorplan a greedy pass visits).
  auto other_config = config;
  other_config.search = SearchKind::kAnnealing;
  other_config.objective = Objective::kMinPower;
  other_config.annealing_seed = config.annealing_seed + 1;
  other_config.annealing_iterations = 20;
  const Mapper other(other_config);
  EvalContext warm_ctx = other.make_context(app, *mesh);
  EvalScratch warm_scratch;
  (void)other.map(warm_ctx, warm_scratch);
  warm_ctx.rebind(config, mapper.library());
  const fplan::FloorplanSession* warm_session =
      warm_scratch.fplan_session.get();
  ASSERT_NE(warm_session, nullptr);
  const auto misses_before = EvalContext::cache_stats().floorplan_misses;
  const MappingResult warm = mapper.map(warm_ctx, warm_scratch);
  EXPECT_GT(EvalContext::cache_stats().floorplan_misses, misses_before);
  EXPECT_EQ(warm_scratch.fplan_session.get(), warm_session);
  EXPECT_EQ(warm.core_to_slot, fresh.core_to_slot);
  expect_same_metrics(warm.eval, fresh.eval);
  EXPECT_EQ(warm.evaluated_mappings, fresh.evaluated_mappings);
  EXPECT_EQ(warm.pruned_mappings, fresh.pruned_mappings);
}

TEST(TransactionalSearch, GreedyWinnerMatchesReferenceOnAnyScratch) {
  expect_search_matches_reference(SearchKind::kGreedySwaps);
}

TEST(TransactionalSearch, AnnealingWinnerMatchesReferenceOnAnyScratch) {
  expect_search_matches_reference(SearchKind::kAnnealing);
}

TEST(TransactionalSearch, RestartWinnerMatchesReferenceOnAnyScratch) {
  expect_search_matches_reference(SearchKind::kRestartAnnealing);
}

TEST(TransactionalSearch, ParallelSearchReusesPooledWorkerSessions) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.search = SearchKind::kRestartAnnealing;
  config.annealing_iterations = 200;
  config.annealing_restarts = 4;
  config.num_threads = 4;
  const Mapper mapper(config);
  const EvalContext ctx = mapper.make_context(app, *mesh);
  EvalScratch scratch;
  const auto first = mapper.map(ctx, scratch);
  ASSERT_GE(scratch.worker_pool.size(), 3u);
  // The pooled scratches own live sessions now; a second search through the
  // same caller scratch must reuse them, not rebuild.
  std::vector<const fplan::FloorplanSession*> sessions;
  for (const auto& pooled : scratch.worker_pool) {
    sessions.push_back(pooled->fplan_session.get());
  }
  const auto second = mapper.map(ctx, scratch);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    // Workers pull chains dynamically, so a pooled scratch may sit a run
    // out; every session that existed must survive untouched, though.
    if (sessions[i] != nullptr) {
      EXPECT_EQ(scratch.worker_pool[i]->fplan_session.get(), sessions[i]);
    }
  }
  EXPECT_EQ(first.eval.cost, second.eval.cost);
  EXPECT_EQ(first.core_to_slot, second.core_to_slot);

  // Thread-count invariance through the pooled path.
  auto sequential_config = config;
  sequential_config.num_threads = 1;
  const auto sequential = Mapper(sequential_config).map(app, *mesh);
  EXPECT_EQ(first.core_to_slot, sequential.core_to_slot);
  EXPECT_EQ(first.eval.cost, sequential.eval.cost);
}

TEST(TransactionalSearch, ScratchSurvivesTopologyChangeAcrossContexts) {
  // The session slot-count guard: one scratch driven across contexts whose
  // topologies disagree on slot count must transparently rebuild its
  // session (and the pooled workers') instead of feeding a stale one.
  const auto app = apps::vopd();
  const auto mesh16 = topo::make_mesh_for(16);
  const auto butterfly = topo::make_butterfly_for(app.num_cores());
  MapperConfig config;
  const Mapper mapper(config);
  EvalScratch scratch;
  const EvalContext ctx_mesh = mapper.make_context(app, *mesh16);
  const auto on_mesh = mapper.map(ctx_mesh, scratch);
  const EvalContext ctx_bfly = mapper.make_context(app, *butterfly);
  const auto on_bfly = mapper.map(ctx_bfly, scratch);
  const auto fresh = mapper.map(app, *butterfly);
  EXPECT_EQ(on_bfly.core_to_slot, fresh.core_to_slot);
  EXPECT_EQ(on_bfly.eval.cost, fresh.eval.cost);
  const auto mesh_again = mapper.map(ctx_mesh, scratch);
  EXPECT_EQ(mesh_again.core_to_slot, on_mesh.core_to_slot);
  EXPECT_EQ(mesh_again.eval.cost, on_mesh.eval.cost);
}

}  // namespace
}  // namespace sunmap::mapping
