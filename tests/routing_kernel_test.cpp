// Bit-identity of the adaptive-routing kernel against a frozen copy of the
// allocating heap-Dijkstra implementation it replaced. RoutingEngine::route
// overwrites the caller's RouteSet in place for minimum-path (MP) and
// split-all (SA) routing, so a reused RouteSet must never leak a stale path,
// a stale tail entry or a stale fraction into the result. Switch graphs of
// up to 64 nodes run the bitmask kernel and larger ones the heap kernel, so
// the cases cover both sides of that line; split-all on a butterfly (a
// multitree) searches once for all chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "route/routing.h"
#include "topo/butterfly.h"
#include "topo/library.h"
#include "util/prng.h"

namespace sunmap::route {
namespace {

using graph::DirectedGraph;
using graph::EdgeId;
using graph::NodeId;
using graph::Path;
using topo::SlotId;

// ------------------------------------------------------------------------
// Frozen reference: the Dijkstra and the MP/SA routing functions exactly as
// they were before the kernel wrote into caller-owned buffers. Kept
// self-contained so the reference does not share code with the kernel.
// ------------------------------------------------------------------------

template <typename CostFn, typename FilterFn>
std::optional<Path> frozen_shortest_path(const DirectedGraph& g, NodeId src,
                                         NodeId dst, const CostFn& cost,
                                         const FilterFn& filter) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (!filter(src) || !filter(dst)) return std::nullopt;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);
  std::vector<EdgeId> via(n, graph::kInvalidEdge);
  std::vector<char> done(n, 0);
  std::vector<std::pair<double, NodeId>> heap;

  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace_back(0.0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (done[static_cast<std::size_t>(u)] != 0) continue;
    done[static_cast<std::size_t>(u)] = 1;
    if (u == dst) break;
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.edge(e).dst;
      if (!filter(v) || done[static_cast<std::size_t>(v)] != 0) continue;
      const double nd = d + cost(e);
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        via[static_cast<std::size_t>(v)] = e;
        heap.emplace_back(nd, v);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
  if (dist[static_cast<std::size_t>(dst)] == kInf) return std::nullopt;

  Path path;
  path.cost = dist[static_cast<std::size_t>(dst)];
  NodeId cur = dst;
  while (cur != src) {
    const EdgeId e = via[static_cast<std::size_t>(cur)];
    path.edges.push_back(e);
    path.nodes.push_back(cur);
    cur = g.edge(e).src;
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

RouteSet frozen_min_path(const RoutingEngine& engine, SlotId src, SlotId dst,
                         const LoadMap& loads) {
  constexpr double kHopCost = 1e9;
  const topo::Topology& topology = engine.topology();
  const char* admitted = engine.min_path_admission(src, dst);
  const auto path = frozen_shortest_path(
      topology.switch_graph(), topology.ingress_switch(src),
      topology.egress_switch(dst),
      [&](EdgeId e) { return kHopCost + loads.load(e); },
      [&](NodeId u) { return admitted[static_cast<std::size_t>(u)] != 0; });
  RouteSet out;
  out.paths.push_back(WeightedPath{path.value(), 1.0});
  return out;
}

RouteSet frozen_split_all(const RoutingEngine& engine, SlotId src, SlotId dst,
                          double demand, const LoadMap& loads,
                          double capacity_hint_mbps) {
  const topo::Topology& topology = engine.topology();
  const auto& g = topology.switch_graph();
  const NodeId from = topology.ingress_switch(src);
  const NodeId to = topology.egress_switch(dst);
  const int split_chunks = engine.split_chunks();
  const double chunk =
      demand > 0.0 ? demand / static_cast<double>(split_chunks) : 0.0;
  const double hop_bias = std::max(1.0, demand * 0.01);
  constexpr double kOverloadPenalty = 1e7;

  RouteSet out;
  std::vector<double> extra(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (int c = 0; c < split_chunks; ++c) {
    auto path = frozen_shortest_path(
        g, from, to,
        [&](EdgeId e) {
          const double current =
              loads.load(e) + extra[static_cast<std::size_t>(e)];
          double cost = hop_bias + current + chunk * 0.5;
          if (current + chunk > capacity_hint_mbps + 1e-9) {
            cost += kOverloadPenalty;
          }
          return cost;
        },
        [](NodeId) { return true; });
    for (EdgeId e : path.value().edges) {
      extra[static_cast<std::size_t>(e)] += chunk;
    }
    bool merged = false;
    for (auto& wp : out.paths) {
      if (wp.path.nodes == path->nodes) {
        wp.fraction += 1.0 / static_cast<double>(split_chunks);
        merged = true;
        break;
      }
    }
    if (!merged) {
      out.paths.push_back(
          WeightedPath{*path, 1.0 / static_cast<double>(split_chunks)});
    }
  }
  return out;
}

// ------------------------------------------------------------------------

/// Same paths, fractions and bitwise-equal path costs.
::testing::AssertionResult identical(const RouteSet& expected,
                                     const RouteSet& actual) {
  if (!same_routes(expected, actual)) {
    return ::testing::AssertionFailure()
           << "routes differ (" << expected.paths.size() << " expected paths, "
           << actual.paths.size() << " actual)";
  }
  for (std::size_t i = 0; i < expected.paths.size(); ++i) {
    const double want = expected.paths[i].path.cost;
    const double got = actual.paths[i].path.cost;
    if (std::bit_cast<std::uint64_t>(want) !=
        std::bit_cast<std::uint64_t>(got)) {
      return ::testing::AssertionFailure()
             << "path " << i << " cost " << got << " != " << want;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Fills `routes` with more and longer paths than any real route has, with
/// fractions and costs no real route produces.
void make_stale(RouteSet& routes, int num_nodes, util::Prng& rng) {
  const std::size_t extra = 20 + rng.next_below(8);
  routes.paths.resize(routes.paths.size() + extra);
  for (auto& wp : routes.paths) {
    const std::size_t hops = 3 * static_cast<std::size_t>(num_nodes);
    wp.path.edges.assign(hops, 7);
    wp.path.nodes.assign(hops + 1, static_cast<NodeId>(num_nodes - 1));
    wp.path.cost = -1.0;
    wp.fraction = 0.3;
  }
}

struct KernelCase {
  RoutingKind kind;
  int cores;
};

class KernelBitIdentity : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelBitIdentity, FreshAndReusedOutputsMatchFrozenReference) {
  const KernelCase param = GetParam();
  auto library = topo::standard_library(param.cores,
                                        /*include_extensions=*/true);
  util::Prng rng(0x5eedULL + static_cast<std::uint64_t>(param.cores));

  for (std::size_t t = 0; t < library.size(); ++t) {
    const topo::Topology& topology = *library[t];
    SCOPED_TRACE(topology.name());
    const auto& g = topology.switch_graph();

    // Alternate between the precomputed quadrant table and the topology's
    // memoized masks, and between split granularities.
    const QuadrantTable table(topology);
    RoutingEngine::Options options;
    options.capacity_hint_mbps = 200.0 + 600.0 * rng.next_double();
    options.split_chunks = t % 2 == 0 ? 16 : 5;
    if (t % 2 == 1) options.quadrant_table = &table;
    const RoutingEngine engine(topology, param.kind, options);

    // Seeded background loads, a share of them past the capacity hint so
    // the split-all overload penalty fires.
    LoadMap loads(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (rng.chance(0.6)) {
        loads.add(e, 1.3 * options.capacity_hint_mbps * rng.next_double());
      }
    }

    RouteSet reused;
    make_stale(reused, g.num_nodes(), rng);
    // Above 32 cores, every 89th slot pair keeps the sanitizer jobs short.
    const int stride = param.cores > 32 ? 89 : 1;
    for (SlotId a = 0; a < topology.num_slots(); ++a) {
      for (SlotId b = 0; b < topology.num_slots(); ++b) {
        if (a == b || (a * topology.num_slots() + b) % stride != 0) continue;
        const double demand = 5.0 + 400.0 * rng.next_double();
        const RouteSet expected =
            param.kind == RoutingKind::kMinPath
                ? frozen_min_path(engine, a, b, loads)
                : frozen_split_all(engine, a, b, demand, loads,
                                   options.capacity_hint_mbps);

        RouteSet fresh;
        engine.route(a, b, demand, loads, fresh);
        ASSERT_TRUE(identical(expected, fresh)) << "fresh " << a << "->" << b;

        if (rng.chance(0.1)) make_stale(reused, g.num_nodes(), rng);
        engine.route(a, b, demand, loads, reused);
        ASSERT_TRUE(identical(expected, reused))
            << "reused " << a << "->" << b;

        // Accumulate some of the traffic so later pairs see evolving loads.
        if (rng.chance(0.3)) loads.add_route(fresh, demand);
      }
    }
  }
}

// 64 cores puts the mesh and hypercube at exactly 64 switches, the bitmask
// kernel's limit, and the star one above it; 72 cores puts the mesh (8x9),
// hypercube, butterfly and star above it, on the heap kernel.
INSTANTIATE_TEST_SUITE_P(
    StandardLibrary, KernelBitIdentity,
    ::testing::Values(KernelCase{RoutingKind::kMinPath, 12},
                      KernelCase{RoutingKind::kMinPath, 16},
                      KernelCase{RoutingKind::kMinPath, 32},
                      KernelCase{RoutingKind::kMinPath, 64},
                      KernelCase{RoutingKind::kMinPath, 72},
                      KernelCase{RoutingKind::kSplitAll, 12},
                      KernelCase{RoutingKind::kSplitAll, 16},
                      KernelCase{RoutingKind::kSplitAll, 32},
                      KernelCase{RoutingKind::kSplitAll, 72}),
    [](const auto& info) {
      return std::string(to_string(info.param.kind)) + "_" +
             std::to_string(info.param.cores) + "cores";
    });

/// The kernel's result (`found`, `actual`) against the frozen reference's:
/// same reachability, nodes, edges and bitwise cost.
::testing::AssertionResult same_path(const std::optional<Path>& expected,
                                     bool found, const Path& actual) {
  if (found != expected.has_value()) {
    return ::testing::AssertionFailure()
           << (found ? "found a path where none exists" : "missed the path");
  }
  if (!found) return ::testing::AssertionSuccess();
  if (actual.nodes != expected->nodes || actual.edges != expected->edges) {
    return ::testing::AssertionFailure() << "paths differ";
  }
  if (std::bit_cast<std::uint64_t>(actual.cost) !=
      std::bit_cast<std::uint64_t>(expected->cost)) {
    return ::testing::AssertionFailure()
           << "cost " << actual.cost << " != " << expected->cost;
  }
  return ::testing::AssertionSuccess();
}

// Seeded graphs of 1..80 nodes, on both sides of the bitmask kernel's
// 64-node line, with parallel edges and small integer costs so that
// equal-cost paths abound and only the (dist, id) settle order and the
// strict-< rule decide between them. Sparse graphs leave targets
// unreachable; every source is also its own target.
TEST(ShortestPathKernel, TieHeavyRandomGraphsMatchFrozenReference) {
  util::Prng rng(0x71e5ULL);
  for (int n = 1; n <= 80; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (int round = 0; round < 2; ++round) {
      DirectedGraph g(n);
      const std::uint64_t edge_count =
          n < 2 ? 0 : rng.next_below(4 * static_cast<std::uint64_t>(n));
      for (std::uint64_t i = 0; i < edge_count; ++i) {
        const auto u = static_cast<NodeId>(rng.next_below(n));
        const auto v = static_cast<NodeId>(rng.next_below(n));
        if (u == v) continue;
        g.add_edge(u, v);
        if (rng.chance(0.2)) g.add_edge(u, v);
      }
      std::vector<double> costs;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        costs.push_back(static_cast<double>(rng.next_below(4)));
      }
      std::vector<char> admitted;
      for (NodeId u = 0; u < n; ++u) admitted.push_back(rng.chance(0.8));
      const auto cost = [&](EdgeId e) {
        return costs[static_cast<std::size_t>(e)];
      };
      const auto filtered = [&](NodeId u) {
        return admitted[static_cast<std::size_t>(u)] != 0;
      };
      const auto admit_all = [](NodeId) { return true; };

      Path stale;
      const int pairs = n <= 16 ? n * n : 256;
      for (int p = 0; p < pairs; ++p) {
        const auto src = static_cast<NodeId>(n <= 16 ? p / n
                                                     : rng.next_below(n));
        const auto dst = static_cast<NodeId>(
            n <= 16 ? p % n : (p % 16 == 0 ? src : rng.next_below(n)));
        for (const bool filter : {false, true}) {
          const auto expected =
              filter ? frozen_shortest_path(g, src, dst, cost, filtered)
                     : frozen_shortest_path(g, src, dst, cost, admit_all);
          Path fresh;
          const bool found_fresh =
              filter ? graph::shortest_path_into(g, src, dst, cost, filtered,
                                                 fresh)
                     : graph::shortest_path_into(g, src, dst, cost,
                                                 graph::AdmitAll{}, fresh);
          ASSERT_TRUE(same_path(expected, found_fresh, fresh))
              << "fresh " << src << "->" << dst << " filter " << filter;

          stale.nodes.assign(3 * static_cast<std::size_t>(n) + 1, n - 1);
          stale.edges.assign(3 * static_cast<std::size_t>(n), 0);
          stale.cost = -1.0;
          const bool found_stale =
              filter ? graph::shortest_path_into(g, src, dst, cost, filtered,
                                                 stale)
                     : graph::shortest_path_into(g, src, dst, cost,
                                                 graph::AdmitAll{}, stale);
          ASSERT_TRUE(same_path(expected, found_stale, stale))
              << "stale " << src << "->" << dst << " filter " << filter;
        }
      }
    }
  }
}

TEST(ShortestPathKernel, NegativeCostThrowsOnBothKernels) {
  for (const int n : {8, 70}) {
    DirectedGraph g(n);
    for (NodeId u = 0; u + 1 < n; ++u) g.add_edge(u, u + 1);
    Path path;
    EXPECT_THROW((void)graph::shortest_path_into(
                     g, 0, n - 1,
                     [](EdgeId e) { return e == 3 ? -1.0 : 1.0; },
                     graph::AdmitAll{}, path),
                 std::invalid_argument)
        << n << " nodes";
  }
}

// The split-all engine searches once per commodity exactly when the switch
// graph is a multitree, and among the library topologies those are the
// butterflies.
TEST(SplitAllKernel, MultitreesAreExactlyTheButterflies) {
  for (const int cores : {8, 12, 16, 32, 64}) {
    const auto library = topo::standard_library(cores,
                                                /*include_extensions=*/true);
    for (const auto& topology : library) {
      const bool butterfly =
          dynamic_cast<const topo::Butterfly*>(topology.get()) != nullptr;
      EXPECT_EQ(graph::is_multitree(topology->switch_graph()), butterfly)
          << topology->name() << " at " << cores << " cores";
    }
  }
}

// 5 chunks as in the library cases; with 10 the chunk-by-chunk sum of 1/10
// is 0.9999999999999999, so a fraction of 1.0 or 10 * (1/10) would differ.
TEST(SplitAllKernel, ButterflyGivesEveryChunkOnePath) {
  const auto butterfly = topo::make_butterfly_for(16);
  for (const int chunks : {5, 10}) {
    RoutingEngine::Options options;
    options.split_chunks = chunks;
    options.capacity_hint_mbps = 300.0;
    const RoutingEngine engine(*butterfly, RoutingKind::kSplitAll, options);
    util::Prng rng(0xf1eULL);
    LoadMap loads(butterfly->switch_graph().num_edges());
    for (EdgeId e = 0; e < loads.num_edges(); ++e) {
      loads.add(e, 400.0 * rng.next_double());
    }
    RouteSet reused;
    for (SlotId a = 0; a < butterfly->num_slots(); ++a) {
      for (SlotId b = 0; b < butterfly->num_slots(); ++b) {
        if (a == b) continue;
        const double demand = 5.0 + 400.0 * rng.next_double();
        const RouteSet expected = frozen_split_all(
            engine, a, b, demand, loads, options.capacity_hint_mbps);
        engine.route(a, b, demand, loads, reused);
        ASSERT_EQ(reused.paths.size(), 1U) << chunks << ": " << a << "->" << b;
        ASSERT_TRUE(identical(expected, reused))
            << chunks << ": " << a << "->" << b;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.paths[0].fraction),
                  std::bit_cast<std::uint64_t>(expected.paths[0].fraction));
      }
    }
  }
}

}  // namespace
}  // namespace sunmap::route
