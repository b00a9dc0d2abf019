#include <gtest/gtest.h>

#include <algorithm>

#include "graph/paths.h"

namespace sunmap::graph {
namespace {

/// 0 -> 1 -> 3 and 0 -> 2 -> 3, with a direct slow edge 0 -> 3.
DirectedGraph diamond() {
  DirectedGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 3, 5.0);
  return g;
}

EdgeCostFn weight_cost(const DirectedGraph& g) {
  return [&g](EdgeId e) { return g.edge(e).weight; };
}

TEST(ShortestPath, PrefersCheaperTwoHopRoute) {
  const auto g = diamond();
  const auto path = shortest_path(g, 0, 3, weight_cost(g));
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 2.0);
  EXPECT_EQ(path->hops(), 2);
  EXPECT_EQ(path->nodes.front(), 0);
  EXPECT_EQ(path->nodes.back(), 3);
}

TEST(ShortestPath, SingleNodePath) {
  const auto g = diamond();
  const auto path = shortest_path(g, 2, 2, weight_cost(g));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 0);
  EXPECT_DOUBLE_EQ(path->cost, 0.0);
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{2}));
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  DirectedGraph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(shortest_path(g, 1, 0, weight_cost(g)), std::nullopt);
  EXPECT_EQ(shortest_path(g, 0, 2, weight_cost(g)), std::nullopt);
}

TEST(ShortestPath, NodeFilterRestrictsSearch) {
  const auto g = diamond();
  // Exclude node 1: must route via 2 (or the expensive direct edge).
  const auto path = shortest_path(g, 0, 3, weight_cost(g),
                                  [](NodeId u) { return u != 1; });
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(ShortestPath, FilterExcludingEndpointFails) {
  const auto g = diamond();
  EXPECT_EQ(shortest_path(g, 0, 3, weight_cost(g),
                          [](NodeId u) { return u != 3; }),
            std::nullopt);
}

TEST(ShortestPath, NegativeCostThrows) {
  const auto g = diamond();
  EXPECT_THROW(shortest_path(g, 0, 3, [](EdgeId) { return -1.0; }),
               std::invalid_argument);
}

TEST(ShortestPath, IntoOverwritesStalePath) {
  const auto g = diamond();
  Path out;
  out.nodes.assign(9, 1);
  out.edges.assign(8, 4);
  out.cost = -1.0;
  ASSERT_TRUE(shortest_path_into(
      g, 0, 3, [&g](EdgeId e) { return g.edge(e).weight; }, AdmitAll{}, out));
  const auto expected = shortest_path(g, 0, 3, weight_cost(g));
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(out.nodes, expected->nodes);
  EXPECT_EQ(out.edges, expected->edges);
  EXPECT_EQ(out.cost, expected->cost);

  // A shorter path afterwards leaves no tail of the longer one behind.
  ASSERT_TRUE(shortest_path_into(
      g, 2, 2, [&g](EdgeId e) { return g.edge(e).weight; }, AdmitAll{}, out));
  EXPECT_EQ(out.nodes, (std::vector<NodeId>{2}));
  EXPECT_TRUE(out.edges.empty());
  EXPECT_EQ(out.cost, 0.0);
}

TEST(ShortestPath, EdgesMatchNodes) {
  const auto g = diamond();
  const auto path = shortest_path(g, 0, 3, weight_cost(g));
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->edges.size(), path->nodes.size() - 1);
  for (std::size_t i = 0; i < path->edges.size(); ++i) {
    EXPECT_EQ(g.edge(path->edges[i]).src, path->nodes[i]);
    EXPECT_EQ(g.edge(path->edges[i]).dst, path->nodes[i + 1]);
  }
}

TEST(BfsDistances, ComputesHopCounts) {
  const auto g = diamond();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 1);
  EXPECT_EQ(dist[3], 1);  // direct edge exists
}

TEST(BfsDistances, UnreachableIsMinusOne) {
  DirectedGraph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 1);
  EXPECT_EQ(dist[0], -1);
  EXPECT_EQ(dist[2], -1);
}

TEST(BfsDistancesTo, FollowsReversedEdges) {
  const auto g = diamond();
  const auto dist = bfs_distances_to(g, 3);
  EXPECT_EQ(dist[3], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 1);
  EXPECT_EQ(dist[0], 1);
}

TEST(HopDistance, MatchesBfs) {
  const auto g = diamond();
  EXPECT_EQ(hop_distance(g, 0, 3), 1);
  EXPECT_EQ(hop_distance(g, 1, 2), -1);
}

TEST(AllPairsHops, MatchesPerSourceBfs) {
  const auto g = diamond();
  const auto all = all_pairs_hops(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(all[static_cast<std::size_t>(u)], bfs_distances(g, u));
  }
}

TEST(StronglyConnected, DetectsBothCases) {
  DirectedGraph ring(3);
  ring.add_edge(0, 1);
  ring.add_edge(1, 2);
  ring.add_edge(2, 0);
  EXPECT_TRUE(strongly_connected(ring));

  DirectedGraph chain(3);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  EXPECT_FALSE(strongly_connected(chain));
}

TEST(MinPathDag, ContainsExactlyMinimalEdges) {
  const auto g = diamond();
  // d(0,3) == 1 via the direct edge, so the DAG is just that edge.
  const auto dag = min_path_dag(g, 0, 3);
  ASSERT_EQ(dag.size(), 1u);
  EXPECT_EQ(g.edge(dag[0]).src, 0);
  EXPECT_EQ(g.edge(dag[0]).dst, 3);
}

TEST(MinPathDag, CapturesDiamondWhenDirectEdgeAbsent) {
  DirectedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const auto dag = min_path_dag(g, 0, 3);
  EXPECT_EQ(dag.size(), 4u);
}

TEST(MinPathNodes, MatchesClosureDefinition) {
  DirectedGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const auto nodes = min_path_nodes(g, 0, 3);
  EXPECT_EQ(nodes, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(CountMinPaths, CountsDiamond) {
  DirectedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  EXPECT_EQ(count_min_paths(g, 0, 3), 2);
  EXPECT_EQ(count_min_paths(g, 0, 0), 1);
  EXPECT_EQ(count_min_paths(g, 3, 0), 0);
}

TEST(CountMinPaths, RespectsCap) {
  // A chain of diamonds has 2^k minimum paths.
  DirectedGraph g(1);
  NodeId prev = 0;
  for (int k = 0; k < 10; ++k) {
    const NodeId a = g.add_node();
    const NodeId b = g.add_node();
    const NodeId join = g.add_node();
    g.add_edge(prev, a);
    g.add_edge(prev, b);
    g.add_edge(a, join);
    g.add_edge(b, join);
    prev = join;
  }
  EXPECT_EQ(count_min_paths(g, 0, prev), 1024);
  EXPECT_EQ(count_min_paths(g, 0, prev, 100), 100);
}

}  // namespace
}  // namespace sunmap::graph
