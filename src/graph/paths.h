#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace sunmap::graph {

/// A concrete path through a graph: node sequence plus the edges that join
/// consecutive nodes, and the total cost under the weight function used to
/// find it. nodes.size() == edges.size() + 1 and nodes.front()/back() are the
/// endpoints. A single-node path (source == target) has no edges.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  double cost = 0.0;

  [[nodiscard]] int hops() const { return static_cast<int>(edges.size()); }
};

/// Per-edge cost callback for Dijkstra. Must return a non-negative cost.
using EdgeCostFn = std::function<double(EdgeId)>;

/// Node admission callback; nodes for which this returns false are never
/// relaxed (used to restrict searches to a quadrant graph).
using NodeFilterFn = std::function<bool(NodeId)>;

namespace detail {

/// Largest graph the bitmask kernel handles: its open and settled sets are
/// one 64-bit word each.
inline constexpr int kSmallGraphNodes = 64;

/// Reusable per-thread workspace of the heap kernel: the mapping search runs
/// Dijkstra hundreds of thousands of times, where per-call vector
/// allocations would dominate the relaxations themselves.
struct DijkstraWorkspace {
  std::vector<double> dist;
  std::vector<EdgeId> via;
  std::vector<char> done;
  std::vector<std::pair<double, NodeId>> heap;
};

/// The calling thread's workspace (one instance shared by every
/// instantiation of shortest_path_into, so template callers and the
/// std::function wrapper reuse the same buffers).
DijkstraWorkspace& dijkstra_workspace();

/// Writes the predecessor chain src -> dst recorded in `via` into `out`:
/// one walk to size the path, then a back-to-front fill, so resize() on a
/// warm path reuses its capacity.
inline void write_path(const Edge* edges, const EdgeId* via, NodeId src,
                       NodeId dst, double cost, Path& out) {
  std::size_t hops = 0;
  for (NodeId cur = dst; cur != src;
       cur = edges[via[static_cast<std::size_t>(cur)]].src) {
    ++hops;
  }
  out.nodes.resize(hops + 1);
  out.edges.resize(hops);
  out.cost = cost;
  NodeId cur = dst;
  for (std::size_t i = hops; i > 0; --i) {
    const EdgeId e = via[static_cast<std::size_t>(cur)];
    out.nodes[i] = cur;
    out.edges[i - 1] = e;
    cur = edges[e].src;
  }
  out.nodes[0] = src;
}

/// Relaxes u's out-edges at distance d: the one relaxation rule both
/// kernels share (out_edges order, admission filter, negative-cost throw,
/// strict-< improvement). `settled(v)` says whether v is done; `improved(v)`
/// runs after dist[v] and via[v] take a strictly better value. Edge ids come
/// from the graph's own adjacency lists, so `edges` is indexed unchecked.
template <typename CostFn, typename FilterFn, typename SettledFn,
          typename ImprovedFn>
void relax_out_edges(const DirectedGraph& g, const Edge* edges, NodeId u,
                     double d, const CostFn& cost, const FilterFn& filter,
                     double* dist, EdgeId* via, const SettledFn& settled,
                     const ImprovedFn& improved) {
  for (EdgeId e : g.out_edges(u)) {
    const NodeId v = edges[e].dst;
    if (!filter(v) || settled(v)) continue;
    const double w = cost(e);
    if (w < 0.0) {
      throw std::invalid_argument("shortest_path: negative edge cost");
    }
    const double nd = d + w;
    if (nd < dist[static_cast<std::size_t>(v)]) {
      dist[static_cast<std::size_t>(v)] = nd;
      via[static_cast<std::size_t>(v)] = e;
      improved(v, nd);
    }
  }
}

/// Dijkstra on a graph of at most kSmallGraphNodes nodes. The open set is
/// one word and dist/via live on the stack; the node settled next is the
/// open node of least (dist, id), found by scanning the open bits in id
/// order with strict <. That is exactly the pop order of the heap kernel
/// (whose live entry for a node is always its current (dist, id); stale
/// entries pop later and are skipped), so both kernels settle the same
/// nodes in the same order and write the same path.
template <typename CostFn, typename FilterFn>
bool small_shortest_path(const DirectedGraph& g, NodeId src, NodeId dst,
                         const CostFn& cost, const FilterFn& filter,
                         Path& out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto n = static_cast<std::size_t>(g.num_nodes());
  double dist[kSmallGraphNodes];
  EdgeId via[kSmallGraphNodes];
  std::fill_n(dist, n, kInf);
  std::fill_n(via, n, kInvalidEdge);
  const Edge* edges = g.edges().data();

  const auto bit = [](NodeId v) { return std::uint64_t{1} << v; };
  std::uint64_t open = bit(src);
  std::uint64_t done = 0;
  dist[static_cast<std::size_t>(src)] = 0.0;
  while (open != 0) {
    std::uint64_t rest = open;
    auto u = static_cast<NodeId>(std::countr_zero(rest));
    rest &= rest - 1;
    while (rest != 0) {
      const auto v = static_cast<NodeId>(std::countr_zero(rest));
      rest &= rest - 1;
      if (dist[static_cast<std::size_t>(v)] <
          dist[static_cast<std::size_t>(u)]) {
        u = v;
      }
    }
    open &= ~bit(u);
    done |= bit(u);
    if (u == dst) break;
    relax_out_edges(
        g, edges, u, dist[static_cast<std::size_t>(u)], cost, filter, dist,
        via, [&](NodeId v) { return (done & bit(v)) != 0; },
        [&](NodeId v, double) { open |= bit(v); });
  }

  if (dist[static_cast<std::size_t>(dst)] == kInf) return false;
  write_path(edges, via, src, dst, dist[static_cast<std::size_t>(dst)], out);
  return true;
}

/// Dijkstra on a graph of any size: a binary heap of (dist, id) entries
/// driven with push_heap/pop_heap under the comparator
/// std::priority_queue uses, with lazy deletion of stale entries.
template <typename CostFn, typename FilterFn>
bool heap_shortest_path(const DirectedGraph& g, NodeId src, NodeId dst,
                        const CostFn& cost, const FilterFn& filter,
                        Path& out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DijkstraWorkspace& ws = dijkstra_workspace();
  ws.dist.assign(n, kInf);
  ws.via.assign(n, kInvalidEdge);
  ws.done.assign(n, 0);
  ws.heap.clear();
  auto& done = ws.done;
  auto& heap = ws.heap;
  const Edge* edges = g.edges().data();

  ws.dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace_back(0.0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (done[static_cast<std::size_t>(u)] != 0) continue;
    done[static_cast<std::size_t>(u)] = 1;
    if (u == dst) break;
    relax_out_edges(
        g, edges, u, d, cost, filter, ws.dist.data(), ws.via.data(),
        [&](NodeId v) { return done[static_cast<std::size_t>(v)] != 0; },
        [&](NodeId v, double nd) {
          heap.emplace_back(nd, v);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        });
  }

  const double total = ws.dist[static_cast<std::size_t>(dst)];
  if (total == kInf) return false;
  write_path(edges, ws.via.data(), src, dst, total, out);
  return true;
}

}  // namespace detail

/// Dijkstra shortest path from src to dst, written into the caller-owned
/// `out` (overwritten; its vectors' capacity is reused, so a warm call
/// allocates nothing). Returns false, leaving `out` unspecified, when dst is
/// unreachable or an endpoint is not admitted. Templated over the cost and
/// admission functors so hot callers (the routing engine's inner loops) pay
/// direct calls instead of std::function dispatch. Graphs of at most 64
/// nodes (every switch graph of the paper's applications) run the bitmask
/// kernel, larger ones the heap kernel; both settle nodes in (dist, id)
/// order and relax with strict <, so the tie-breaking among equal-cost
/// paths — and the path and its cost, bit for bit — do not depend on which
/// kernel ran.
template <typename CostFn, typename FilterFn>
bool shortest_path_into(const DirectedGraph& g, NodeId src, NodeId dst,
                        const CostFn& cost, const FilterFn& filter,
                        Path& out) {
  if (src < 0 || dst < 0 || src >= g.num_nodes() || dst >= g.num_nodes()) {
    throw std::out_of_range("shortest_path: endpoint out of range");
  }
  if (!filter(src) || !filter(dst)) return false;
  return g.num_nodes() <= detail::kSmallGraphNodes
             ? detail::small_shortest_path(g, src, dst, cost, filter, out)
             : detail::heap_shortest_path(g, src, dst, cost, filter, out);
}

/// Admission functor admitting every node (the unfiltered template case).
struct AdmitAll {
  bool operator()(NodeId) const { return true; }
};

/// Dijkstra shortest path from src to dst under `cost`, optionally restricted
/// to nodes admitted by `filter` (src and dst must themselves be admitted).
/// Returns std::nullopt if dst is unreachable. Type-erased convenience
/// wrapper over shortest_path_into() for callers off the hot path.
std::optional<Path> shortest_path(const DirectedGraph& g, NodeId src,
                                  NodeId dst, const EdgeCostFn& cost,
                                  const NodeFilterFn& filter = nullptr);

/// Unweighted (hop-count) BFS distances from src to every node; unreachable
/// nodes get -1. Optionally restricted by `filter`.
std::vector<int> bfs_distances(const DirectedGraph& g, NodeId src,
                               const NodeFilterFn& filter = nullptr);

/// Unweighted BFS distances *to* dst (i.e. along reversed edges).
std::vector<int> bfs_distances_to(const DirectedGraph& g, NodeId dst,
                                  const NodeFilterFn& filter = nullptr);

/// Hop distance src->dst, or -1 if unreachable.
int hop_distance(const DirectedGraph& g, NodeId src, NodeId dst);

/// All-pairs hop-distance matrix (BFS from every node); dist[u][v] == -1 for
/// unreachable pairs.
std::vector<std::vector<int>> all_pairs_hops(const DirectedGraph& g);

/// True if every node can reach every other node (strong connectivity).
bool strongly_connected(const DirectedGraph& g);

/// The minimum-path DAG between src and dst: the set of edges (u,v) with
/// d(src,u) + 1 + d(v,dst) == d(src,dst), optionally restricted by `filter`.
/// This is the structure over which split-traffic-across-minimum-paths (SM)
/// routing distributes flow. Returns an empty vector when dst is unreachable.
std::vector<EdgeId> min_path_dag(const DirectedGraph& g, NodeId src,
                                 NodeId dst,
                                 const NodeFilterFn& filter = nullptr);

/// Nodes u lying on at least one minimum-hop path src->dst, i.e. satisfying
/// d(src,u) + d(u,dst) == d(src,dst). This is the generic quadrant-graph
/// construction; the structural per-topology constructions in src/topo must
/// agree with it (asserted by property tests).
std::vector<NodeId> min_path_nodes(const DirectedGraph& g, NodeId src,
                                   NodeId dst);

/// Counts distinct minimum-hop paths src->dst (capped at `cap` to avoid
/// overflow on very diverse graphs). Used to characterise path diversity,
/// e.g. butterfly == 1 for all pairs.
std::int64_t count_min_paths(const DirectedGraph& g, NodeId src, NodeId dst,
                             std::int64_t cap = 1'000'000'000);

/// True when g is acyclic and joins any two nodes by at most one path (a
/// multitree; two parallel edges are two paths). On a multitree a search
/// from one node to another finds the same path under any edge costs. Every
/// k-ary n-fly's switch graph is one.
bool is_multitree(const DirectedGraph& g);

}  // namespace sunmap::graph
