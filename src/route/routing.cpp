#include "route/routing.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sunmap::route {

namespace {

/// Hop-cost base that dominates any realistic accumulated load (MB/s), so
/// minimum-path Dijkstra is lexicographic: fewest hops first, then least
/// congested (Fig 5 steps 3-6 route commodities over edge weights that grow
/// with already-routed traffic).
constexpr double kHopCost = 1e9;

/// Per-thread split-all workspace: the chunk loads placed so far by the
/// current call and the resulting per-edge Dijkstra costs.
struct SplitAllScratch {
  std::vector<double> extra;
  std::vector<double> edge_cost;
};

SplitAllScratch& split_all_scratch() {
  static thread_local SplitAllScratch scratch;
  return scratch;
}

}  // namespace

const char* to_string(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::kDimensionOrdered:
      return "DO";
    case RoutingKind::kMinPath:
      return "MP";
    case RoutingKind::kSplitMin:
      return "SM";
    case RoutingKind::kSplitAll:
      return "SA";
  }
  return "?";
}

double RouteSet::weighted_switch_hops() const {
  double hops = 0.0;
  for (const auto& wp : paths) {
    hops += wp.fraction * static_cast<double>(wp.path.nodes.size());
  }
  return hops;
}

double RouteSet::weighted_link_hops() const {
  double hops = 0.0;
  for (const auto& wp : paths) {
    hops += wp.fraction * static_cast<double>(wp.path.edges.size());
  }
  return hops;
}

bool same_routes(const RouteSet& a, const RouteSet& b) {
  if (a.paths.size() != b.paths.size()) return false;
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    if (a.paths[i].fraction != b.paths[i].fraction) return false;
    if (a.paths[i].path.nodes != b.paths[i].path.nodes) return false;
    if (a.paths[i].path.edges != b.paths[i].path.edges) return false;
  }
  return true;
}

void LoadMap::add_route(const RouteSet& routes, double demand) {
  for (const auto& wp : routes.paths) {
    for (graph::EdgeId e : wp.path.edges) add(e, demand * wp.fraction);
  }
}

void LoadMap::remove_route(const RouteSet& routes, double demand) {
  // IEEE negation is exact, so this adds exactly the negated amounts of the
  // corresponding add_route in the same edge order — the bit-exact inverse.
  add_route(routes, -demand);
}

double LoadMap::max_load() const {
  double mx = 0.0;
  for (double v : loads_) mx = std::max(mx, v);
  return mx;
}

QuadrantTable::QuadrantTable(const topo::Topology& topology)
    : num_slots_(topology.num_slots()),
      num_switches_(topology.num_switches()) {
  masks_.assign(static_cast<std::size_t>(num_slots_) *
                    static_cast<std::size_t>(num_slots_) *
                    static_cast<std::size_t>(num_switches_),
                0);
  // Build directly from quadrant_nodes() rather than the topology's
  // memoized quadrant_mask(): the engine prefers this table once attached,
  // so filling the per-topology memo here would just duplicate every mask
  // for the topology's lifetime.
  for (topo::SlotId src = 0; src < num_slots_; ++src) {
    for (topo::SlotId dst = 0; dst < num_slots_; ++dst) {
      if (src == dst) continue;
      char* mask = masks_.data() +
                   (static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(num_slots_) +
                    static_cast<std::size_t>(dst)) *
                       static_cast<std::size_t>(num_switches_);
      for (const graph::NodeId u : topology.quadrant_nodes(src, dst)) {
        mask[static_cast<std::size_t>(u)] = 1;
      }
    }
  }
}

RoutingEngine::RoutingEngine(const topo::Topology& topology, RoutingKind kind)
    : RoutingEngine(topology, kind, Options()) {}

RoutingEngine::RoutingEngine(const topo::Topology& topology, RoutingKind kind,
                             Options options)
    : topology_(topology), kind_(kind), options_(options) {
  if (options_.split_chunks < 1) {
    throw std::invalid_argument("RoutingEngine: split_chunks must be >= 1");
  }
  if (options_.capacity_hint_mbps <= 0.0) {
    throw std::invalid_argument("RoutingEngine: capacity hint must be > 0");
  }
  single_path_ = kind_ == RoutingKind::kSplitAll &&
                 graph::is_multitree(topology_.switch_graph());
}

void RoutingEngine::route(topo::SlotId src, topo::SlotId dst, double demand,
                          const LoadMap& loads, RouteSet& out) const {
  if (src == dst) {
    throw std::invalid_argument("RoutingEngine: src and dst slots coincide");
  }
  switch (kind_) {
    case RoutingKind::kDimensionOrdered:
      out.paths.clear();
      route_dimension_ordered(src, dst, out);
      return;
    case RoutingKind::kMinPath:
      route_min_path(src, dst, loads, out);
      return;
    case RoutingKind::kSplitMin:
      out.paths.clear();
      route_split_min(src, dst, out);
      return;
    case RoutingKind::kSplitAll:
      route_split_all(src, dst, demand, loads, out);
      return;
  }
  throw std::logic_error("RoutingEngine: unknown routing kind");
}

void RoutingEngine::route_dimension_ordered(topo::SlotId src,
                                            topo::SlotId dst,
                                            RouteSet& out) const {
  out.paths.push_back(WeightedPath{
      topology_.make_path(topology_.dimension_ordered_path(src, dst)), 1.0});
}

void RoutingEngine::route_min_path(topo::SlotId src, topo::SlotId dst,
                                   const LoadMap& loads, RouteSet& out) const {
  // Quadrant graph of §4.3: restrict the Dijkstra search to the switches
  // that can lie on a minimum path, which both guarantees minimality and
  // gives the computational savings the paper reports. The admission mask
  // comes from the per-topology table configured at construction (lock-free,
  // shared by concurrent search workers) or the topology's memoized cache.
  const char* admitted = min_path_admission(src, dst);

  // Direct template instantiation: this is the hottest loop of the whole
  // mapping search (every adaptive-routing evaluation runs one Dijkstra per
  // commodity per pass), so the cost/admission callbacks must inline rather
  // than go through std::function dispatch. The path lands straight in
  // out's first WeightedPath, reusing whatever capacity it already has.
  out.paths.resize(1);
  WeightedPath& only = out.paths.front();
  only.fraction = 1.0;
  if (!graph::shortest_path_into(
          topology_.switch_graph(), topology_.ingress_switch(src),
          topology_.egress_switch(dst),
          [&](graph::EdgeId e) { return kHopCost + loads.load(e); },
          [&](graph::NodeId u) {
            return admitted[static_cast<std::size_t>(u)] != 0;
          },
          only.path)) {
    throw std::logic_error(
        "RoutingEngine: quadrant graph disconnected (topology bug)");
  }
}

void RoutingEngine::route_split_min(topo::SlotId src, topo::SlotId dst,
                                    RouteSet& out) const {
  const auto& g = topology_.switch_graph();
  const graph::NodeId from = topology_.ingress_switch(src);
  const graph::NodeId to = topology_.egress_switch(dst);

  if (from == to) {
    graph::Path path;
    path.nodes = {from};
    out.paths.push_back(WeightedPath{path, 1.0});
    return;
  }

  // Even flow split over the minimum-path DAG: each node forwards its
  // incoming fraction equally over its DAG out-edges, then the fractional
  // edge flow is decomposed into at most |DAG edges| weighted paths (needed
  // by the cycle-accurate simulator, which is source-routed).
  const auto dag_edges = graph::min_path_dag(g, from, to);
  std::vector<double> edge_flow(static_cast<std::size_t>(g.num_edges()), 0.0);
  std::vector<std::vector<graph::EdgeId>> dag_out(
      static_cast<std::size_t>(g.num_nodes()));
  for (graph::EdgeId e : dag_edges) {
    dag_out[static_cast<std::size_t>(g.edge(e).src)].push_back(e);
  }

  const auto dist = graph::bfs_distances(g, from);
  std::vector<graph::NodeId> order;
  order.push_back(from);
  for (graph::EdgeId e : dag_edges) order.push_back(g.edge(e).dst);
  std::sort(order.begin(), order.end(), [&](graph::NodeId a, graph::NodeId b) {
    return dist[static_cast<std::size_t>(a)] < dist[static_cast<std::size_t>(b)];
  });
  order.erase(std::unique(order.begin(), order.end()), order.end());

  std::vector<double> node_flow(static_cast<std::size_t>(g.num_nodes()), 0.0);
  node_flow[static_cast<std::size_t>(from)] = 1.0;
  for (graph::NodeId u : order) {
    const double flow = node_flow[static_cast<std::size_t>(u)];
    const auto& outs = dag_out[static_cast<std::size_t>(u)];
    if (flow <= 0.0 || outs.empty()) continue;
    const double share = flow / static_cast<double>(outs.size());
    for (graph::EdgeId e : outs) {
      edge_flow[static_cast<std::size_t>(e)] += share;
      node_flow[static_cast<std::size_t>(g.edge(e).dst)] += share;
    }
  }

  // Path decomposition: repeatedly follow the remaining positive-flow edges
  // from source to destination, peel off the bottleneck fraction.
  constexpr double kEps = 1e-12;
  double remaining = 1.0;
  while (remaining > kEps) {
    graph::Path path;
    path.nodes.push_back(from);
    double bottleneck = remaining;
    graph::NodeId cur = from;
    while (cur != to) {
      graph::EdgeId best = graph::kInvalidEdge;
      double best_flow = kEps;
      for (graph::EdgeId e : dag_out[static_cast<std::size_t>(cur)]) {
        if (edge_flow[static_cast<std::size_t>(e)] > best_flow) {
          best_flow = edge_flow[static_cast<std::size_t>(e)];
          best = e;
        }
      }
      if (best == graph::kInvalidEdge) {
        throw std::logic_error("RoutingEngine: flow decomposition stuck");
      }
      bottleneck = std::min(bottleneck, best_flow);
      path.edges.push_back(best);
      cur = g.edge(best).dst;
      path.nodes.push_back(cur);
    }
    for (graph::EdgeId e : path.edges) {
      edge_flow[static_cast<std::size_t>(e)] -= bottleneck;
    }
    path.cost = static_cast<double>(path.edges.size());
    out.paths.push_back(WeightedPath{std::move(path), bottleneck});
    remaining -= bottleneck;
  }

  // Normalise tiny floating-point residue so fractions sum to exactly 1.
  double total = 0.0;
  for (const auto& wp : out.paths) total += wp.fraction;
  for (auto& wp : out.paths) wp.fraction /= total;
}

void RoutingEngine::route_split_all(topo::SlotId src, topo::SlotId dst,
                                    double demand, const LoadMap& loads,
                                    RouteSet& out) const {
  // Split-across-all-paths: divide the commodity into equal chunks and route
  // each chunk with congestion-aware Dijkstra over the full switch graph
  // (non-minimal paths allowed), accounting for the chunks already placed.
  // A small per-hop bias keeps zero-load routes minimal.
  const auto& g = topology_.switch_graph();
  const graph::NodeId from = topology_.ingress_switch(src);
  const graph::NodeId to = topology_.egress_switch(dst);
  const int split_chunks = options_.split_chunks;
  const double chunk =
      demand > 0.0 ? demand / static_cast<double>(split_chunks) : 0.0;
  const double hop_bias = std::max(1.0, demand * 0.01);

  // Soft capacity: a sub-flow strongly avoids links it would push past the
  // capacity hint, which is what lets the heavy MPEG4 SDRAM flows spread
  // around already-loaded links instead of stacking onto them.
  constexpr double kOverloadPenalty = 1e7;
  const double capacity = options_.capacity_hint_mbps;
  const auto edge_cost = [&](double current) {
    double cost = hop_bias + current + chunk * 0.5;
    if (current + chunk > capacity + 1e-9) cost += kOverloadPenalty;
    return cost;
  };

  const double chunk_fraction = 1.0 / static_cast<double>(split_chunks);
  if (single_path_) {
    // Every chunk's search finds chunk 0's path, the only one there is: the
    // path keeps chunk 0's cost and sums the chunk fractions as the chunk
    // loop below would.
    out.paths.resize(1);
    WeightedPath& only = out.paths.front();
    if (!graph::shortest_path_into(
            g, from, to,
            [&](graph::EdgeId e) { return edge_cost(loads.load(e)); },
            graph::AdmitAll{}, only.path)) {
      throw std::logic_error("RoutingEngine: topology disconnected");
    }
    only.fraction = chunk_fraction;
    for (int c = 1; c < split_chunks; ++c) only.fraction += chunk_fraction;
    return;
  }

  // Each edge's cost is derived once per call and then only for the edges
  // of each placed chunk's path — the only ones whose chunk load changed.
  SplitAllScratch& scratch = split_all_scratch();
  const auto num_edges = static_cast<std::size_t>(g.num_edges());
  scratch.extra.assign(num_edges, 0.0);
  scratch.edge_cost.resize(num_edges);
  double* extra = scratch.extra.data();
  double* cost = scratch.edge_cost.data();
  for (std::size_t e = 0; e < num_edges; ++e) {
    cost[e] = edge_cost(loads.load(static_cast<graph::EdgeId>(e)) + extra[e]);
  }

  // out's WeightedPaths are overwritten in place: slot `used` receives each
  // chunk's path and is kept only when it differs from every path so far
  // (identical chunk paths merge to keep the set small).
  std::size_t used = 0;
  for (int c = 0; c < split_chunks; ++c) {
    if (used == out.paths.size()) out.paths.emplace_back();
    graph::Path& path = out.paths[used].path;
    if (!graph::shortest_path_into(
            g, from, to,
            [cost](graph::EdgeId e) {
              return cost[static_cast<std::size_t>(e)];
            },
            graph::AdmitAll{}, path)) {
      throw std::logic_error("RoutingEngine: topology disconnected");
    }
    for (graph::EdgeId e : path.edges) {
      const auto i = static_cast<std::size_t>(e);
      extra[i] += chunk;
      cost[i] = edge_cost(loads.load(e) + extra[i]);
    }
    bool merged = false;
    for (std::size_t i = 0; i < used; ++i) {
      if (out.paths[i].path.nodes == path.nodes) {
        out.paths[i].fraction += chunk_fraction;
        merged = true;
        break;
      }
    }
    if (!merged) out.paths[used++].fraction = chunk_fraction;
  }
  out.paths.resize(used);
}

}  // namespace sunmap::route
