#pragma once

#include <cassert>
#include <limits>
#include <vector>

#include "graph/paths.h"
#include "topo/topology.h"

namespace sunmap::route {

/// The routing functions SUNMAP supports (§1, §6.3).
enum class RoutingKind {
  kDimensionOrdered,  ///< DO — deterministic, oblivious single path.
  kMinPath,           ///< MP — congestion-aware Dijkstra on the quadrant.
  kSplitMin,          ///< SM — traffic split across all minimum paths.
  kSplitAll,          ///< SA — traffic split across all paths.
};

/// Short label as used in Fig 9(a): "DO", "MP", "SM", "SA".
const char* to_string(RoutingKind kind);

/// All four routing functions, in paper order.
inline constexpr RoutingKind kAllRoutingKinds[] = {
    RoutingKind::kDimensionOrdered,
    RoutingKind::kMinPath,
    RoutingKind::kSplitMin,
    RoutingKind::kSplitAll,
};

/// A path carrying a fraction of one commodity's bandwidth.
struct WeightedPath {
  graph::Path path;
  double fraction = 1.0;
};

/// The set of weighted paths one commodity is routed over. Fractions sum to
/// 1 (single-path functions produce exactly one path with fraction 1).
struct RouteSet {
  std::vector<WeightedPath> paths;

  /// Fraction-weighted number of switches traversed (link hops + 1) — the
  /// per-commodity contribution to the paper's average-hop-delay metric.
  [[nodiscard]] double weighted_switch_hops() const;

  /// Fraction-weighted number of link traversals.
  [[nodiscard]] double weighted_link_hops() const;
};

/// True when the two route sets take exactly the same paths with exactly the
/// same fractions (bit-wise double comparison; used by the routing session to
/// detect whether a re-route actually displaced anything).
[[nodiscard]] bool same_routes(const RouteSet& a, const RouteSet& b);

/// Per-link traffic accumulator, indexed by switch-graph EdgeId, in the same
/// MB/s units as core-graph edge weights. The mapping algorithm routes
/// commodities in decreasing order and accumulates their bandwidth here
/// (Fig 5 step 6); bandwidth constraints compare max_load() against the
/// link capacity.
class LoadMap {
 public:
  explicit LoadMap(int num_edges)
      : loads_(static_cast<std::size_t>(num_edges), 0.0) {}

  void add(graph::EdgeId e, double amount) {
    // Unchecked indexing: edge ids come straight from the switch graph in
    // every caller, and this sits inside the mapping search's hottest loop.
    double& value = loads_[static_cast<std::size_t>(e)];
    value += amount;
    // Rip-up-and-reroute removes a commodity by adding its routes with
    // negative demand; floating-point cancellation can leave a tiny negative
    // residue that would perturb max_load() and feasibility checks. Link
    // loads are physically non-negative, so snap near-zero negatives back to
    // exactly zero. The clamp window is kNegativeResidueTolerance: residues
    // inside (-tolerance, 0) are cancellation noise (they are bounded by a
    // few ulps of the peak accumulated load, orders of magnitude below the
    // tolerance for realistic MB/s traffic); anything at or beyond the
    // tolerance indicates a real accounting bug — a rip-up of routes that
    // were never added — so it trips the debug assert below and stays
    // visible as a negative load in release builds.
    assert(value > -kNegativeResidueTolerance &&
           "LoadMap: negative residue beyond tolerance (rip-up mismatch)");
    if (value < 0.0 && value > -kNegativeResidueTolerance) value = 0.0;
  }

  /// Adds `demand` scaled by each path fraction along every routed path.
  void add_route(const RouteSet& routes, double demand);

  /// Rip-up: removes a previously added route set by adding the IEEE-negated
  /// per-edge amounts in the same edge order. On a link whose load was zero
  /// before the matching add_route, the round trip restores exact zero
  /// (0 + v = v and v - v = 0 are both exact); over a nonzero background
  /// load the cancellation can drift by an ulp per cycle, which is why
  /// consumers that need bit-identical loads (the routing session, the
  /// reference re-route loop) always rebuild from a cleared map by replaying
  /// the same add/remove sequence rather than round-tripping in place.
  void remove_route(const RouteSet& routes, double demand);

  [[nodiscard]] double load(graph::EdgeId e) const {
    return loads_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] double max_load() const;
  [[nodiscard]] const std::vector<double>& values() const { return loads_; }
  [[nodiscard]] int num_edges() const {
    return static_cast<int>(loads_.size());
  }

  void clear() { loads_.assign(loads_.size(), 0.0); }

  /// Largest negative residue magnitude silently clamped to zero by add().
  /// Residues at or beyond this are treated as accounting bugs (asserted in
  /// debug builds, left visible in release builds).
  static constexpr double kNegativeResidueTolerance = 1e-6;

 private:
  std::vector<double> loads_;
};

/// Precomputed quadrant-graph admission masks for every ordered slot pair of
/// one topology. Building the table once per topology lets the routing
/// engine's inner Dijkstra loop read a plain byte array instead of
/// recomputing (or even lock-protecting) the quadrant sets — and, unlike the
/// memoized Topology::quadrant_mask(), the table is immutable after
/// construction, so concurrent mapping-search workers share it without
/// synchronisation.
class QuadrantTable {
 public:
  explicit QuadrantTable(const topo::Topology& topology);

  /// Byte mask over switch NodeIds for the (src, dst) slot pair: non-zero
  /// entries are the switches on at least one minimum path.
  [[nodiscard]] const char* mask(topo::SlotId src, topo::SlotId dst) const {
    return masks_.data() +
           (static_cast<std::size_t>(src) * static_cast<std::size_t>(num_slots_) +
            static_cast<std::size_t>(dst)) *
               static_cast<std::size_t>(num_switches_);
  }

 private:
  int num_slots_ = 0;
  int num_switches_ = 0;
  std::vector<char> masks_;
};

/// Computes routes for commodities over one topology under one routing
/// function. Stateless with respect to traffic: current link loads are
/// passed in, so the mapper owns ordering and accumulation. Fully configured
/// at construction (Options) — there is no post-construction mutation, so a
/// const engine is safe to share across concurrent search workers.
class RoutingEngine {
 public:
  struct Options {
    /// Granularity of split-across-all-paths routing (the commodity is
    /// divided into that many equal sub-flows).
    int split_chunks = 16;
    /// Link capacity the engine tries not to exceed when spreading
    /// sub-flows (a soft bound — the bandwidth *constraint* is checked by
    /// the mapper).
    double capacity_hint_mbps = std::numeric_limits<double>::infinity();
    /// Optional precomputed quadrant table (not owned; must outlive the
    /// engine). With a table, minimum-path routing reads admission masks
    /// lock-free; without one it falls back to the topology's memoized
    /// quadrant cache.
    const QuadrantTable* quadrant_table = nullptr;
  };

  // Two overloads rather than `Options options = {}`: a default argument
  // may not use the nested aggregate's member initializers before the
  // enclosing class is complete.
  RoutingEngine(const topo::Topology& topology, RoutingKind kind);
  RoutingEngine(const topo::Topology& topology, RoutingKind kind,
                Options options);

  [[nodiscard]] RoutingKind kind() const { return kind_; }
  [[nodiscard]] const topo::Topology& topology() const { return topology_; }
  [[nodiscard]] int split_chunks() const { return options_.split_chunks; }

  /// The switch admission mask minimum-path routing would use for this slot
  /// pair (the attached table or the topology's memoized cache) — exposed so
  /// the routing session can reason about which link-load changes are
  /// visible to a commodity's Dijkstra.
  [[nodiscard]] const char* min_path_admission(topo::SlotId src,
                                               topo::SlotId dst) const {
    return options_.quadrant_table != nullptr
               ? options_.quadrant_table->mask(src, dst)
               : topology_.quadrant_mask(src, dst).data();
  }

  /// Routes `demand` MB/s from slot src to slot dst given the traffic
  /// already routed (`loads`), writing the result into `out`. Whatever `out`
  /// held is overwritten: afterwards it holds exactly the new route set,
  /// and the adaptive functions (MP, SA) write into its existing
  /// WeightedPath buffers, so a caller that reuses one RouteSet routes
  /// without allocating once its capacity has warmed up. If route() throws,
  /// `out` is left unspecified. Does not modify `loads`; the caller
  /// accumulates via LoadMap::add_route, matching Fig 5 steps 4-6.
  void route(topo::SlotId src, topo::SlotId dst, double demand,
             const LoadMap& loads, RouteSet& out) const;

 private:
  void route_dimension_ordered(topo::SlotId src, topo::SlotId dst,
                               RouteSet& out) const;
  void route_min_path(topo::SlotId src, topo::SlotId dst,
                      const LoadMap& loads, RouteSet& out) const;
  void route_split_min(topo::SlotId src, topo::SlotId dst,
                       RouteSet& out) const;
  void route_split_all(topo::SlotId src, topo::SlotId dst, double demand,
                       const LoadMap& loads, RouteSet& out) const;

  const topo::Topology& topology_;
  RoutingKind kind_;
  Options options_;
};

}  // namespace sunmap::route
