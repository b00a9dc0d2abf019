#pragma once

#include <cstdint>
#include <vector>

#include "route/routing.h"

namespace sunmap::route {

/// One commodity's endpoint slots under the current mapping.
struct CommodityEndpoints {
  topo::SlotId src = -1;
  topo::SlotId dst = -1;

  friend bool operator==(const CommodityEndpoints&,
                         const CommodityEndpoints&) = default;
};

/// Incremental, transactional replay of split-all (SA) routing. The other
/// kinds never touch a session: DO/SM read static route tables, and MP
/// re-routes from scratch, which on paper-sized meshes is faster than any
/// replay bookkeeping (see README "Transactional incremental routing").
///
/// The from-scratch evaluation routes all commodities in canonical
/// (decreasing-bandwidth) order, then runs `reroute_passes` rip-up rounds —
/// a deterministic trace whose every Dijkstra depends on the link loads at
/// that point of the trace. solve() replays that trace against the previous
/// solve's recorded per-pass routes with prefix reuse: a clean commodity
/// (its endpoints did not move — the dirty-commodity rule) reuses its
/// cached route while no re-routed commodity has come out different from
/// its cached route. Up to that first difference the live add/remove
/// sequence *is* the cached trace, so the loads every reused Dijkstra would
/// see are bit-identical to the ones it saw. Split-all admits every link,
/// so after the first difference no later search can be proven unaffected
/// and every remaining step re-routes. The result is bit-identical to the
/// from-scratch loop.
///
/// When a speculative solve displaces too many commodities (more than
/// kFallbackDirtyNumerator/kFallbackDirtyDenominator of them are dirty) or
/// the session has no valid base, it re-routes everything and still records
/// the trace for the next solve.
///
/// Transactional discipline mirrors fplan::FloorplanSession: a speculative
/// solve opens an undo frame journaling every displaced route and endpoint
/// verbatim; pop() restores them in O(frame), commit() folds all open frames
/// into the base, frames nest and are pooled. A destructive solve under
/// open frames throws (protocol misuse).
class RoutingSession {
 public:
  struct Stats {
    std::int64_t solves = 0;             ///< solve() calls
    std::int64_t full_solves = 0;        ///< invalid base or dirty fallback
    std::int64_t incremental_solves = 0; ///< replays with reuse enabled
    std::int64_t snapshot_solves = 0;    ///< zero-dirty O(1) snapshot returns
    std::int64_t rerouted = 0;           ///< Dijkstra-backed (pass, k) steps
    std::int64_t reused = 0;             ///< provably identical reuses
  };

  /// Full re-route fallback threshold: incremental replay is abandoned when
  /// more than one quarter of the commodities changed endpoints (the reuse
  /// bookkeeping would only add overhead to a near-global re-route).
  static constexpr int kFallbackDirtyNumerator = 1;
  static constexpr int kFallbackDirtyDenominator = 4;

  RoutingSession() = default;

  /// (Re)binds the session to a commodity list: demands[k] is commodity k's
  /// bandwidth in canonical order. Drops all cached routes and open frames.
  void reset(std::vector<double> demands, int reroute_passes);

  /// True once a solve has recorded a complete trace to replay against.
  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] int num_commodities() const {
    return static_cast<int>(demands_.size());
  }
  [[nodiscard]] int reroute_passes() const { return passes_; }
  [[nodiscard]] int open_frames() const { return frame_depth_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Routes every commodity through the split-all `engine` for the endpoint
  /// assignment `endpoints`, bit-identical to the from-scratch canonical
  /// loop, writing the accumulated final link loads into `loads` (cleared
  /// first). With `speculative`, the displaced state is journaled in a new
  /// undo frame; otherwise the new trace destructively becomes the base
  /// (throws std::logic_error if frames are open). Throws
  /// std::invalid_argument for an engine of any other routing kind.
  void solve(const RoutingEngine& engine,
             const std::vector<CommodityEndpoints>& endpoints, LoadMap& loads,
             bool speculative);

  /// Final route of commodity k after the most recent solve. The reference
  /// is invalidated by the next solve/pop/commit/reset.
  [[nodiscard]] const RouteSet& route(int k) const {
    return pass_routes_[static_cast<std::size_t>(passes_ * num_commodities() +
                                                 k)];
  }

  /// Pops the newest undo frame, restoring every displaced route and
  /// endpoint verbatim in O(frame). Throws std::logic_error when no frame
  /// is open.
  void pop();

  /// Folds every open frame into the base (the speculated traces stay).
  void commit();

 private:
  struct UndoEntry {
    int pass = 0;
    int commodity = 0;
    RouteSet old_route;
  };
  struct KeyUndo {
    int commodity = 0;
    CommodityEndpoints old_key;
  };
  // Entries are pooled (routes_used high-water mark, swap in/swap out) so the
  // speculate/pop churn of an annealing walk never frees a route buffer.
  struct Frame {
    std::vector<UndoEntry> routes;
    std::size_t routes_used = 0;
    std::vector<KeyUndo> keys;
    LoadMap old_final{0};  ///< displaced final-loads snapshot (buffer pooled)
    bool has_old_final = false;
    bool base_valid = true;
    void reset() {
      routes_used = 0;
      keys.clear();
      has_old_final = false;
      base_valid = true;
    }
  };

  [[nodiscard]] RouteSet& pass_route(int pass, int k) {
    return pass_routes_[static_cast<std::size_t>(pass * num_commodities() +
                                                 k)];
  }

  int passes_ = 0;
  bool valid_ = false;
  std::vector<double> demands_;
  std::vector<CommodityEndpoints> key_;
  std::vector<RouteSet> pass_routes_;  ///< (passes_+1) x N, pass-major

  std::vector<char> dirty_;  ///< per commodity, rebuilt by every solve
  RouteSet tmp_route_;

  // Final link loads of the most recent solve. When no endpoint moved at
  // all (e.g. a swap of two unoccupied slots), the canonical trace is the
  // cached trace verbatim, so solve() returns this snapshot in O(edges)
  // without touching a single route.
  LoadMap final_loads_{0};
  bool final_snapshot_ = false;

  std::vector<Frame> frames_;  ///< pooled; frame_depth_ are open
  int frame_depth_ = 0;
  Stats stats_;
};

}  // namespace sunmap::route
