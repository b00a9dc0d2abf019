#include "route/routing_session.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace sunmap::route {

void RoutingSession::reset(std::vector<double> demands, int reroute_passes) {
  demands_ = std::move(demands);
  passes_ = reroute_passes;
  valid_ = false;
  const std::size_t n = demands_.size();
  key_.assign(n, CommodityEndpoints{});
  pass_routes_.assign(static_cast<std::size_t>(passes_ + 1) * n, RouteSet{});
  dirty_.assign(n, 0);
  final_loads_ = LoadMap(0);
  final_snapshot_ = false;
  for (auto& frame : frames_) frame.reset();
  frame_depth_ = 0;
}

void RoutingSession::solve(const RoutingEngine& engine,
                           const std::vector<CommodityEndpoints>& endpoints,
                           LoadMap& loads, bool speculative) {
  const int n = num_commodities();
  if (engine.kind() != RoutingKind::kSplitAll) {
    throw std::invalid_argument(
        std::string("RoutingSession: only split-all routing replays through "
                    "a session, not ") +
        to_string(engine.kind()));
  }
  if (static_cast<int>(endpoints.size()) != n) {
    throw std::invalid_argument(
        "RoutingSession: endpoint count does not match the bound demands");
  }
  if (!speculative && frame_depth_ > 0) {
    throw std::logic_error(
        "RoutingSession: destructive solve under open frames; commit or pop "
        "first");
  }
  ++stats_.solves;

  // Dirty-commodity rule: a commodity re-routes through a Dijkstra if its
  // endpoints moved; everything else is a reuse candidate. When too many
  // moved (or there is no valid base trace), fall back to a full re-route.
  bool full = !valid_;
  int dirty_count = 0;
  for (int k = 0; k < n; ++k) {
    dirty_[k] = (!valid_ || !(endpoints[static_cast<std::size_t>(k)] ==
                              key_[static_cast<std::size_t>(k)]))
                    ? 1
                    : 0;
    dirty_count += dirty_[static_cast<std::size_t>(k)];
  }
  if (!full &&
      dirty_count * kFallbackDirtyDenominator > n * kFallbackDirtyNumerator) {
    full = true;
  }
  const auto open_frame = [&]() -> Frame* {
    if (frame_depth_ == static_cast<int>(frames_.size())) {
      frames_.emplace_back();
    }
    Frame* opened = &frames_[static_cast<std::size_t>(frame_depth_)];
    opened->reset();
    opened->base_valid = valid_;
    ++frame_depth_;
    return opened;
  };

  // Zero-dirty fast path: no endpoint moved, so the canonical trace is the
  // cached trace verbatim and the final loads are the stored snapshot. The
  // (empty) frame keeps speculative pop/commit balanced.
  if (!full && dirty_count == 0 && final_snapshot_ &&
      final_loads_.num_edges() ==
          engine.topology().switch_graph().num_edges()) {
    ++stats_.snapshot_solves;
    stats_.reused += static_cast<std::int64_t>(passes_ + 1) * n;
    if (speculative) open_frame();
    loads = final_loads_;
    return;
  }

  if (full) {
    ++stats_.full_solves;
  } else {
    ++stats_.incremental_solves;
  }
  Frame* frame = speculative ? open_frame() : nullptr;
  const bool journal = frame != nullptr && frame->base_valid;

  // One step of the canonical trace. While the trace has not diverged, a
  // clean commodity's cached route is exactly what its Dijkstra would
  // return, so it is reused. Otherwise the step re-routes; a route that
  // differs from the cached one is installed (journaling the displaced
  // route under a frame; swap discipline keeps every RouteSet buffer
  // pooled) and marks the divergence.
  bool diverged = full;
  const auto step = [&](int pass, int k) {
    const auto& key = endpoints[static_cast<std::size_t>(k)];
    const double demand = demands_[static_cast<std::size_t>(k)];
    RouteSet& slot = pass_route(pass, k);
    if (!diverged && dirty_[static_cast<std::size_t>(k)] == 0) {
      ++stats_.reused;
    } else {
      ++stats_.rerouted;
      engine.route(key.src, key.dst, demand, loads, tmp_route_);
      if (!same_routes(tmp_route_, slot)) {
        diverged = true;
        if (journal) {
          if (frame->routes_used == frame->routes.size()) {
            frame->routes.emplace_back();
          }
          UndoEntry& entry = frame->routes[frame->routes_used++];
          entry.pass = pass;
          entry.commodity = k;
          std::swap(entry.old_route, slot);
        }
        std::swap(slot, tmp_route_);  // tmp_route_ inherits a warmed buffer
      }
    }
    loads.add_route(slot, demand);
  };

  // Pass 0 routes in canonical (decreasing-bandwidth) order; each rip-up
  // round removes a commodity's current route, re-routes it against
  // everyone else's load and adds the result back — same arithmetic, same
  // order as the from-scratch loop.
  loads.clear();
  for (int k = 0; k < n; ++k) step(0, k);
  for (int pass = 1; pass <= passes_; ++pass) {
    for (int k = 0; k < n; ++k) {
      loads.remove_route(pass_route(pass - 1, k),
                         demands_[static_cast<std::size_t>(k)]);
      step(pass, k);
    }
  }

  for (int k = 0; k < n; ++k) {
    auto& key = key_[static_cast<std::size_t>(k)];
    const auto& fresh = endpoints[static_cast<std::size_t>(k)];
    if (key == fresh) continue;
    if (journal) frame->keys.push_back(KeyUndo{k, key});
    key = fresh;
  }
  if (journal) {
    // Journal the displaced snapshot; the swap pools its buffer so the
    // copy below reuses warmed capacity.
    std::swap(frame->old_final, final_loads_);
    frame->has_old_final = final_snapshot_;
  }
  final_loads_ = loads;
  final_snapshot_ = true;
  valid_ = true;
}

void RoutingSession::pop() {
  if (frame_depth_ <= 0) {
    throw std::logic_error("RoutingSession: pop without an open frame");
  }
  Frame& frame = frames_[static_cast<std::size_t>(--frame_depth_)];
  if (!frame.base_valid) {
    // The speculation solved on top of an invalid base; there is no trace
    // to restore — the next solve re-routes from scratch.
    valid_ = false;
    final_snapshot_ = false;
    frame.reset();
    return;
  }
  for (std::size_t i = frame.routes_used; i-- > 0;) {
    UndoEntry& entry = frame.routes[i];
    // Swap (not move) so the discarded speculative route's buffer stays
    // pooled in the journal entry for the next speculation.
    std::swap(pass_route(entry.pass, entry.commodity), entry.old_route);
  }
  for (auto it = frame.keys.rbegin(); it != frame.keys.rend(); ++it) {
    key_[static_cast<std::size_t>(it->commodity)] = it->old_key;
  }
  // A zero-dirty fast-path frame never displaced the snapshot; anything
  // else journaled it above.
  if (frame.has_old_final) std::swap(final_loads_, frame.old_final);
  frame.reset();
}

void RoutingSession::commit() {
  while (frame_depth_ > 0) {
    frames_[static_cast<std::size_t>(--frame_depth_)].reset();
  }
}

}  // namespace sunmap::route
