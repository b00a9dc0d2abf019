#include "mapping/sim_eval.h"

#include <stdexcept>
#include <vector>

namespace sunmap::mapping {

SimTierOptions sim_tier_options(const MapperConfig& config) {
  SimTierOptions options;
  options.config.seed = config.sim_seed;
  options.flits_per_cycle_per_gbps = config.sim_flits_per_cycle_per_gbps;
  options.traffic = config.sim_traffic;
  options.burst_len = config.sim_burst_len;
  options.burst_duty = config.sim_burst_duty;
  return options;
}

SimEvaluator::SimEvaluator(SimTierOptions options)
    : options_(std::move(options)) {
  if (options_.cache_capacity < 1) {
    throw std::invalid_argument(
        "SimEvaluator: cache_capacity must be >= 1");
  }
}

SimScore SimEvaluator::score(const CoreGraph& app,
                             const topo::Topology& topology,
                             const MappingResult& result) {
  const auto commodities = commodities_by_value(app);
  if (result.eval.routes.size() != commodities.size()) {
    throw std::invalid_argument(
        "SimEvaluator: result carries no materialized routes");
  }
  if (result.core_to_slot.size() <
      static_cast<std::size_t>(app.num_cores())) {
    throw std::invalid_argument("SimEvaluator: incomplete mapping");
  }

  // Bind the mapping's own routes (borrowed, not copied) and its traffic
  // rates into the simulator. Commodity order is the deterministic
  // routing order, so flow order — and with it the PRNG draw order — is
  // reproducible.
  sim::RouteTable table(topology.num_slots());
  std::vector<sim::TrafficFlow> flows;
  flows.reserve(commodities.size());
  double weighted_latency = 0.0;
  double weight_sum = 0.0;
  const double flits = static_cast<double>(options_.config.flits_per_packet);
  const double link_lat =
      static_cast<double>(options_.config.link_latency_cycles);
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const auto& c = commodities[k];
    const int src_slot =
        result.core_to_slot[static_cast<std::size_t>(c.src_core)];
    const int dst_slot =
        result.core_to_slot[static_cast<std::size_t>(c.dst_core)];
    const auto& routes = result.eval.routes[k];
    table.set_ref(src_slot, dst_slot, routes);
    flows.push_back(sim::TrafficFlow{src_slot, dst_slot, c.value_mbps});
    // Zero-load packet latency for this commodity: F flits pipeline behind
    // the head over S switches and S-1 links.
    const double switches = routes.weighted_switch_hops();
    weighted_latency += c.value_mbps * (flits + (switches - 1.0) * link_lat);
    weight_sum += c.value_mbps;
  }

  auto [it, inserted] = cache_.try_emplace(&topology);
  Entry& entry = it->second;
  entry.last_used = ++use_tick_;
  if (inserted) {
    entry.layout = sim::make_network_layout(topology);
    entry.simulator = std::make_unique<sim::Simulator>(
        topology, table, options_.config, entry.layout);
    // Bounded LRU: evict the least-recently-scored topology beyond the
    // capacity (never the entry just inserted).
    while (cache_.size() > options_.cache_capacity) {
      auto victim = cache_.begin();
      for (auto c = cache_.begin(); c != cache_.end(); ++c) {
        if (c->second.last_used < victim->second.last_used) victim = c;
      }
      cache_.erase(victim);
    }
  } else {
    entry.simulator->bind(table);
  }

  SimScore score;
  if (options_.traffic == SimTraffic::kBursty) {
    sim::BurstyTraffic traffic(flows, options_.config.flits_per_packet,
                               options_.flits_per_cycle_per_gbps,
                               options_.burst_len, options_.burst_duty);
    score.stats = entry.simulator->run(traffic);
  } else {
    sim::TraceTraffic traffic(flows, options_.config.flits_per_packet,
                              options_.flits_per_cycle_per_gbps);
    score.stats = entry.simulator->run(traffic);
  }
  score.analytical_latency_cycles =
      weight_sum > 0.0 ? weighted_latency / weight_sum : 0.0;
  score.simulated_latency_cycles = score.stats.avg_latency_cycles;
  return score;
}

}  // namespace sunmap::mapping
