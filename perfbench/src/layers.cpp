#include "layers.h"

#include <algorithm>
#include <set>

namespace perfbench {

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> table = {
      {"select.explore_s", "s", "lower"},
      {"mapping.context_build_s", "s", "lower"},
      {"mapping.contexts_built", "count", "lower"},
      {"mapping.rebind_s", "s", "lower"},
      {"mapping.rebinds", "count", "lower"},
      {"mapping.map_s", "s", "lower"},
      {"mapping.evaluated", "count", "lower"},
      {"mapping.pruned", "count", "higher"},
      {"mapping.prune_ratio", "ratio", "higher"},
      {"mapping.full_eval_us", "us", "lower"},
      {"mapping.metrics_hit_ratio", "ratio", "higher"},
      {"mapping.floorplan_hit_ratio", "ratio", "higher"},
      {"route.solves", "count", "lower"},
      {"route.incremental_ratio", "ratio", "higher"},
      {"route.reuse_ratio", "ratio", "higher"},
      {"route.route_us", "us", "lower"},
      {"fplan.solves", "count", "lower"},
      {"fplan.incremental_ratio", "ratio", "higher"},
      {"fplan.cached_ratio", "ratio", "higher"},
      {"fplan.place_us", "us", "lower"},
      {"fault.scenarios", "count", "lower"},
      {"fault.materialize_s", "s", "lower"},
      {"fault.extra_map_s", "s", "lower"},
      {"sim.finalists_s", "s", "lower"},
      {"sim.rank_s", "s", "lower"},
      {"sim.cells", "count", "lower"},
      {"sim.cycles", "count", "lower"},
      {"sim.flit_events", "count", "lower"},
      {"sim.flit_events_per_s", "1/s", "higher"},
      {"sim.saturated_cells", "count", "lower"},
      {"sim.model_error_max", "ratio", "lower"},
      {"sweep.call_p50_ms", "ms", "lower"},
      {"sweep.call_p95_ms", "ms", "lower"},
      {"sweep.overhead_p50_ms", "ms", "lower"},
      {"sweep.reply_bytes", "bytes", "lower"},
      {"sweep.forked_s", "s", "lower"},
      {"io.json_s", "s", "lower"},
      {"io.json_bytes", "bytes", "lower"},
      {"topo.library_s", "s", "lower"},
      {"gen.emit_s", "s", "lower"},
      {"failed_frac", "ratio", "lower"},
      {"trace.wall_s", "s", "lower"},
      {"trace.untraced_wall_s", "s", "lower"},
      {"trace.overhead_s", "s", "lower"},
      {"trace.self_sum_s", "s", "lower"},
      {"trace.spans", "count", "lower"},
      {"check.digest_checked", "count", "higher"},
      {"calib.hardware_threads", "count", "higher"},
      {"calib.effective_cores_2", "cores", "higher"},
      {"calib.effective_cores_4", "cores", "higher"},
  };
  return table;
}

void fill_from_trace(const std::map<std::string, Tracer::Totals>& totals,
                     const LayerCounts& counts, LayerValues& values) {
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it != totals.end() ? it->second.total_s : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  values["select.explore_s"] = total("select.explore");
  values["mapping.context_build_s"] = total("mapping.make_context");
  values["mapping.contexts_built"] = static_cast<double>(counts.contexts_built);
  values["mapping.rebind_s"] = total("mapping.rebind");
  values["mapping.rebinds"] = static_cast<double>(counts.rebinds);
  values["mapping.map_s"] = total("mapping.map");
  values["mapping.evaluated"] = static_cast<double>(counts.evaluated);
  values["mapping.pruned"] = static_cast<double>(counts.pruned);
  values["mapping.prune_ratio"] = ratio(static_cast<double>(counts.pruned),
                                        static_cast<double>(counts.evaluated));
  values["mapping.full_eval_us"] =
      1e6 * ratio(total("mapping.map"),
                  static_cast<double>(counts.evaluated - counts.pruned));
  values["mapping.metrics_hit_ratio"] =
      ratio(static_cast<double>(counts.metrics_hits),
            static_cast<double>(counts.metrics_hits + counts.metrics_misses));
  values["mapping.floorplan_hit_ratio"] = ratio(
      static_cast<double>(counts.floorplan_hits),
      static_cast<double>(counts.floorplan_hits + counts.floorplan_misses));
  values["route.solves"] = static_cast<double>(counts.route_solves);
  values["route.incremental_ratio"] =
      ratio(static_cast<double>(counts.route_incremental),
            static_cast<double>(counts.route_solves));
  values["route.reuse_ratio"] =
      ratio(static_cast<double>(counts.route_reused),
            static_cast<double>(counts.route_reused + counts.route_rerouted));
  values["fplan.solves"] = static_cast<double>(counts.fplan_solves);
  values["fplan.incremental_ratio"] =
      ratio(static_cast<double>(counts.fplan_incremental),
            static_cast<double>(counts.fplan_solves));
  values["fplan.cached_ratio"] =
      ratio(static_cast<double>(counts.fplan_cached),
            static_cast<double>(counts.fplan_solves + counts.fplan_cached));
  values["fault.extra_map_s"] = counts.fault_extra_map_s;
  values["sim.finalists_s"] = total("sim.finalists");
  values["sim.rank_s"] = total("sim.rank");
  values["io.json_s"] = total("io.json");
  values["gen.emit_s"] = total("gen.emit");
}

LayerValues median_values(const std::vector<LayerValues>& passes) {
  std::set<std::string> names;
  for (const auto& pass : passes) {
    for (const auto& [name, value] : pass) names.insert(name);
  }
  LayerValues out;
  for (const auto& name : names) {
    std::vector<double> column;
    for (const auto& pass : passes) {
      const auto it = pass.find(name);
      column.push_back(it != pass.end() ? it->second : 0.0);
    }
    out[name] = median(column);
  }
  return out;
}

void note_calibration(const Calibration& calibration) {
  note("host: %u hardware threads, effective cores %.2f at 2 threads, %.2f "
       "at 4", calibration.hardware_threads, calibration.effective_cores_2,
       calibration.effective_cores_4);
}

void add_calibration(const Calibration& calibration, LayerValues& values) {
  values["calib.hardware_threads"] = calibration.hardware_threads;
  values["calib.effective_cores_2"] = calibration.effective_cores_2;
  values["calib.effective_cores_4"] = calibration.effective_cores_4;
}

void note_self_times(const Tracer& tracer, int run) {
  note("%-24s %6s %12s %12s", "span", "count", "total_s", "self_s");
  for (const auto& [name, total] : tracer.totals(run)) {
    note("%-24s %6ld %12.6f %12.6f", name.c_str(), total.count, total.total_s,
         total.self_s);
  }
}

void add_layer_metrics(const LayerValues& values, RunResult& result) {
  std::set<std::string> known;
  for (const auto& metric : layer_metrics()) {
    known.insert(metric.name);
    const auto it = values.find(metric.name);
    result.metric(metric.name, it != values.end() ? it->second : 0.0,
                  metric.unit);
  }
  for (const auto& [name, value] : values) {
    if (known.count(name) == 0) {
      result.problem("per-layer value " + name + " is not in the table");
    }
  }
}

}  // namespace perfbench
