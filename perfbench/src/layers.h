#pragma once

// The per-layer metric table of the traced run and the helpers that derive
// its entries from spans and layer counters.

#include <map>
#include <string>

#include "common.h"
#include "replay.h"
#include "trace.h"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* better;
};

/// Every per-layer metric, in print order. A traced run prints all of them
/// (0 where the workload leaves the layer idle).
const std::vector<LayerMetric>& layer_metrics();

/// Per-layer values by metric name; unset entries print as 0.
using LayerValues = std::map<std::string, double>;

/// Mapping/route/fplan/select/io/gen entries from one traced pass's span
/// totals and the counters of its replayed requests.
void fill_from_trace(const std::map<std::string, Tracer::Totals>& totals,
                     const LayerCounts& counts, LayerValues& values);

/// Element-wise median over several passes' values.
LayerValues median_values(const std::vector<LayerValues>& passes);

/// Host calibration: noted on stderr by every run, and part of the traced
/// run's values.
void note_calibration(const Calibration& calibration);
void add_calibration(const Calibration& calibration, LayerValues& values);

/// Per-span-name total and self times of run `run`, on stderr.
void note_self_times(const Tracer& tracer, int run);

/// Prints `values` as the run's metrics, in table order; a name outside
/// the table is a benchmark bug and is reported as a problem.
void add_layer_metrics(const LayerValues& values, RunResult& result);

}  // namespace perfbench
