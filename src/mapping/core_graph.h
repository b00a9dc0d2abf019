#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "fplan/floorplan.h"
#include "graph/graph.h"

namespace sunmap::mapping {

/// A core (vertex of the core graph, Definition 1) together with its
/// physical block shape. The paper assumes "the area-power values of the
/// cores are an input to our tool"; the shape carries that input for the
/// floorplanner (hard blocks for memories, soft blocks with an aspect-ratio
/// range for synthesised logic).
struct Core {
  std::string name;
  fplan::BlockShape shape;
};

/// The core graph G(V, E) of Definition 1: a directed graph whose vertices
/// are cores and whose edge weights comm_{i,j} are the communication
/// bandwidth in MB/s from core i to core j.
class CoreGraph {
 public:
  explicit CoreGraph(std::string name);

  /// Adds a core with an explicit block shape; returns its index. Throws
  /// std::invalid_argument on a duplicate name, an area that is not
  /// positive and finite, a hard block whose width or height is not, or a
  /// soft block whose aspect range is not 0 < min <= max < inf.
  int add_core(std::string name, fplan::BlockShape shape);
  /// Adds a soft-block core with the given area.
  int add_core(std::string name, double area_mm2);

  /// Adds the directed communication edge e_{i,j} with bandwidth comm_{i,j}
  /// (MB/s). Throws if an edge between the pair already exists in this
  /// direction or the bandwidth is not positive and finite.
  void add_flow(int src_core, int dst_core, double bandwidth_mbps);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const graph::DirectedGraph& graph() const { return graph_; }
  [[nodiscard]] int num_cores() const { return graph_.num_nodes(); }
  [[nodiscard]] int num_flows() const { return graph_.num_edges(); }

  [[nodiscard]] const Core& core(int index) const {
    return cores_.at(static_cast<std::size_t>(index));
  }
  /// Index of the core with the given name; throws std::out_of_range if
  /// absent.
  [[nodiscard]] int core_index(std::string_view name) const;

  /// Total application bandwidth (sum of all comm_{i,j}).
  [[nodiscard]] double total_bandwidth_mbps() const {
    return graph_.total_weight();
  }
  /// Sum of core block areas.
  [[nodiscard]] double total_core_area_mm2() const;

  /// Total bandwidth entering plus leaving one core — the "amount of
  /// communication" ordering used by the greedy initial mapping.
  [[nodiscard]] double core_traffic_mbps(int index) const;

 private:
  std::string name_;
  graph::DirectedGraph graph_;
  std::vector<Core> cores_;
};

/// Commodity d_k (paper equation 2): one core-graph edge treated as a
/// single-commodity flow with value vl(d_k) = comm_{i,j}.
struct Commodity {
  int src_core = 0;
  int dst_core = 0;
  double value_mbps = 0.0;
};

/// All commodities of the application sorted by decreasing value — the
/// routing order of Fig 5 step 2. Ties break by (src, dst) for determinism.
std::vector<Commodity> commodities_by_value(const CoreGraph& app);

}  // namespace sunmap::mapping
