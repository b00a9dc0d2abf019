#include "mapping/core_graph.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sunmap::mapping {

CoreGraph::CoreGraph(std::string name) : name_(std::move(name)) {}

namespace {

bool positive_finite(double value) {
  return value > 0.0 && std::isfinite(value);
}

}  // namespace

int CoreGraph::add_core(std::string name, fplan::BlockShape shape) {
  if (!positive_finite(shape.area_mm2)) {
    throw std::invalid_argument("CoreGraph: core " + name +
                                " needs a positive finite area");
  }
  if (!shape.soft && !(positive_finite(shape.width_mm) &&
                        positive_finite(shape.height_mm))) {
    throw std::invalid_argument("CoreGraph: core " + name +
                                " needs a positive finite width and height");
  }
  if (shape.soft && !(positive_finite(shape.min_aspect) &&
                      std::isfinite(shape.max_aspect) &&
                      shape.max_aspect >= shape.min_aspect)) {
    throw std::invalid_argument("CoreGraph: core " + name +
                                " has an invalid aspect range");
  }
  for (const auto& c : cores_) {
    if (c.name == name) {
      throw std::invalid_argument("CoreGraph: duplicate core name " + name);
    }
  }
  cores_.push_back(Core{std::move(name), shape});
  return graph_.add_node();
}

int CoreGraph::add_core(std::string name, double area_mm2) {
  return add_core(std::move(name), fplan::BlockShape::soft_block(area_mm2));
}

void CoreGraph::add_flow(int src_core, int dst_core, double bandwidth_mbps) {
  if (!positive_finite(bandwidth_mbps)) {
    throw std::invalid_argument(
        "CoreGraph: bandwidth must be positive and finite");
  }
  if (graph_.has_edge(src_core, dst_core)) {
    throw std::invalid_argument("CoreGraph: duplicate flow");
  }
  graph_.add_edge(src_core, dst_core, bandwidth_mbps);
}

int CoreGraph::core_index(std::string_view name) const {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].name == name) return static_cast<int>(i);
  }
  throw std::out_of_range("CoreGraph: no core named " + std::string(name));
}

double CoreGraph::total_core_area_mm2() const {
  double area = 0.0;
  for (const auto& c : cores_) area += c.shape.area_mm2;
  return area;
}

double CoreGraph::core_traffic_mbps(int index) const {
  double total = 0.0;
  for (graph::EdgeId e : graph_.out_edges(index)) {
    total += graph_.edge(e).weight;
  }
  for (graph::EdgeId e : graph_.in_edges(index)) {
    total += graph_.edge(e).weight;
  }
  return total;
}

std::vector<Commodity> commodities_by_value(const CoreGraph& app) {
  std::vector<Commodity> commodities;
  commodities.reserve(static_cast<std::size_t>(app.num_flows()));
  for (const auto& e : app.graph().edges()) {
    commodities.push_back(Commodity{e.src, e.dst, e.weight});
  }
  std::sort(commodities.begin(), commodities.end(),
            [](const Commodity& a, const Commodity& b) {
              if (a.value_mbps != b.value_mbps) {
                return a.value_mbps > b.value_mbps;
              }
              if (a.src_core != b.src_core) return a.src_core < b.src_core;
              return a.dst_core < b.dst_core;
            });
  return commodities;
}

}  // namespace sunmap::mapping
