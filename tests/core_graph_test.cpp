#include <gtest/gtest.h>

#include <cmath>

#include "mapping/core_graph.h"

namespace sunmap::mapping {
namespace {

CoreGraph small() {
  CoreGraph app("small");
  app.add_core("a", 2.0);
  app.add_core("b", 3.0);
  app.add_core("c", fplan::BlockShape::hard_block(1.0, 2.0));
  app.add_flow(0, 1, 100.0);
  app.add_flow(1, 2, 50.0);
  app.add_flow(2, 0, 200.0);
  return app;
}

TEST(CoreGraph, BasicAccessors) {
  const auto app = small();
  EXPECT_EQ(app.name(), "small");
  EXPECT_EQ(app.num_cores(), 3);
  EXPECT_EQ(app.num_flows(), 3);
  EXPECT_EQ(app.core(0).name, "a");
  EXPECT_DOUBLE_EQ(app.total_bandwidth_mbps(), 350.0);
  EXPECT_DOUBLE_EQ(app.total_core_area_mm2(), 7.0);
}

TEST(CoreGraph, CoreIndexByName) {
  const auto app = small();
  EXPECT_EQ(app.core_index("b"), 1);
  EXPECT_THROW(app.core_index("nope"), std::out_of_range);
}

TEST(CoreGraph, DuplicateNameThrows) {
  CoreGraph app("dup");
  app.add_core("x", 1.0);
  EXPECT_THROW(app.add_core("x", 2.0), std::invalid_argument);
}

TEST(CoreGraph, FlowValidation) {
  CoreGraph app("flows");
  app.add_core("a", 1.0);
  app.add_core("b", 1.0);
  app.add_flow(0, 1, 10.0);
  EXPECT_THROW(app.add_flow(0, 1, 5.0), std::invalid_argument);  // duplicate
  EXPECT_THROW(app.add_flow(1, 0, 0.0), std::invalid_argument);  // zero bw
  EXPECT_THROW(app.add_flow(1, 0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(app.add_flow(1, 0, HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(app.add_flow(0, 0, 5.0), std::invalid_argument);  // self loop
  app.add_flow(1, 0, 5.0);  // reverse direction is a distinct flow
  EXPECT_EQ(app.num_flows(), 2);
}

TEST(CoreGraph, CoreTrafficSumsBothDirections) {
  const auto app = small();
  // Core 0: out 100, in 200.
  EXPECT_DOUBLE_EQ(app.core_traffic_mbps(0), 300.0);
  EXPECT_DOUBLE_EQ(app.core_traffic_mbps(1), 150.0);
}

TEST(Commodities, SortedByDecreasingValue) {
  const auto app = small();
  const auto commodities = commodities_by_value(app);
  ASSERT_EQ(commodities.size(), 3u);
  EXPECT_DOUBLE_EQ(commodities[0].value_mbps, 200.0);
  EXPECT_DOUBLE_EQ(commodities[1].value_mbps, 100.0);
  EXPECT_DOUBLE_EQ(commodities[2].value_mbps, 50.0);
  EXPECT_EQ(commodities[0].src_core, 2);
  EXPECT_EQ(commodities[0].dst_core, 0);
}

TEST(Commodities, DeterministicTieBreak) {
  CoreGraph app("ties");
  app.add_core("a", 1.0);
  app.add_core("b", 1.0);
  app.add_core("c", 1.0);
  app.add_flow(1, 2, 10.0);
  app.add_flow(0, 1, 10.0);
  app.add_flow(0, 2, 10.0);
  const auto commodities = commodities_by_value(app);
  EXPECT_EQ(commodities[0].src_core, 0);
  EXPECT_EQ(commodities[0].dst_core, 1);
  EXPECT_EQ(commodities[1].src_core, 0);
  EXPECT_EQ(commodities[1].dst_core, 2);
  EXPECT_EQ(commodities[2].src_core, 1);
}

}  // namespace
}  // namespace sunmap::mapping
