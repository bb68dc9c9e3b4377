#include "workload/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/expect.hpp"

namespace mlfs {
namespace {

/// Diamond: 0 -> {1, 2} -> 3, sealed.
Dag diamond() {
  Dag d(4);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  d.seal();
  return d;
}

TEST(Dag, EdgesAndAdjacency) {
  const Dag d = diamond();
  EXPECT_EQ(d.edge_count(), 4u);
  EXPECT_EQ(d.children(0).size(), 2u);
  EXPECT_EQ(d.parents(3).size(), 2u);
  EXPECT_TRUE(d.is_source(0));
  EXPECT_TRUE(d.is_sink(3));
  EXPECT_FALSE(d.is_sink(1));
}

TEST(Dag, DuplicateEdgesIgnored) {
  Dag d(2);
  d.add_edge(0, 1);
  d.add_edge(0, 1);
  EXPECT_EQ(d.edge_count(), 1u);
}

TEST(Dag, SelfEdgeRejected) {
  Dag d(2);
  EXPECT_THROW(d.add_edge(1, 1), ContractViolation);
  EXPECT_THROW(d.add_edge(0, 5), ContractViolation);
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const Dag d = diamond();
  const auto order = d.topological_order();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&order](std::size_t v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
}

TEST(Dag, ReverseTopologicalIsReversed) {
  const Dag d = diamond();
  const auto fwd = d.topological_order();
  const auto reversed = d.reverse_topological_order();
  std::vector<std::size_t> rev(reversed.begin(), reversed.end());
  std::reverse(rev.begin(), rev.end());
  EXPECT_TRUE(std::equal(fwd.begin(), fwd.end(), rev.begin(), rev.end()));
}

TEST(Dag, CycleDetection) {
  Dag d(3);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  EXPECT_TRUE(d.is_acyclic());
  d.add_edge(2, 0);
  EXPECT_FALSE(d.is_acyclic());
  EXPECT_THROW(d.kahn_order(), ContractViolation);
  EXPECT_THROW(d.seal(), ContractViolation);
  EXPECT_FALSE(d.sealed());
}

TEST(Dag, Layers) {
  const Dag d = diamond();
  const auto layers = d.layers();
  EXPECT_EQ(layers[0], 0u);
  EXPECT_EQ(layers[1], 1u);
  EXPECT_EQ(layers[2], 1u);
  EXPECT_EQ(layers[3], 2u);
}

TEST(Dag, DescendantCounts) {
  const Dag d = diamond();
  const auto counts = d.descendant_counts();
  EXPECT_EQ(counts[0], 3u);  // 1, 2, 3
  EXPECT_EQ(counts[1], 1u);  // 3
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
}

TEST(Dag, DescendantCountsNoDoubleCounting) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3: node 3 reachable two ways, counted once.
  const Dag d = diamond();
  EXPECT_EQ(d.descendant_counts()[0], 3u);
}

TEST(Dag, DepthToSink) {
  const Dag d = diamond();
  const auto depth = d.depth_to_sink();
  EXPECT_EQ(depth[0], 2u);
  EXPECT_EQ(depth[1], 1u);
  EXPECT_EQ(depth[2], 1u);
  EXPECT_EQ(depth[3], 0u);
}

TEST(Dag, ChainProperties) {
  Dag d(5);
  for (std::size_t i = 0; i + 1 < 5; ++i) d.add_edge(i, i + 1);
  d.seal();
  const auto counts = d.descendant_counts();
  const auto depth = d.depth_to_sink();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(counts[i], 4u - i);
    EXPECT_EQ(depth[i], 4u - i);
  }
}

TEST(Dag, EmptyAndSingleNode) {
  Dag empty;
  EXPECT_EQ(empty.node_count(), 0u);
  empty.seal();
  EXPECT_TRUE(empty.topological_order().empty());

  Dag one(1);
  EXPECT_TRUE(one.is_source(0));
  EXPECT_TRUE(one.is_sink(0));
  one.seal();
  ASSERT_EQ(one.topological_order().size(), 1u);
  EXPECT_EQ(one.topological_order()[0], 0u);
}

TEST(Dag, DisconnectedComponents) {
  Dag d(4);
  d.add_edge(0, 1);
  d.add_edge(2, 3);
  EXPECT_TRUE(d.is_acyclic());
  d.seal();
  EXPECT_EQ(d.topological_order().size(), 4u);
  const auto counts = d.descendant_counts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(Dag, SealedOrderIsTheKahnOrder) {
  Dag d(6);
  d.add_edge(0, 3);
  d.add_edge(1, 3);
  d.add_edge(3, 4);
  d.add_edge(2, 5);
  EXPECT_FALSE(d.sealed());
  EXPECT_THROW((void)d.topological_order(), ContractViolation);
  EXPECT_THROW((void)d.depth_to_sink(), ContractViolation);
  const std::vector<std::uint32_t> fresh = d.kahn_order();
  d.seal();
  const auto order = d.topological_order();
  EXPECT_TRUE(std::equal(order.begin(), order.end(), fresh.begin(), fresh.end()));
  const auto depth = d.depth_to_sink();
  EXPECT_EQ(depth[0], 2u);
  EXPECT_EQ(depth[3], 1u);
  EXPECT_EQ(depth[2], 1u);
  EXPECT_EQ(depth[5], 0u);
}

TEST(Dag, SealedDagRejectsEdgesAndResealing) {
  Dag d = diamond();
  EXPECT_TRUE(d.sealed());
  EXPECT_THROW(d.add_edge(0, 3), ContractViolation);
  EXPECT_THROW(d.seal(), ContractViolation);
  EXPECT_EQ(d.edge_count(), 4u);
}

}  // namespace
}  // namespace mlfs
