// Task dependency graph of one job (the "model partition graph" of §3.2).
// Nodes are job-local task indices; an edge u -> v means v consumes u's
// output, i.e. v is a *child* of u in the paper's priority recursion
// (Eq. 3: a task's priority folds in the discounted priorities of the tasks
// that depend on it).
//
// A DAG is built edge by edge, then sealed. seal() runs Kahn's algorithm
// once and packs the topological order, each node's depth to a sink and
// both adjacency directions (in insertion order) into one flat uint32
// array, releasing the per-node build lists. A job's graph never changes
// after instantiation, so the engine and the priority calculator read the
// sealed orders instead of recomputing them per iteration, and the
// adjacency they walk is contiguous. A sealed DAG rejects new edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "common/expect.hpp"

namespace mlfs {

class Dag {
 public:
  Dag() = default;
  explicit Dag(std::size_t node_count);

  std::size_t node_count() const { return node_count_; }

  /// Adds dependency edge from -> to ("to depends on from").
  /// Requires valid distinct node indices and an unsealed DAG; duplicate
  /// edges are ignored.
  void add_edge(std::size_t from, std::size_t to);

  /// Children / parents of a node, in edge-insertion order.
  std::span<const std::uint32_t> children(std::size_t node) const {
    if (!sealed_) return child_lists_[node];
    return packed_list(2 * std::size_t{node_count_}, node);
  }
  std::span<const std::uint32_t> parents(std::size_t node) const {
    if (!sealed_) return parent_lists_[node];
    return packed_list(3 * std::size_t{node_count_} + 1, node);
  }

  bool is_source(std::size_t node) const { return parents(node).empty(); }
  bool is_sink(std::size_t node) const { return children(node).empty(); }

  std::size_t edge_count() const;

  /// Computes and stores the topological order, depth_to_sink and the
  /// packed adjacency. Throws ContractViolation if the graph is cyclic or
  /// already sealed.
  void seal();
  bool sealed() const { return sealed_; }

  /// Fresh Kahn pass over the adjacency, independent of the sealed order
  /// (the invariant auditor compares the two). Throws ContractViolation if
  /// cyclic.
  std::vector<std::uint32_t> kahn_order() const;

  /// The sealed topological order (parents before children). Requires
  /// sealed().
  std::span<const std::uint32_t> topological_order() const {
    MLFS_EXPECT(sealed_);
    return {packed_.data(), node_count_};
  }

  /// Reverse of topological_order() — children before parents; the order
  /// in which Eq. 3's bottom-up priority recursion must visit nodes.
  auto reverse_topological_order() const {
    return std::views::reverse(topological_order());
  }

  /// Longest path length (in nodes) from each node to any sink, i.e. the
  /// critical-path depth used by Graphene-style troublesome scoring and
  /// the per-task deadlines of Eq. 4. Requires sealed().
  std::span<const std::uint32_t> depth_to_sink() const {
    MLFS_EXPECT(sealed_);
    return {packed_.data() + node_count_, node_count_};
  }

  /// Layer index per node: sources are layer 0, otherwise 1 + max(parents).
  /// Requires sealed().
  std::vector<std::size_t> layers() const;

  /// Number of (transitive) descendants per node. Requires sealed().
  std::vector<std::size_t> descendant_counts() const;

  bool is_acyclic() const;

 private:
  // Sealed layout of packed_ for n nodes and e edges:
  //   [0, n) order | [n, 2n) depth | [2n, 3n+1) child offsets |
  //   [3n+1, 4n+2) parent offsets | children (e) | parents (e)
  // Offsets are absolute indices into packed_; a node's list runs from its
  // offset to the next node's.
  std::span<const std::uint32_t> packed_list(std::size_t offsets_at, std::size_t node) const {
    const std::uint32_t* offsets = packed_.data() + offsets_at;
    return {packed_.data() + offsets[node], offsets[node + 1] - offsets[node]};
  }

  /// Kahn's algorithm, allocation-free: writes the order into `order`,
  /// keeping the pending frontier as a stack that grows down from the end
  /// of the same array (output and frontier together never exceed n), and
  /// uses `indegree` as scratch. Both hold node_count() entries. Returns
  /// false if the graph has a cycle.
  bool kahn(std::span<std::uint32_t> order, std::span<std::uint32_t> indegree) const;

  std::uint32_t node_count_ = 0;
  bool sealed_ = false;
  /// Build-time adjacency; released by seal().
  std::vector<std::vector<std::uint32_t>> child_lists_;
  std::vector<std::vector<std::uint32_t>> parent_lists_;
  std::vector<std::uint32_t> packed_;
};

}  // namespace mlfs
