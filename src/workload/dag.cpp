#include "workload/dag.hpp"

#include <algorithm>
#include <limits>

namespace mlfs {

Dag::Dag(std::size_t node_count)
    : node_count_(static_cast<std::uint32_t>(node_count)),
      child_lists_(node_count),
      parent_lists_(node_count) {
  MLFS_EXPECT(node_count < std::numeric_limits<std::uint32_t>::max());
}

void Dag::add_edge(std::size_t from, std::size_t to) {
  MLFS_EXPECT(!sealed_);
  MLFS_EXPECT(from < node_count() && to < node_count());
  MLFS_EXPECT(from != to);
  auto& kids = child_lists_[from];
  if (std::find(kids.begin(), kids.end(), to) != kids.end()) return;
  kids.push_back(static_cast<std::uint32_t>(to));
  parent_lists_[to].push_back(static_cast<std::uint32_t>(from));
}

std::size_t Dag::edge_count() const {
  std::size_t n = 0;
  for (std::size_t u = 0; u < node_count(); ++u) n += children(u).size();
  return n;
}

bool Dag::kahn(std::span<std::uint32_t> order, std::span<std::uint32_t> indegree) const {
  const std::size_t n = node_count();
  std::size_t frontier = n;  // the frontier stack is order[frontier, n)
  for (std::size_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<std::uint32_t>(parents(v).size());
    if (indegree[v] == 0) order[--frontier] = static_cast<std::uint32_t>(v);
  }
  std::size_t done = 0;
  while (frontier < n) {
    const std::uint32_t u = order[frontier++];
    order[done++] = u;
    for (const std::uint32_t v : children(u)) {
      if (--indegree[v] == 0) order[--frontier] = v;
    }
  }
  return done == n;
}

std::vector<std::uint32_t> Dag::kahn_order() const {
  std::vector<std::uint32_t> order(node_count());
  std::vector<std::uint32_t> indegree(node_count());
  MLFS_ENSURE(kahn(order, indegree));  // otherwise there is a cycle
  return order;
}

bool Dag::is_acyclic() const {
  std::vector<std::uint32_t> order(node_count());
  std::vector<std::uint32_t> indegree(node_count());
  return kahn(order, indegree);
}

void Dag::seal() {
  MLFS_EXPECT(!sealed_);
  const std::size_t n = node_count();
  const std::size_t e = edge_count();
  packed_.assign(4 * n + 2 + 2 * e, 0);
  // The depth slots double as Kahn's in-degree scratch.
  const std::span<std::uint32_t> order(packed_.data(), n);
  const std::span<std::uint32_t> depth(packed_.data() + n, n);
  MLFS_ENSURE(kahn(order, depth));  // otherwise there is a cycle
  std::fill(depth.begin(), depth.end(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    for (const std::uint32_t c : child_lists_[*it]) depth[*it] = std::max(depth[*it], depth[c] + 1);
  }
  // Both adjacency directions, each node's list contiguous and in
  // insertion order.
  auto pack = [this, n](std::size_t offsets_at, std::size_t lists_at,
                        const std::vector<std::vector<std::uint32_t>>& lists) {
    auto next = static_cast<std::uint32_t>(lists_at);
    for (std::size_t u = 0; u < n; ++u) {
      packed_[offsets_at + u] = next;
      std::copy(lists[u].begin(), lists[u].end(), packed_.begin() + next);
      next += static_cast<std::uint32_t>(lists[u].size());
    }
    packed_[offsets_at + n] = next;
  };
  pack(2 * n, 4 * n + 2, child_lists_);
  pack(3 * n + 1, 4 * n + 2 + e, parent_lists_);
  child_lists_ = {};
  parent_lists_ = {};
  sealed_ = true;
}

std::vector<std::size_t> Dag::layers() const {
  std::vector<std::size_t> layer(node_count(), 0);
  for (const std::size_t u : topological_order()) {
    for (const std::size_t p : parents(u)) layer[u] = std::max(layer[u], layer[p] + 1);
  }
  return layer;
}

std::vector<std::size_t> Dag::descendant_counts() const {
  // Bitset-free transitive closure via reverse topological merge of child
  // sets; jobs have at most a few hundred tasks so a per-node sorted vector
  // of descendants is fine.
  std::vector<std::vector<std::size_t>> desc(node_count());
  std::vector<std::size_t> counts(node_count(), 0);
  for (const std::size_t u : reverse_topological_order()) {
    std::vector<std::size_t> acc;
    for (const std::size_t c : children(u)) {
      acc.push_back(c);
      acc.insert(acc.end(), desc[c].begin(), desc[c].end());
    }
    std::sort(acc.begin(), acc.end());
    acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
    counts[u] = acc.size();
    desc[u] = std::move(acc);
  }
  return counts;
}

}  // namespace mlfs
