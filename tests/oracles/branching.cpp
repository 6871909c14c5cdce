// Implementations of the Edmonds testing aids (see branching.hpp).
#include "oracles/branching.hpp"

#include <cmath>
#include <vector>

namespace rid::algo {

bool is_valid_branching(graph::NodeId num_nodes,
                        std::span<const WeightedArc> arcs,
                        const Branching& branching) {
  if (branching.parent.size() != num_nodes ||
      branching.parent_arc.size() != num_nodes)
    return false;
  double weight = 0.0;
  std::size_t roots = 0;
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    const auto arc = branching.parent_arc[v];
    if (arc == graph::kInvalidEdge) {
      if (branching.parent[v] != graph::kInvalidNode) return false;
      ++roots;
      continue;
    }
    if (arc >= arcs.size()) return false;
    if (arcs[arc].dst != v || arcs[arc].src != branching.parent[v])
      return false;
    weight += arcs[arc].weight;
  }
  if (roots != branching.num_roots) return false;
  if (std::abs(weight - branching.total_weight) >
      1e-6 * (1.0 + std::abs(weight)))
    return false;
  // Acyclicity: follow parents with step counting.
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    graph::NodeId u = v;
    std::size_t steps = 0;
    while (u != graph::kInvalidNode) {
      u = branching.parent[u];
      if (++steps > num_nodes) return false;
    }
  }
  return true;
}

Branching max_branching_brute_force(graph::NodeId num_nodes,
                                    std::span<const WeightedArc> arcs) {
  // Enumerate, per node, which in-arc (or none) it takes.
  std::vector<std::vector<std::uint32_t>> in_arcs(num_nodes);
  for (std::uint32_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].src == arcs[i].dst) continue;
    in_arcs[arcs[i].dst].push_back(i);
  }
  std::vector<std::size_t> choice(num_nodes, 0);  // 0 = root, k>0 = arc k-1
  Branching best;
  best.parent.assign(num_nodes, graph::kInvalidNode);
  best.parent_arc.assign(num_nodes, graph::kInvalidEdge);
  best.num_roots = num_nodes;
  best.total_weight = 0.0;
  std::size_t best_covered = 0;
  bool best_initialized = false;

  while (true) {
    // Evaluate the current assignment.
    std::vector<graph::NodeId> parent(num_nodes, graph::kInvalidNode);
    std::vector<std::uint32_t> parent_arc(num_nodes, graph::kInvalidEdge);
    double weight = 0.0;
    std::size_t covered = 0;
    for (graph::NodeId v = 0; v < num_nodes; ++v) {
      if (choice[v] == 0) continue;
      const std::uint32_t arc = in_arcs[v][choice[v] - 1];
      parent[v] = arcs[arc].src;
      parent_arc[v] = arc;
      weight += arcs[arc].weight;
      ++covered;
    }
    // Acyclic?
    bool acyclic = true;
    for (graph::NodeId v = 0; v < num_nodes && acyclic; ++v) {
      graph::NodeId u = v;
      std::size_t steps = 0;
      while (u != graph::kInvalidNode) {
        u = parent[u];
        if (++steps > num_nodes) {
          acyclic = false;
          break;
        }
      }
    }
    if (acyclic) {
      const bool better =
          !best_initialized || covered > best_covered ||
          (covered == best_covered && weight > best.total_weight + 1e-12);
      if (better) {
        best.parent = parent;
        best.parent_arc = parent_arc;
        best.total_weight = weight;
        best.num_roots = num_nodes - covered;
        best_covered = covered;
        best_initialized = true;
      }
    }
    // Next assignment (mixed-radix increment).
    graph::NodeId pos = 0;
    while (pos < num_nodes) {
      if (++choice[pos] <= in_arcs[pos].size()) break;
      choice[pos] = 0;
      ++pos;
    }
    if (pos == num_nodes) break;
  }
  return best;
}

}  // namespace rid::algo
