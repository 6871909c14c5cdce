// Fixed-root maximum spanning arborescence — the classic single-root form
// of the Chu-Liu/Edmonds problem, built on the library's branching solvers
// (algo/arborescence.hpp); only tests call it. Every node must be reachable
// from the root through the arc set or the call reports infeasibility.
#pragma once

#include <optional>

#include "algo/arborescence.hpp"

namespace rid::algo {

struct Arborescence {
  /// parent[v] = predecessor on the arborescence; kInvalidNode for root.
  std::vector<graph::NodeId> parent;
  /// parent_arc[v] = index into the input arcs; kInvalidEdge for root.
  std::vector<std::uint32_t> parent_arc;
  double total_weight = 0.0;
};

/// Maximum-weight spanning arborescence rooted at `root`, or std::nullopt
/// if some node cannot be reached from the root. O(E log V).
std::optional<Arborescence> max_arborescence(graph::NodeId num_nodes,
                                             std::span<const WeightedArc> arcs,
                                             graph::NodeId root);

/// Minimum-weight variant (weights negated internally).
std::optional<Arborescence> min_arborescence(graph::NodeId num_nodes,
                                             std::span<const WeightedArc> arcs,
                                             graph::NodeId root);

}  // namespace rid::algo
