// Weakly-connected components (paper Definition 6 / Section III-E1):
// connectivity of the directed graph with edge directions ignored.
#pragma once

#include <span>
#include <vector>

#include "algo/union_find.hpp"
#include "graph/signed_graph.hpp"

namespace rid::algo {

struct Components {
  /// label[v] = component index in [0, count), or kInvalidNode for nodes
  /// excluded from the restriction set.
  std::vector<graph::NodeId> label;
  graph::NodeId count = 0;

  /// Members of each component, grouped (ascending node ids per group).
  std::vector<std::vector<graph::NodeId>> groups() const;
};

/// Components over all nodes.
Components weakly_connected_components(const graph::SignedGraph& graph);

/// Components of the subgraph induced by `restrict_to` (edges between
/// selected nodes only). Nodes outside the set get label kInvalidNode.
Components weakly_connected_components(const graph::SignedGraph& graph,
                                       std::span<const graph::NodeId>
                                           restrict_to);

/// Labels the sets of `uf` over nodes [0, num_nodes) by ascending node scan:
/// the first node of each set takes the next label, so labels depend only
/// on the partition, never on the unite order. Nodes with `selected` false
/// get kInvalidNode (null = every node is selected).
Components label_components(UnionFind& uf, graph::NodeId num_nodes,
                            const std::vector<bool>* selected);

}  // namespace rid::algo
