#include "algo/components.hpp"

namespace rid::algo {

Components label_components(UnionFind& uf, graph::NodeId num_nodes,
                            const std::vector<bool>* selected) {
  Components out;
  out.label.assign(num_nodes, graph::kInvalidNode);
  std::vector<graph::NodeId> root_label(num_nodes, graph::kInvalidNode);
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    if (selected != nullptr && !(*selected)[v]) continue;
    const auto root = uf.find(v);
    if (root_label[root] == graph::kInvalidNode) root_label[root] = out.count++;
    out.label[v] = root_label[root];
  }
  return out;
}

std::vector<std::vector<graph::NodeId>> Components::groups() const {
  std::vector<std::vector<graph::NodeId>> out(count);
  for (graph::NodeId v = 0; v < label.size(); ++v) {
    if (label[v] != graph::kInvalidNode) out[label[v]].push_back(v);
  }
  return out;
}

Components weakly_connected_components(const graph::SignedGraph& graph) {
  UnionFind uf(graph.num_nodes());
  for (graph::EdgeId e = 0; e < graph.num_edges(); ++e)
    uf.unite(graph.edge_src(e), graph.edge_dst(e));
  return label_components(uf, graph.num_nodes(), nullptr);
}

Components weakly_connected_components(
    const graph::SignedGraph& graph,
    std::span<const graph::NodeId> restrict_to) {
  std::vector<bool> selected(graph.num_nodes(), false);
  for (const graph::NodeId v : restrict_to) selected[v] = true;

  UnionFind uf(graph.num_nodes());
  for (const graph::NodeId u : restrict_to) {
    for (const graph::EdgeId e : graph.out_edge_ids(u)) {
      const graph::NodeId v = graph.edge_dst(e);
      if (selected[v]) uf.unite(u, v);
    }
  }
  return label_components(uf, graph.num_nodes(), &selected);
}

}  // namespace rid::algo
