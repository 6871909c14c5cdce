#include "oracles/arborescence_root.hpp"

#include <stdexcept>

namespace rid::algo {

namespace {

std::optional<Arborescence> solve(graph::NodeId num_nodes,
                                  std::span<const WeightedArc> arcs,
                                  graph::NodeId root, bool maximize) {
  if (root >= num_nodes)
    throw std::out_of_range("max_arborescence: root >= num_nodes");

  // Drop arcs into the root (they can never be used) and negate weights for
  // the min variant; the branching solver's coverage-first semantics then
  // yield a spanning arborescence whenever one exists.
  std::vector<WeightedArc> filtered;
  filtered.reserve(arcs.size());
  for (const WeightedArc& a : arcs) {
    if (a.dst == root) continue;
    filtered.push_back(
        {a.src, a.dst, maximize ? a.weight : -a.weight, a.id});
  }
  const Branching branching =
      max_branching_fast(num_nodes, filtered);

  // Spanning arborescence <=> exactly one root (ours) and every other node
  // reachable from it. Coverage-maximizing branchings leave extra roots
  // exactly when reachability fails.
  if (branching.num_roots != 1 ||
      branching.parent[root] != graph::kInvalidNode) {
    return std::nullopt;
  }
  // Reachability from `root` is implied: the branching is a forest with a
  // single root, which must be `root` itself.
  Arborescence out;
  out.parent = branching.parent;
  out.parent_arc.assign(num_nodes, graph::kInvalidEdge);
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    const std::uint32_t arc = branching.parent_arc[v];
    if (arc == graph::kInvalidEdge) continue;
    // Map back to the caller's arc indexing via the preserved id? The id is
    // caller-defined; return the filtered index translated to the original
    // position instead.
    out.parent_arc[v] = arc;
    out.total_weight += maximize ? filtered[arc].weight : -filtered[arc].weight;
  }
  // Translate filtered indices back to the original span.
  std::vector<std::uint32_t> original_index;
  original_index.reserve(filtered.size());
  for (std::uint32_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].dst == root) continue;
    original_index.push_back(i);
  }
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    if (out.parent_arc[v] != graph::kInvalidEdge)
      out.parent_arc[v] = original_index[out.parent_arc[v]];
  }
  return out;
}

}  // namespace

std::optional<Arborescence> max_arborescence(graph::NodeId num_nodes,
                                             std::span<const WeightedArc> arcs,
                                             graph::NodeId root) {
  return solve(num_nodes, arcs, root, /*maximize=*/true);
}

std::optional<Arborescence> min_arborescence(graph::NodeId num_nodes,
                                             std::span<const WeightedArc> arcs,
                                             graph::NodeId root) {
  return solve(num_nodes, arcs, root, /*maximize=*/false);
}

}  // namespace rid::algo
