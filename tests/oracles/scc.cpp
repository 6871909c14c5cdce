#include "oracles/scc.hpp"

namespace rid::algo {

SccResult strongly_connected_components(const graph::SignedGraph& graph) {
  const graph::NodeId n = graph.num_nodes();
  constexpr graph::NodeId kUnset = graph::kInvalidNode;

  SccResult out;
  out.component.assign(n, kUnset);

  std::vector<graph::NodeId> index(n, kUnset);
  std::vector<graph::NodeId> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<graph::NodeId> scc_stack;
  graph::NodeId next_index = 0;

  // Explicit DFS stack: (node, next out-neighbor offset).
  struct Frame {
    graph::NodeId node;
    std::size_t next;
  };
  std::vector<Frame> dfs;

  for (graph::NodeId start = 0; start < n; ++start) {
    if (index[start] != kUnset) continue;
    dfs.push_back({start, 0});
    index[start] = lowlink[start] = next_index++;
    scc_stack.push_back(start);
    on_stack[start] = true;

    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const graph::NodeId u = frame.node;
      const auto neighbors = graph.out_neighbors(u);
      if (frame.next < neighbors.size()) {
        const graph::NodeId v = neighbors[frame.next++];
        if (index[v] == kUnset) {
          index[v] = lowlink[v] = next_index++;
          scc_stack.push_back(v);
          on_stack[v] = true;
          dfs.push_back({v, 0});
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
      } else {
        dfs.pop_back();
        if (!dfs.empty()) {
          const graph::NodeId parent = dfs.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
        }
        if (lowlink[u] == index[u]) {
          while (true) {
            const graph::NodeId w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            out.component[w] = out.count;
            if (w == u) break;
          }
          ++out.count;
        }
      }
    }
  }
  return out;
}

std::size_t count_source_components(const graph::SignedGraph& graph,
                                    const SccResult& scc) {
  std::vector<bool> has_incoming(scc.count, false);
  for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
    const graph::NodeId cu = scc.component[graph.edge_src(e)];
    const graph::NodeId cv = scc.component[graph.edge_dst(e)];
    if (cu != cv) has_incoming[cv] = true;
  }
  std::size_t sources = 0;
  for (graph::NodeId c = 0; c < scc.count; ++c)
    if (!has_incoming[c]) ++sources;
  return sources;
}

}  // namespace rid::algo
