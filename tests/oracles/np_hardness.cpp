#include "oracles/np_hardness.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/subgraph.hpp"
#include "oracles/scc.hpp"

namespace rid::core {

std::size_t min_set_cover_brute_force(const SetCoverInstance& instance) {
  const std::size_t m = instance.subsets.size();
  if (m > 24)
    throw std::invalid_argument("min_set_cover_brute_force: too many subsets");
  // Precompute bitmasks of covered elements (num_elements <= 64 assumed).
  if (instance.num_elements > 64)
    throw std::invalid_argument("min_set_cover_brute_force: too many elements");
  const std::uint64_t all =
      instance.num_elements == 64
          ? ~0ULL
          : ((1ULL << instance.num_elements) - 1);
  std::vector<std::uint64_t> masks(m, 0);
  for (std::size_t j = 0; j < m; ++j) {
    for (const std::size_t e : instance.subsets[j]) {
      if (e >= instance.num_elements)
        throw std::out_of_range("min_set_cover_brute_force: bad element");
      masks[j] |= 1ULL << e;
    }
  }
  std::size_t best = SIZE_MAX;
  for (std::uint64_t pick = 0; pick < (1ULL << m); ++pick) {
    std::uint64_t covered = 0;
    std::size_t count = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (pick & (1ULL << j)) {
        covered |= masks[j];
        ++count;
      }
    }
    if (covered == all) best = std::min(best, count);
  }
  return best;
}

namespace {

ReductionGraph build_impl(const SetCoverInstance& instance, bool reversed) {
  ReductionGraph out;
  out.num_elements = instance.num_elements;
  out.num_subsets = instance.subsets.size();
  const auto total = static_cast<graph::NodeId>(out.num_elements +
                                                out.num_subsets + 1);
  graph::SignedGraphBuilder builder(total);
  const double inv_n =
      out.num_elements > 0 ? 1.0 / static_cast<double>(out.num_elements) : 1.0;
  const auto add = [&](graph::NodeId a, graph::NodeId b, double w) {
    if (reversed)
      builder.add_edge(b, a, graph::Sign::kPositive, w);
    else
      builder.add_edge(a, b, graph::Sign::kPositive, w);
  };
  // (1) element -> subset, weight 1, for each containment.
  for (std::size_t j = 0; j < instance.subsets.size(); ++j) {
    for (const std::size_t e : instance.subsets[j]) {
      add(out.element_node(e), out.subset_node(j), 1.0);
    }
  }
  // (2) element -> dummy, weight 1/n.
  for (std::size_t e = 0; e < out.num_elements; ++e)
    add(out.element_node(e), out.dummy_node(), inv_n);
  // (3) dummy -> subset, weight 1.
  for (std::size_t j = 0; j < out.num_subsets; ++j)
    add(out.dummy_node(), out.subset_node(j), 1.0);
  out.diffusion = builder.build();
  return out;
}

bool is_certain(const graph::SignedGraph& g, graph::EdgeId e, double alpha) {
  const double w = g.edge_weight(e);
  if (g.edge_sign(e) == graph::Sign::kPositive) return alpha * w >= 1.0;
  return w >= 1.0;
}

}  // namespace

ReductionGraph build_paper_reduction(const SetCoverInstance& instance) {
  return build_impl(instance, /*reversed=*/false);
}

ReductionGraph build_paper_reduction_reversed(
    const SetCoverInstance& instance) {
  return build_impl(instance, /*reversed=*/true);
}

std::size_t min_certain_sources(const graph::SignedGraph& diffusion,
                                double alpha) {
  const graph::SignedGraph certain = graph::filter_edges(
      diffusion, [&](graph::EdgeId e) { return is_certain(diffusion, e, alpha); });
  const algo::SccResult scc = algo::strongly_connected_components(certain);
  return algo::count_source_components(certain, scc);
}

std::size_t min_certain_sources_brute_force(
    const graph::SignedGraph& diffusion, double alpha) {
  const graph::NodeId n = diffusion.num_nodes();
  if (n > 20)
    throw std::invalid_argument("min_certain_sources_brute_force: too large");
  // Certain adjacency.
  std::vector<std::vector<graph::NodeId>> adj(n);
  for (graph::EdgeId e = 0; e < diffusion.num_edges(); ++e) {
    if (is_certain(diffusion, e, alpha))
      adj[diffusion.edge_src(e)].push_back(diffusion.edge_dst(e));
  }
  std::size_t best = SIZE_MAX;
  for (std::uint32_t pick = 0; pick < (1u << n); ++pick) {
    const auto count = static_cast<std::size_t>(__builtin_popcount(pick));
    if (count >= best) continue;
    // BFS from the picked seeds over certain links.
    std::vector<bool> reached(n, false);
    std::vector<graph::NodeId> queue;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (pick & (1u << v)) {
        reached[v] = true;
        queue.push_back(v);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const graph::NodeId w : adj[queue[head]]) {
        if (!reached[w]) {
          reached[w] = true;
          queue.push_back(w);
        }
      }
    }
    if (std::all_of(reached.begin(), reached.end(),
                    [](bool r) { return r; })) {
      best = count;
    }
  }
  return best;
}

}  // namespace rid::core
