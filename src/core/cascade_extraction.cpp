#include "core/cascade_extraction.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "algo/arborescence.hpp"
#include "algo/components.hpp"
#include "algo/forest.hpp"
#include "algo/union_find.hpp"
#include "core/isomit.hpp"
#include "util/errors.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace rid::core {

namespace {

/// Floor applied to an arc's weight before log() so zero-weight arcs stay
/// representable (they are only chosen when a node would otherwise be
/// uncovered).
constexpr double kScoreFloor = 1e-12;

/// Edmonds weight of a candidate arc: log w(u, v), so the maximum branching
/// maximizes L(T) = prod w(u, v).
double arc_log_weight(double weight) {
  return std::log(std::max(weight, kScoreFloor));
}

/// Caps the edge pages extraction keeps mapped on a .ridg larger than
/// kResidentCapBytes. The walk and the finish phase (state imputation,
/// g-factors, side evidence) probe the edge columns by EdgeId with no
/// cursor to drop pages behind, and one probe can map a whole page-cache
/// folio around it: on a 2.4 GiB file, probes mapped 180-230 KiB each on
/// average, not the 64 KiB of 16-page fault-around. So each probe is
/// accounted as one 2 MiB (PMD-sized) folio, and every kDropVisits =
/// 128 MiB / 2 MiB = 64 probes the per-edge pages are dropped. The walk and the component
/// tasks share one reclaimer. madvise is data-neutral, so results stay
/// bit-identical for any thread count or drop schedule.
class PageReclaimer {
 public:
  explicit PageReclaimer(const graph::ColumnarGraphView& view)
      : view_(&view) {}

  void tick(std::uint64_t probes = 1) noexcept {
    const std::uint64_t before =
        count_.fetch_add(probes, std::memory_order_relaxed);
    if ((before + probes) / kDropVisits != before / kDropVisits)
      view_->drop_all_edge_pages();
  }

 private:
  static constexpr std::uint64_t kFolioBytes = std::uint64_t{2} << 20;
  static constexpr std::uint64_t kDropVisits = kResidentCapBytes / kFolioBytes;
  const graph::ColumnarGraphView* view_;
  std::atomic<std::uint64_t> count_{0};
};

[[noreturn]] void damaged(graph::NodeId u, const std::string& what) {
  throw util::InputError("cascade extraction: node " + std::to_string(u) +
                         ": " + what + "; run scripts/check_ridg.py");
}

/// The infected subgraph split into weakly-connected components: each
/// component's members (ascending node id) and its candidate arcs
/// (component-local endpoints, ascending EdgeId) as one slice of `arcs`.
struct InfectedComponents {
  std::vector<std::vector<graph::NodeId>> members;
  std::vector<algo::WeightedArc> arcs;
  std::vector<std::size_t> arc_begin;  // members.size() + 1 offsets

  std::span<const algo::WeightedArc> arcs_of(std::size_t c) const {
    return std::span(arcs).subspan(arc_begin[c],
                                   arc_begin[c + 1] - arc_begin[c]);
  }
};

/// Steps 1-2 in one serial walk over the infected nodes' out-edges: an edge
/// between two infected nodes unites their components and is a candidate
/// arc. Nodes are visited in ascending id and each one's out-edges in
/// ascending EdgeId (CSR), so arcs come out in ascending EdgeId order, and
/// the stable counting sort by component keeps that order in every slice.
/// Labels come from algo::label_components' ascending scan, so they depend
/// only on the partition. Ranges and destinations are bounds-checked: a
/// .ridg opened without verify_data has only its header checked.
template <typename Graph>
InfectedComponents walk_infected(const Graph& diffusion,
                                 std::span<const graph::NodeId> infected,
                                 const ExtractionConfig& config,
                                 PageReclaimer* reclaimer) {
  // Each infected node's position in `infected`: the union-find and the
  // walked arcs work on these dense indices, so only this map is O(n).
  std::vector<graph::NodeId> index(diffusion.num_nodes(),
                                   graph::kInvalidNode);
  for (graph::NodeId i = 0; i < infected.size(); ++i) index[infected[i]] = i;

  algo::UnionFind uf(infected.size());
  std::vector<algo::WeightedArc> walked;
  util::BudgetChecker checker(config.budget);
  for (graph::NodeId i = 0; i < infected.size(); ++i) {
    checker.tick();
    if (reclaimer != nullptr) reclaimer->tick();  // the dst run
    const graph::EdgeIdRange edges = diffusion.out_edge_ids(infected[i]);
    if (*edges.begin() > *edges.end() || *edges.end() > diffusion.num_edges())
      damaged(infected[i], "out-edge ids run past the edges");
    for (const graph::EdgeId e : edges) {
      const graph::NodeId dst = diffusion.edge_dst(e);
      if (dst >= diffusion.num_nodes())
        damaged(infected[i],
                "edge " + std::to_string(e) + " points past the nodes");
      const graph::NodeId j = index[dst];
      if (j == graph::kInvalidNode) continue;
      uf.unite(i, j);
      walked.push_back({i, j, arc_log_weight(diffusion.edge_weight(e)), e});
      if (reclaimer != nullptr) reclaimer->tick();  // the weight
    }
  }
  const algo::Components comps = algo::label_components(
      uf, static_cast<graph::NodeId>(infected.size()), nullptr);

  // Groups hold infected indices: record each one's component-local id,
  // then store the node id in its place.
  InfectedComponents out;
  out.members = comps.groups();
  std::vector<graph::NodeId> local(infected.size());
  for (std::vector<graph::NodeId>& group : out.members) {
    for (graph::NodeId k = 0; k < group.size(); ++k) {
      local[group[k]] = k;
      group[k] = infected[group[k]];
    }
  }
  out.arc_begin.assign(std::size_t{comps.count} + 1, 0);
  for (const algo::WeightedArc& arc : walked)
    ++out.arc_begin[comps.label[arc.src] + 1];
  for (std::size_t c = 0; c < comps.count; ++c)
    out.arc_begin[c + 1] += out.arc_begin[c];
  out.arcs.resize(walked.size());
  std::vector<std::size_t> cursor(out.arc_begin.begin(),
                                  out.arc_begin.end() - 1);
  for (const algo::WeightedArc& arc : walked)
    out.arcs[cursor[comps.label[arc.src]]++] = {
        local[arc.src], local[arc.dst], arc.weight, arc.id};
  return out;
}

/// Everything downstream of the walk for one component: the Edmonds solve,
/// tree splitting, state imputation, g-factor annotation, and side
/// evidence. Only per-edge accessors are touched, so no per-component
/// graph copy is needed.
template <typename Graph>
void finish_component(const Graph& diffusion,
                      std::span<const graph::NodeId> members,
                      std::span<const algo::WeightedArc> arcs,
                      std::span<const graph::NodeState> states,
                      const ExtractionConfig& config,
                      std::vector<CascadeTree>& out_trees,
                      PageReclaimer* reclaimer) {
  util::BudgetChecker checker(config.budget);
  const algo::Branching branching = algo::max_branching_fast(
      static_cast<graph::NodeId>(members.size()), arcs, config.budget);

  // Split the branching into trees.
  const algo::RootedForest forest(branching.parent);
  const auto tree_label = forest.tree_labels();
  const std::size_t num_trees = forest.roots().size();

  std::vector<CascadeTree> trees(num_trees);
  std::vector<graph::NodeId> tree_local(members.size(), graph::kInvalidNode);
  // Assign tree-local ids in topological (parent-first) order so the root
  // always gets local index 0 and parents precede children.
  for (const graph::NodeId v : forest.topological()) {
    CascadeTree& tree = trees[tree_label[v]];
    tree_local[v] = static_cast<graph::NodeId>(tree.global.size());
    tree.global.push_back(members[v]);
    if (forest.is_root(v)) {
      tree.parent.push_back(graph::kInvalidNode);
      tree.parent_edge.push_back(graph::kInvalidEdge);
    } else {
      tree.parent.push_back(tree_local[forest.parent(v)]);
      tree.parent_edge.push_back(arcs[branching.parent_arc[v]].id);
    }
    tree.state.push_back(states[members[v]]);
  }

  for (CascadeTree& tree : trees) {
    tree.root = 0;
    tree.in_g.assign(tree.size(), 1.0);
    tree.side_q.assign(tree.size(), 1.0);
    // Impute unknown states top-down: pick the sign-consistent state given
    // the parent; unknown roots default to +1.
    for (std::size_t v = 0; v < tree.size(); ++v) {
      if (tree.state[v] != graph::NodeState::kUnknown) continue;
      if (tree.parent[v] == graph::kInvalidNode) {
        tree.state[v] = graph::NodeState::kPositive;
      } else {
        const graph::EdgeId e = tree.parent_edge[v];
        tree.state[v] = graph::propagate_state(tree.state[tree.parent[v]],
                                               diffusion.edge_sign(e));
        if (reclaimer != nullptr) reclaimer->tick();
      }
    }
    for (std::size_t v = 1; v < tree.size(); ++v) {  // the root keeps 1.0
      const graph::EdgeId e = tree.parent_edge[v];
      tree.in_g[v] = diffusion::g_factor(
          tree.state[tree.parent[v]], diffusion.edge_sign(e), tree.state[v],
          diffusion.edge_weight(e), config.likelihood);
      if (reclaimer != nullptr) reclaimer->tick(2);
    }
  }

  // Side-evidence factors (see CascadeTree::side_q): every non-tree,
  // sign-consistent in-edge from an infected node contributes (1 - g). An
  // infected source is always in its target's component, so those in-edges
  // are exactly the slice's arcs into the node, in ascending EdgeId like
  // the graph's in-edge lists: each product multiplies the same factors in
  // the same order. The source's state is as observed, the target's as
  // imputed.
  for (const algo::WeightedArc& arc : arcs) {
    checker.tick();
    CascadeTree& tree = trees[tree_label[arc.dst]];
    const graph::NodeId v = tree_local[arc.dst];
    const graph::EdgeId e = arc.id;
    if (e == tree.parent_edge[v]) continue;
    if (reclaimer != nullptr) reclaimer->tick(2);
    const graph::NodeState src_state = states[members[arc.src]];
    double g;
    if (graph::is_opinion(src_state)) {
      g = diffusion::g_factor(src_state, diffusion.edge_sign(e),
                              tree.state[v], diffusion.edge_weight(e),
                              config.likelihood);
    } else {
      // Unknown-state source: optimistic consistent interpretation.
      const double w = diffusion.edge_weight(e);
      g = diffusion.edge_sign(e) == graph::Sign::kPositive
              ? std::min(1.0, config.likelihood.alpha * w)
              : w;
    }
    tree.side_q[v] *= 1.0 - g;
  }
  for (CascadeTree& tree : trees) out_trees.push_back(std::move(tree));
}

}  // namespace

void apply_candidate_mask(CascadeForest& forest,
                          const std::vector<bool>& candidates) {
  for (CascadeTree& tree : forest.trees) {
    tree.can_initiate.assign(tree.size(), true);
    for (std::size_t v = 0; v < tree.size(); ++v) {
      const graph::NodeId global = tree.global[v];
      if (global >= candidates.size())
        throw std::invalid_argument(
            "apply_candidate_mask: candidates smaller than node universe");
      tree.can_initiate[v] = candidates[global];
    }
  }
}

namespace {

template <typename Graph>
CascadeForest extract_cascade_forest_impl(
    const Graph& diffusion, std::span<const graph::NodeState> states,
    const ExtractionConfig& config) {
  validate_snapshot(diffusion.num_nodes(), states);

  util::trace::TraceSpan span("extract_forest");
  CascadeForest out;
  const std::vector<graph::NodeId> infected = infected_nodes(states);
  if (infected.empty()) return out;

  // Only a .ridg larger than the cap can map more than the cap; below it,
  // dropping pages would only make the solves fault them straight back.
  std::optional<PageReclaimer> reclaimer;
  if constexpr (std::is_same_v<Graph, graph::ColumnarGraphView>) {
    if (diffusion.file_bytes() > kResidentCapBytes)
      reclaimer.emplace(diffusion);
  }
  PageReclaimer* const reclaim = reclaimer ? &*reclaimer : nullptr;

  const InfectedComponents comps =
      walk_infected(diffusion, infected, config, reclaim);
  out.num_components = comps.members.size();
  out.num_candidate_arcs = comps.arcs.size();

  // Per-component outputs, merged in component order after the join so the
  // forest is bit-identical for any thread count.
  std::vector<std::vector<CascadeTree>> group_trees(out.num_components);
  util::parallel_for_each(
      out.num_components, std::max<std::size_t>(1, config.num_threads),
      [&](std::size_t c) {
        RID_FAILPOINT("extract.component");
        finish_component(diffusion, comps.members[c], comps.arcs_of(c),
                         states, config, group_trees[c], reclaim);
      });
  for (std::vector<CascadeTree>& trees : group_trees)
    for (CascadeTree& tree : trees) out.trees.push_back(std::move(tree));

  span.tag("infected", static_cast<std::int64_t>(infected.size()));
  span.tag("components", static_cast<std::int64_t>(out.num_components));
  span.tag("trees", static_cast<std::int64_t>(out.trees.size()));
  span.tag("arcs", static_cast<std::int64_t>(out.num_candidate_arcs));
  util::metrics::global().counter("extract.runs").add(1);
  util::metrics::global().counter("extract.trees").add(out.trees.size());
  util::metrics::global()
      .counter("extract.candidate_arcs")
      .add(out.num_candidate_arcs);
  util::log_debug("extract_cascade_forest: ", infected.size(),
                  " infected nodes, ", out.num_components, " components, ",
                  out.trees.size(), " trees, ", out.num_candidate_arcs,
                  " candidate arcs");
  return out;
}

}  // namespace

CascadeForest extract_cascade_forest(const graph::SignedGraph& diffusion,
                                     std::span<const graph::NodeState> states,
                                     const ExtractionConfig& config) {
  return extract_cascade_forest_impl(diffusion, states, config);
}

CascadeForest extract_cascade_forest(const graph::ColumnarGraphView& diffusion,
                                     std::span<const graph::NodeState> states,
                                     const ExtractionConfig& config) {
  return extract_cascade_forest_impl(diffusion, states, config);
}

}  // namespace rid::core
