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
#include "core/isomit.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/mmap_buffer.hpp"
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

/// The finish phase (state imputation, g-factors, side evidence) looks
/// arcs up by global EdgeId, so on the columnar backend its page faults
/// land randomly across the edge columns and never fall behind a sweep
/// cursor — and the kernel's fault-around maps up to 16 surrounding
/// page-cache pages (~64 KiB) per probe, so unchecked lookups accumulate
/// to O(file) resident set. Under the streamed plan, component tasks share
/// one reclaimer and tick it once per column probe; every kDropVisits
/// probes the per-edge pages are dropped, capping the phase's resident set
/// near kResidentCapBytes regardless of file size. madvise is data-neutral,
/// so results stay bit-identical for any thread count or drop schedule.
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
  static constexpr std::uint64_t kFaultAroundBytes = std::uint64_t{64} << 10;
  static constexpr std::uint64_t kDropVisits =
      kResidentCapBytes / kFaultAroundBytes;
  const graph::ColumnarGraphView* view_;
  std::atomic<std::uint64_t> count_{0};
};

/// Component discovery per backend: the columnar view streams the edge
/// array in budgeted blocks, the in-RAM graph walks per-node adjacency.
/// Both yield the same partition, hence the same labels.
algo::Components infected_components(const graph::SignedGraph& diffusion,
                                     std::span<const graph::NodeId> infected,
                                     const ExtractionConfig&) {
  return algo::weakly_connected_components(diffusion, infected);
}

algo::Components infected_components(const graph::ColumnarGraphView& diffusion,
                                     std::span<const graph::NodeId> infected,
                                     const ExtractionConfig& config) {
  return algo::weakly_connected_components(diffusion, infected, config.budget);
}

/// Streamed-gather window sizes (matching algo/components' sweep): budget
/// polls every kGatherBlock edges, pages dropped behind the cursor every
/// kDropStride edges.
constexpr graph::EdgeId kGatherBlock = 1u << 16;
constexpr graph::EdgeId kDropStride = 1u << 22;

/// Spill the arc arena to an unlinked temp-file mapping above this size so
/// huge candidate sets stay kernel-reclaimable instead of OOM-ing.
constexpr std::size_t kArcSpillBytes = std::size_t{64} << 20;

/// All components' candidate arcs in one allocation, sliced per component.
/// Arc order within a slice equals the copy path's (members ascending ×
/// out-edges ascending = ascending global EdgeId restricted to the
/// component), which is what keeps the two gather modes bit-identical.
struct ArcArena {
  util::SpillableBuffer storage;
  std::vector<std::uint64_t> offsets;  // per component, count+1 entries

  std::span<const algo::WeightedArc> slice(std::size_t gi) const {
    const auto* base = static_cast<const algo::WeightedArc*>(storage.data());
    return {base + offsets[gi],
            static_cast<std::size_t>(offsets[gi + 1] - offsets[gi])};
  }
};

/// Two ascending edge-window sweeps over the columnar view: count arcs per
/// component, then scatter them into the arena. An edge is a candidate arc
/// iff both endpoints are infected, in which case they share a component
/// (anything else would have merged the components), so the component label
/// of the source indexes the slice.
ArcArena gather_arcs_streamed(const graph::ColumnarGraphView& diffusion,
                              const algo::Components& comps,
                              std::span<const graph::NodeId> to_local,
                              std::size_t num_groups,
                              const ExtractionConfig& config) {
  ArcArena arena;
  arena.offsets.assign(num_groups + 1, 0);
  const auto num_edges = static_cast<graph::EdgeId>(diffusion.num_edges());

  graph::EdgeId drop_from = 0;
  for (graph::EdgeId lo = 0; lo < num_edges; lo += kGatherBlock) {
    const graph::EdgeId hi =
        std::min<graph::EdgeId>(num_edges, lo + kGatherBlock);
    const graph::EdgeWindow w = diffusion.edge_range(lo, hi);
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (to_local[w.srcs[i]] == graph::kInvalidNode ||
          to_local[w.dsts[i]] == graph::kInvalidNode)
        continue;
      ++arena.offsets[comps.label[w.srcs[i]] + 1];
    }
    if (config.budget != nullptr) config.budget->check();
    if (hi - drop_from >= kDropStride) {
      diffusion.drop_edge_pages(drop_from, hi);
      drop_from = hi;
    }
  }
  for (std::size_t gi = 0; gi < num_groups; ++gi)
    arena.offsets[gi + 1] += arena.offsets[gi];

  const std::size_t total = arena.offsets[num_groups];
  const std::size_t bytes = total * sizeof(algo::WeightedArc);
  arena.storage = util::SpillableBuffer::allocate(bytes,
                                                  bytes >= kArcSpillBytes);
  auto* arcs = static_cast<algo::WeightedArc*>(arena.storage.data());
  std::vector<std::uint64_t> cursor(arena.offsets.begin(),
                                    arena.offsets.end() - 1);
  drop_from = 0;
  for (graph::EdgeId lo = 0; lo < num_edges; lo += kGatherBlock) {
    const graph::EdgeId hi =
        std::min<graph::EdgeId>(num_edges, lo + kGatherBlock);
    const graph::EdgeWindow w = diffusion.edge_range(lo, hi);
    for (std::size_t i = 0; i < w.size(); ++i) {
      const graph::NodeId u = w.srcs[i];
      const graph::NodeId v = w.dsts[i];
      if (to_local[u] == graph::kInvalidNode ||
          to_local[v] == graph::kInvalidNode)
        continue;
      arcs[cursor[comps.label[u]]++] = {
          to_local[u], to_local[v], arc_log_weight(w.weights[i]),
          static_cast<graph::EdgeId>(w.first + i)};
    }
    if (config.budget != nullptr) config.budget->check();
    if (hi - drop_from >= kDropStride) {
      diffusion.drop_edge_pages(drop_from, hi);
      drop_from = hi;
    }
  }
  return arena;
}

/// Everything downstream of arc gathering for one component: the Edmonds
/// solve, tree splitting, state imputation, g-factor annotation, and side
/// evidence. Only per-edge accessors and in_edge_ids of member nodes are
/// touched, so no per-component graph copy is needed.
template <typename Graph>
void finish_component(const Graph& diffusion,
                      std::span<const graph::NodeId> members,
                      std::span<const algo::WeightedArc> arcs,
                      std::span<const graph::NodeState> states,
                      const ExtractionConfig& config,
                      util::BudgetChecker& checker,
                      std::vector<CascadeTree>& out_trees,
                      PageReclaimer* reclaimer = nullptr) {
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

    // Side-evidence factors (see CascadeTree::side_q): every non-tree,
    // sign-consistent in-edge from an infected node contributes (1 - g).
    tree.side_q.assign(tree.size(), 1.0);
    for (std::size_t v = 0; v < tree.size(); ++v) {
      checker.tick();
      const graph::NodeId gu = tree.global[v];
      for (const graph::EdgeId e : diffusion.in_edge_ids(gu)) {
        if (e == tree.parent_edge[v]) continue;
        if (reclaimer != nullptr) reclaimer->tick(3);
        const graph::NodeId src = diffusion.edge_src(e);
        const graph::NodeState src_state = states[src];
        if (!graph::is_active(src_state)) continue;
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
    }
    out_trees.push_back(std::move(tree));
  }
}

}  // namespace

ArcGather resolve_arc_gather(ArcGather requested, std::size_t mapped_bytes) {
  if (requested != ArcGather::kAuto) return requested;
  return mapped_bytes <= kResidentCapBytes ? ArcGather::kCopy
                                           : ArcGather::kStreamed;
}

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

  const algo::Components comps =
      infected_components(diffusion, infected, config);
  out.num_components = comps.count;
  const auto groups = comps.groups();

  // The in-RAM backend has no edge windows, so it always copies.
  constexpr bool is_columnar =
      std::is_same_v<Graph, graph::ColumnarGraphView>;
  bool streamed = false;
  if constexpr (is_columnar)
    streamed = resolve_arc_gather(config.arc_gather, diffusion.file_bytes()) ==
               ArcGather::kStreamed;

  // Local-index map shared by all component tasks, populated up front and
  // read-only during the tasks: component member sets are disjoint, and any
  // edge endpoint outside a component is uninfected (an infected endpoint
  // would have merged the components), so each task only ever reads its own
  // members' cells or the never-written kInvalidNode state — race-free.
  std::vector<graph::NodeId> to_local(diffusion.num_nodes(),
                                      graph::kInvalidNode);
  for (const std::vector<graph::NodeId>& members : groups)
    for (graph::NodeId i = 0; i < members.size(); ++i)
      to_local[members[i]] = i;

  // Streamed gather: one serial sweep fills every component's arc slice
  // before the per-component solves fan out.
  ArcArena arena;
  if constexpr (is_columnar) {
    if (streamed) {
      diffusion.advise_sequential();
      arena = gather_arcs_streamed(diffusion, comps, to_local, groups.size(),
                                   config);
      // The per-component solves ahead probe arcs by global EdgeId in no
      // particular order: suppress readahead/fault-around so each probe
      // maps as few pages as possible (advise_normal() after the join).
      diffusion.advise_random();
    }
  }

  // Per-component outputs, merged in component order after the join so the
  // forest is bit-identical for any thread count.
  std::vector<std::vector<CascadeTree>> group_trees(groups.size());
  std::vector<std::size_t> group_arcs(groups.size(), 0);

  // Caps the finish phase's resident set in streamed mode; see
  // PageReclaimer. Shared across component tasks, nullptr otherwise.
  std::optional<PageReclaimer> reclaimer;
  if constexpr (is_columnar) {
    if (streamed) reclaimer.emplace(diffusion);
  }

  const auto process_group = [&](std::size_t gi) {
    RID_FAILPOINT("extract.component");
    const std::vector<graph::NodeId>& members = groups[gi];
    util::BudgetChecker checker(config.budget);

    // Candidate activation arcs: every diffusion edge inside the component,
    // in ascending global EdgeId order under either gather mode.
    std::vector<algo::WeightedArc> copied;
    std::span<const algo::WeightedArc> arcs;
    if (streamed) {
      if constexpr (is_columnar) arcs = arena.slice(gi);
    } else {
      for (graph::NodeId i = 0; i < members.size(); ++i) {
        checker.tick();
        const graph::NodeId u = members[i];
        for (const graph::EdgeId e : diffusion.out_edge_ids(u)) {
          const graph::NodeId v = diffusion.edge_dst(e);
          if (to_local[v] == graph::kInvalidNode) continue;
          copied.push_back(
              {i, to_local[v], arc_log_weight(diffusion.edge_weight(e)), e});
        }
      }
      arcs = copied;
    }
    group_arcs[gi] = arcs.size();
    finish_component(diffusion, members, arcs, states, config, checker,
                     group_trees[gi],
                     reclaimer.has_value() ? &*reclaimer : nullptr);
  };

  util::parallel_for_each(groups.size(), std::max<std::size_t>(1, config.num_threads),
                          process_group);

  if constexpr (is_columnar) {
    if (streamed) diffusion.advise_normal();
  }

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    out.num_candidate_arcs += group_arcs[gi];
    for (CascadeTree& tree : group_trees[gi])
      out.trees.push_back(std::move(tree));
  }

  span.tag("infected", static_cast<std::int64_t>(infected.size()));
  span.tag("components", static_cast<std::int64_t>(out.num_components));
  span.tag("trees", static_cast<std::int64_t>(out.trees.size()));
  span.tag("arcs", static_cast<std::int64_t>(out.num_candidate_arcs));
  span.tag("gather", streamed ? "streamed" : "copy");
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
