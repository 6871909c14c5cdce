// Infected cascade forest extraction (paper Section III-E1/E2,
// Algorithms 2-4).
//
// Pipeline per snapshot:
//  1. restrict the diffusion network to the infected nodes;
//  2. split into weakly-connected components (Definition 6);
//  3. per component, extract the maximum-likelihood spanning cascade forest
//     with Chu-Liu/Edmonds over log arc weights (L(T) = prod w(u, v));
//  4. each root of the resulting branching starts one CascadeTree; unknown
//     ('?') states are imputed top-down along tree edges; each tree edge is
//     annotated with its g-factor and each node with its side evidence,
//     which is what the DP consumes.
#pragma once

#include <span>
#include <vector>

#include "diffusion/likelihood.hpp"
#include "graph/columnar.hpp"
#include "graph/signed_graph.hpp"
#include "util/work_budget.hpp"

namespace rid::core {

/// One extracted cascade tree over diffusion-network nodes.
struct CascadeTree {
  /// tree-local index -> diffusion-network node id.
  std::vector<graph::NodeId> global;
  /// tree-local parent index, or kInvalidNode for the root.
  std::vector<graph::NodeId> parent;
  /// Diffusion EdgeId realized by the parent link (kInvalidEdge for root).
  std::vector<graph::EdgeId> parent_edge;
  /// g-factor of the parent link under the observed/imputed states
  /// (1.0 for the root). Zero marks a sign-inconsistent activation link.
  std::vector<double> in_g;
  /// Observed opinion per node; '?' states already imputed to +1/-1.
  std::vector<graph::NodeState> state;
  /// Side-evidence factor Q(u) = prod over *non-tree* sign-consistent
  /// infected in-edges of (1 - g). The paper's P(u, s(u)|I, S) ranges over
  /// all influence paths; inside a merged infected component every
  /// consistent infected in-neighbor terminates such a path, so the DP
  /// scores P(u | nearest initiator at distance j)
  ///   = 1 - (1 - pathprod(u, j)) * Q(u),
  /// a tractable one-hop lower bound on the full path-union formula.
  /// Q = 1 (no side evidence) recovers the pure tree objective.
  std::vector<double> side_q;
  /// Optional per-node initiator eligibility (empty = everyone eligible).
  /// Ineligible nodes are treated like binarization dummies by the DP: they
  /// still carry likelihood but can never be selected. Used for
  /// candidate-restricted detection (e.g. only users active in an earlier
  /// snapshot can be initiators).
  std::vector<bool> can_initiate;
  /// tree-local root index (always 0 by construction).
  graph::NodeId root = 0;

  std::size_t size() const noexcept { return global.size(); }
};

/// Extraction on a .ridg larger than this drops the file's edge pages every
/// time its probes could have mapped this much, holding the resident set
/// near the cap whatever the file size. A smaller file cannot exceed it, so
/// its pages stay mapped.
inline constexpr std::size_t kResidentCapBytes = std::size_t{128} << 20;

/// Candidate arcs are scored by their raw diffusion weight, the paper's
/// L(T) = prod w(u, v), and every tree's side_q is filled (set it to 1 for
/// the pure tree-path objective).
struct ExtractionConfig {
  diffusion::LikelihoodConfig likelihood;
  /// Optional armed work budget (non-owning; must outlive the call). The
  /// deadline/cancellation is polled from the walk, Edmonds, and
  /// side-evidence loops; overruns throw util::BudgetExceededError. Note
  /// that extraction is the base of the degradation ladder (even RID-Tree
  /// needs the forest), so run_rid leaves this null and budgets only the
  /// superlinear per-tree solves — set it when calling
  /// extract_cascade_forest directly and a hard stop is preferable to any
  /// answer. Null = unbudgeted.
  const util::BudgetScope* budget = nullptr;
  /// Worker threads for per-component extraction: each weakly-connected
  /// component's Edmonds run, tree assembly and side evidence is independent
  /// of the others, so components run as thread-pool tasks and the resulting
  /// trees are merged back in component order. Results are bit-identical for
  /// any value. 0 or 1 = serial when calling extract_cascade_forest
  /// directly; run_rid substitutes RidConfig::num_threads.
  std::size_t num_threads = 0;
};

struct CascadeForest {
  std::vector<CascadeTree> trees;
  std::size_t num_components = 0;
  std::size_t num_candidate_arcs = 0;
};

/// Runs steps 1-4 for the whole snapshot. The two overloads share one
/// template body and produce bit-identical forests for the same graph
/// content. One serial walk over the infected nodes' out-edges finds the
/// components and their candidate arcs; each component's solve, tree
/// assembly and side evidence then read its slice of those arcs and the
/// per-edge accessors — no per-component graph copies, and nothing past
/// the infected nodes' out-edges is read.
CascadeForest extract_cascade_forest(const graph::SignedGraph& diffusion,
                                     std::span<const graph::NodeState> states,
                                     const ExtractionConfig& config);
CascadeForest extract_cascade_forest(const graph::ColumnarGraphView& diffusion,
                                     std::span<const graph::NodeState> states,
                                     const ExtractionConfig& config);

/// Restricts initiator eligibility across the forest: candidates[v] must be
/// true for diffusion-network node v to remain selectable. Throws
/// std::invalid_argument on a size mismatch with the forest's node universe.
void apply_candidate_mask(CascadeForest& forest,
                          const std::vector<bool>& candidates);

}  // namespace rid::core
