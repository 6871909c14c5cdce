// Maximum-weight branchings (Chu-Liu/Edmonds).
//
// This is the engine behind the paper's infected-cascade-tree extraction
// (Algorithms 2-4): every node that has at least one candidate in-arc must
// select exactly one, cycles are contracted and re-resolved, and the selected
// arcs maximize the total weight. Callers pass log-probabilities as weights
// to maximize the cascade-tree likelihood L(T) = prod w(u, v).
//
// Two interchangeable solvers are provided:
//  * max_branching_simple — recursive contraction, O(V·E) worst case; a
//    direct transcription of the paper's MWSG + Contract-Circles loop.
//  * max_branching_fast   — Tarjan-style with lazy-add skew heaps and a
//    rollback union-find, O(E log V); reconstruction unwinds contractions.
// Property tests assert both produce identical total weights.
//
// Coverage semantics: maximizing coverage takes priority over weight — a
// node with an available in-arc is left as a root only when every assignment
// covering it would create a cycle. (Internally: a virtual root arc of very
// negative weight per node.) This matches the paper, where only true
// diffusion sources should surface as tree roots.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "util/work_budget.hpp"

namespace rid::algo {

struct WeightedArc {
  graph::NodeId src = 0;
  graph::NodeId dst = 0;
  double weight = 0.0;
  /// Caller-defined tag (e.g. EdgeId in the source graph); preserved in the
  /// result so selections can be mapped back.
  std::uint32_t id = 0;
};

struct Branching {
  /// parent[v] = selected predecessor, or kInvalidNode if v is a root.
  std::vector<graph::NodeId> parent;
  /// parent_arc[v] = index into the input arc span, or kInvalidEdge.
  std::vector<std::uint32_t> parent_arc;
  /// Sum of selected arc weights.
  double total_weight = 0.0;
  std::size_t num_roots = 0;
};

/// Recursive-contraction Edmonds (reference implementation). When `budget`
/// is non-null its deadline/cancellation is polled from the contraction
/// loops (amortized); overruns throw util::BudgetExceededError.
Branching max_branching_simple(graph::NodeId num_nodes,
                               std::span<const WeightedArc> arcs,
                               const util::BudgetScope* budget = nullptr);

/// Skew-heap Edmonds (production implementation). Same budget contract as
/// max_branching_simple.
Branching max_branching_fast(graph::NodeId num_nodes,
                             std::span<const WeightedArc> arcs,
                             const util::BudgetScope* budget = nullptr);

}  // namespace rid::algo
