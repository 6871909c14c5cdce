// k-ISOMIT-BT dynamic program (paper Section III-D) and the beta-penalized
// initiator selection built on it (Section III-E3).
//
// Objective. For a cascade tree T with observed states, an initiator set I
// (with assigned states equal to the observed ones) scores
//     OPT(T, I) = sum_{u in T} P(u, s(u) | I)
// where P(u) = 1 if u in I, and otherwise the product of per-link g-factors
// along the path from u's nearest ancestor in I (0 if no ancestor is in I or
// the path crosses a sign-inconsistent link under the default likelihood
// config). This follows the paper's recursive OPT, which accumulates
// P(u, s(u) | I, S) node by node; since all per-link g <= 1, the nearest
// ancestor initiator dominates any farther one.
//
// The DP runs on the Figure-3 binarized tree. State per node u:
//   row 0         — u is an initiator (contribution 1; k budget spent);
//   row j >= 1    — nearest initiator is the ancestor j levels up
//                   (contribution = product of in_g over those j edges);
//   row Z         — that product is 0 (an inconsistent link intervenes), so
//                   contribution is 0 regardless of distance. Because g <= 1
//                   and a zero g annihilates all longer paths, rows with j
//                   beyond the first zero edge collapse into Z, keeping the
//                   table small on trees with many inconsistent links.
// Budgets are exact-k (value -inf when k initiators cannot be placed), so
// the extracted set size always equals the k being scored.
//
// Dummy (binarization) nodes contribute nothing, cannot be initiators, and
// carry pass-through edges with g = 1 — the equivalence with the direct
// general-tree DP (the tests/oracles/general_tree_dp.hpp oracle) is
// property-tested.
//
// Storage (see DESIGN.md §10). Value and choice tables live in two flat
// arenas indexed through NodeLayout::offset, where each node's rows are
// min(cap, real_count) + 1 columns wide: an exact-k value past the subtree's
// real node count is -inf and never read. When the adaptive k cap grows the
// arenas are laid out again and every computed column is moved, never
// recomputed; only nodes whose subtree exceeds the old cap widen. One serial
// postorder pass computes the new columns; every node's arithmetic depends
// only on its children's finished tables, so growing the cap step by step is
// bit-identical to one compute at the final cap. Parallelism lives one level
// up: run_rid solves independent trees concurrently.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "algo/binary_transform.hpp"
#include "core/cascade_extraction.hpp"
#include "util/mmap_buffer.hpp"
#include "util/work_budget.hpp"

namespace rid::core {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// solve_tree's options. The adaptive k cap starts at 8 and doubles while
/// the optimum keeps hitting it, and the tree root is always an initiator
/// (the paper counts "(k-1) extra initiators besides the original root").
struct TreeDpOptions {
  /// Cap on the per-node distance rows. Distances beyond the cap reuse the
  /// capped row's path product (exact for saturated g = 1 chains, a tight
  /// overestimate for decayed ones) unless a zero-g edge intervenes, which
  /// still collapses to the Z row. Bounds table memory on deep trees.
  std::uint32_t max_reach = 48;
  /// Absolute cap on k per tree (safety valve for pathological trees).
  std::uint32_t hard_k_cap = 256;
  /// Paper stopping rule: grow k from 1 and stop at the first k whose
  /// successor does not improve the penalized objective. When false, the
  /// global minimum over all computed k is taken.
  bool greedy_stop = true;
  /// Fill TreeSolution::entry_k (see rank_initiators); costs one extra
  /// extraction pass per budget up to the selected k.
  bool rank_initiators = false;
  /// Optional armed work budget (non-owning; must outlive the solve). The
  /// solve checks it on entry and from the DP's per-node loop, throwing
  /// util::BudgetExceededError on deadline/cancellation and when the tree
  /// exceeds budget->budget().max_tree_nodes; max_k additionally caps the
  /// adaptive k growth (a quality cap, not an error). Null = unbudgeted.
  const util::BudgetScope* budget = nullptr;
  /// Worker threads for solve_tree_betas' per-beta extraction (each beta's
  /// initiator walk is a pool task). The DP itself is one serial pass, and a
  /// single-beta solve never reads this. 0 = inherit — run_rid_betas
  /// substitutes this tree's share of RidConfig::num_threads; direct callers
  /// get serial. Results are bit-identical for any value.
  std::size_t num_threads = 0;
};

/// Solution for one cascade tree.
struct TreeSolution {
  std::uint32_t k = 0;          // number of initiators selected
  double opt = 0.0;             // OPT value for that k
  double objective = 0.0;       // -opt + (k-1)*beta
  /// Tree-local indices of the selected initiators (root always included).
  std::vector<graph::NodeId> initiators;
  /// Inferred initial states, aligned with `initiators` (== observed).
  std::vector<graph::NodeState> states;
  /// Entry budget of each initiator: the smallest k' at which the node is
  /// part of the optimal exact-k' set (filled by rank_initiators; 0 until
  /// then). Lower entry = more fundamental detection.
  std::vector<std::uint32_t> entry_k;
};

/// Exact DP over the binarized tree: opt[k] for k = 1..k_max (index 0
/// unused, set to -inf). Values are exact-k. Value/choice arenas of more
/// than `max_resident_entries` entries each (0 = 120M, the former hard cap)
/// move from the heap into mappings of unlinked temp files
/// (util::SpillableBuffer), letting deep ~100k-node trees exceed what RAM
/// alone would allow; each spill bumps the `dp.arena_spills` counter.
/// Spilling never changes results, only where the bytes live.
class BinarizedTreeDp {
 public:
  explicit BinarizedTreeDp(const CascadeTree& tree,
                           std::uint32_t max_reach = 48,
                           std::size_t max_resident_entries = 0);

  /// Number of real (non-dummy) nodes == tree.size().
  std::uint32_t num_real() const noexcept { return num_real_; }

  /// Computes the table for budgets up to k_max (clamped to num_real()).
  /// Returns opt indexed by k (size >= k_max+1, [0] = -inf). With
  /// `force_root` (what solve_tree passes) the root is required to be an
  /// initiator; without it the DP may leave the root uncovered if an
  /// interior initiator explains the tree better. A non-null
  /// `budget` is polled every 64 DP nodes; overruns throw
  /// util::BudgetExceededError mid-computation and advertise no new column.
  /// A second call with a larger k_max extends the existing tables (columns
  /// <= the old cap are moved into the wider layout, not recomputed), with
  /// results bit-identical to one call at the larger k_max.
  const std::vector<double>& compute(std::uint32_t k_max,
                                     bool force_root = true,
                                     const util::BudgetScope* budget = nullptr);

  /// Tree-local initiator indices of the optimal exact-k solution.
  /// Requires compute(k_max >= k) first and opt[k] > -inf.
  std::vector<graph::NodeId> extract(std::uint32_t k) const;

  /// Stack frame of the choice-table walk (public so callers can hold the
  /// reusable scratch buffer for extract_into).
  struct ExtractFrame {
    std::int32_t node;
    std::uint32_t row;
    std::uint32_t k;
  };

  /// Allocation-reusing extract: clears `out` and fills it with the sorted
  /// tree-local initiator indices (see extract). `scratch` holds the walk
  /// stack between calls.
  void extract_into(std::uint32_t k, std::vector<graph::NodeId>& out,
                    std::vector<ExtractFrame>& scratch) const;

  /// Largest k whose column is currently computed (0 before compute()).
  std::uint32_t computed_k() const noexcept { return computed_k_; }

  /// Entries per arena (values and choices alike): the sum over nodes of
  /// rows * (min(cap, real_count) + 1) for the widest cap laid out so far.
  std::size_t table_entries() const noexcept { return entries_; }

 private:
  struct NodeLayout {
    std::uint32_t rows = 0;       // 1 (initiator) + R + 1 (Z row)
    std::uint32_t reach = 0;      // R = min(depth, run of non-zero in_g)
    std::size_t offset = 0;       // into values_/choices_ (rows * width)
    std::uint32_t real_count = 0; // real nodes in subtree (incl. self)
    std::uint32_t width = 0;      // columns per row: min(cap, real_count) + 1
  };
  /// Deliberately without default member initializers: the choice arena is
  /// allocated uninitialized (SpillableBuffer) and only cells the DP writes
  /// are ever read back. Use Choice{} for a zeroed value.
  struct Choice {
    std::uint16_t left_budget;
    std::uint8_t flags;  // bit0: left child initiator; bit1: right child
  };
  double value(std::int32_t node, std::uint32_t row, std::uint32_t k) const {
    const NodeLayout& nl = layout_[node];
    return values_[nl.offset + static_cast<std::size_t>(row) * nl.width + k];
  }
  /// Maps a symbolic distance-to-initiator onto the child's compact rows.
  std::uint32_t child_row(std::int32_t child, std::uint32_t child_j) const;

  /// Lays the arenas out again for `cols` columns (cols > cols_): node v's
  /// rows become min(cols - 1, real_count) + 1 wide, every cell of the old
  /// layout moves to the same (row, k) in new buffers, and fill_columns
  /// initializes the widened columns. A node whose width is unchanged moves
  /// as one block; a widened node moves row by row.
  void grow_layout(std::uint32_t cols);
  /// Writes the cells of columns >= col_lo that process_node never writes
  /// but its readers do: row 0 of ineligible nodes and every (row 0, k = 0)
  /// cell, all -inf.
  void fill_columns(std::uint32_t col_lo);
  /// Scratch for process_node's max-plus split: each child's
  /// best-of-{covered, as-initiator} prefix, built once per (node, row) and
  /// scanned by every k. One instance per compute, sized to cols_.
  struct DpScratch {
    std::vector<double> lbest;
    std::vector<double> rbest;
  };

  /// DP transition for one node over columns [k_lo, min(k_hi, feasible)].
  /// Writes only into v's arena block; reads only the children's blocks.
  void process_node(std::int32_t v, std::uint32_t k_lo, std::uint32_t k_hi,
                    DpScratch& scratch);

  algo::BinarizedTree tree_;
  std::vector<double> side_q_;           // per binarized node (1 for dummies)
  std::vector<bool> eligible_;           // initiator eligibility per node
  std::vector<std::int32_t> parent_;     // binarized parent indices
  std::vector<std::uint32_t> depth_;
  std::vector<std::uint32_t> zrun_;      // consecutive non-zero in_g above
  std::vector<std::vector<double>> pathprod_;  // per node, j=1..reach
  std::vector<NodeLayout> layout_;
  std::vector<std::int32_t> postorder_;
  std::uint32_t num_real_ = 0;

  std::size_t rows_total_ = 0;    // sum of NodeLayout::rows over all nodes
  std::size_t entries_ = 0;       // sum of rows * width: entries per arena
  std::uint32_t cols_ = 0;        // columns laid out (the root's row width)
  std::uint32_t computed_k_ = 0;  // columns 1..computed_k_ are valid
  bool force_root_ = true;
  /// Flat arenas for every node's value/choice rows, addressed via
  /// NodeLayout::offset and NodeLayout::width (replaces the seed's per-node
  /// heap vectors). values_ is retained across incremental growth — a
  /// parent's new columns read its children's old ones — which is the memory
  /// cost of never recomputing. Allocated uninitialized: process_node writes
  /// almost every cell before it is read, and fill_columns the rest. Arenas
  /// above the resident threshold live in mappings of unlinked temp files
  /// (SpillableBuffer), so the kernel can page cold table regions out
  /// instead of OOM-killing; values_/choices_ are raw views into the active
  /// arena storage.
  std::size_t resident_cap_ = 0;  // entries per arena before spilling
  util::SpillableBuffer values_arena_;
  util::SpillableBuffer choices_arena_;
  double* values_ = nullptr;
  Choice* choices_ = nullptr;
  std::vector<double> opt_;
};

/// Fills solution.entry_k with the smallest k' (<= solution.k) at which each
/// initiator first appears in the optimal exact-k' set, re-extracting from
/// the solver's table with a flat position index and reused buffers; stops
/// early once every initiator's entry budget is known. Initiators absent
/// from every smaller set get entry_k == solution.k. Requires `dp` to have
/// computed at least solution.k budgets (solve_tree guarantees it).
void rank_initiators(const BinarizedTreeDp& dp, TreeSolution& solution);

/// Full per-tree solve: adaptive k growth + beta-penalized selection.
TreeSolution solve_tree(const CascadeTree& tree, double beta,
                        const TreeDpOptions& options);

/// Solves one tree for several beta values while computing the DP table
/// only once (the opt curve is beta-independent; only the k selection and
/// extraction differ). Equivalent to calling solve_tree per beta (solve_tree
/// is this with one beta), but this is what makes dense Figure-5/6 sweeps
/// cheap. Per-beta extraction (and rank_initiators, when enabled) runs as
/// thread-pool tasks under options.num_threads — read-only walks of the
/// shared tables, so results are bit-identical for any thread count.
/// Results align with `betas`.
std::vector<TreeSolution> solve_tree_betas(const CascadeTree& tree,
                                           std::span<const double> betas,
                                           const TreeDpOptions& options);

/// Scores an explicit initiator set on a tree (independent of the DP; used
/// for cross-validation in tests). `initiators` holds tree-local indices.
double evaluate_initiators(const CascadeTree& tree,
                           std::span<const graph::NodeId> initiators);

}  // namespace rid::core
