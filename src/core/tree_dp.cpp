#include "core/tree_dp.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "algo/binary_transform.hpp"
#include "algo/forest.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace rid::core {

namespace {

/// DP-layer metrics series (one lookup per program; see util/metrics.hpp).
struct DpMetrics {
  util::metrics::Counter& computes =
      util::metrics::global().counter("dp.computes");
  util::metrics::Counter& k_growths =
      util::metrics::global().counter("dp.k_growths");
  util::metrics::Counter& nodes_processed =
      util::metrics::global().counter("dp.nodes_processed");
  util::metrics::Counter& cols_fresh =
      util::metrics::global().counter("dp.cols_fresh");
  util::metrics::Counter& arena_spills =
      util::metrics::global().counter("dp.arena_spills");
  util::metrics::Histogram& final_k =
      util::metrics::global().histogram("dp.final_k");
};

DpMetrics& dp_metrics() {
  static DpMetrics instance;
  return instance;
}

constexpr std::uint32_t kRowZ = 0xffffffffu;  // symbolic "zero coverage" j

/// solve_tree's first k cap; doubled while the optimum keeps hitting it.
constexpr std::uint32_t kInitialKCap = 8;

/// Default per-arena resident threshold (entries; values 8 bytes, choices
/// 4). Arenas larger than this spill to unlinked temp-file mappings instead
/// of being rejected — this used to be a hard cap.
constexpr std::size_t kDefaultResidentEntries = 120'000'000;

/// Absolute runaway guard per arena (entries), spilled or not. 2G entries is
/// a 16 GiB values arena — far beyond any tree the pipeline produces, so
/// hitting it means a pathological k cap rather than a big input.
constexpr std::size_t kAbsoluteMaxEntries = 2'000'000'000;

/// Entry gate of solve_tree_betas: rejects a solve whose armed budget is
/// already blown or whose tree exceeds the deterministic node cap, before any
/// DP memory is allocated.
void check_tree_budget(const util::BudgetScope* budget,
                       std::size_t tree_size) {
  if (!budget) return;
  budget->check();
  const std::uint32_t cap = budget->budget().max_tree_nodes;
  if (cap != 0 && tree_size > cap) {
    util::metrics::global().counter("budget.tree_cap_hits").add(1);
    throw util::BudgetExceededError(
        "work budget: tree size " + std::to_string(tree_size) +
        " exceeds max_tree_nodes " + std::to_string(cap));
  }
}

/// max_k is a quality cap on the adaptive k growth, not an error condition.
std::uint32_t effective_k_cap(const util::BudgetScope* budget,
                              std::uint32_t hard_k_cap) {
  if (budget == nullptr || budget->budget().max_k == 0) return hard_k_cap;
  return std::min(hard_k_cap, budget->budget().max_k);
}

}  // namespace

BinarizedTreeDp::BinarizedTreeDp(const CascadeTree& tree,
                                 std::uint32_t max_reach,
                                 std::size_t max_resident_entries) {
  if (max_reach == 0)
    throw std::invalid_argument("BinarizedTreeDp: max_reach must be >= 1");
  resident_cap_ = max_resident_entries == 0 ? kDefaultResidentEntries
                                            : max_resident_entries;
  util::trace::TraceSpan span("binarize");
  span.tag("nodes", static_cast<std::int64_t>(tree.size()));
  tree_ = algo::binarize_tree(tree.parent, tree.in_g, /*identity=*/1.0);
  num_real_ = static_cast<std::uint32_t>(tree.size());
  // Side-evidence factor and initiator eligibility per binarized node
  // (dummies: q = 1, never eligible).
  side_q_.assign(tree_.size(), 1.0);
  eligible_.assign(tree_.size(), true);
  for (std::size_t v = 0; v < tree_.size(); ++v) {
    if (tree_.is_dummy(static_cast<std::int32_t>(v))) {
      eligible_[v] = false;
      continue;
    }
    const graph::NodeId original = tree_.original[v];
    if (!tree.side_q.empty()) side_q_[v] = tree.side_q[original];
    if (!tree.can_initiate.empty()) eligible_[v] = tree.can_initiate[original];
  }

  const auto n = static_cast<std::int32_t>(tree_.size());
  parent_.assign(n, -1);
  for (std::int32_t v = 0; v < n; ++v) {
    if (tree_.left[v] >= 0) parent_[tree_.left[v]] = v;
    if (tree_.right[v] >= 0) parent_[tree_.right[v]] = v;
  }

  // Preorder via stack; reversed it gives children-before-parents.
  std::vector<std::int32_t> preorder;
  preorder.reserve(n);
  std::vector<std::int32_t> stack{tree_.root};
  while (!stack.empty()) {
    const std::int32_t v = stack.back();
    stack.pop_back();
    preorder.push_back(v);
    if (tree_.left[v] >= 0) stack.push_back(tree_.left[v]);
    if (tree_.right[v] >= 0) stack.push_back(tree_.right[v]);
  }
  postorder_.assign(preorder.rbegin(), preorder.rend());

  depth_.assign(n, 0);
  zrun_.assign(n, 0);
  pathprod_.resize(n);
  layout_.resize(n);
  for (const std::int32_t v : preorder) {
    if (parent_[v] < 0) {
      depth_[v] = 0;
      zrun_[v] = 0;
    } else {
      depth_[v] = depth_[parent_[v]] + 1;
      zrun_[v] = tree_.in_value[v] > 0.0 ? zrun_[parent_[v]] + 1 : 0;
    }
    const std::uint32_t reach =
        std::min({depth_[v], zrun_[v], max_reach});
    layout_[v].reach = reach;
    layout_[v].rows = reach + 2;  // row 0 + rows 1..reach + Z row
    rows_total_ += reach + 2;
    pathprod_[v].assign(reach + 1, 1.0);
    for (std::uint32_t j = 1; j <= reach; ++j)
      pathprod_[v][j] = tree_.in_value[v] * pathprod_[parent_[v]][j - 1];
  }

  // Real (non-dummy) subtree sizes drive the feasibility clamp and the row
  // widths.
  for (const std::int32_t v : postorder_) {
    layout_[v].real_count = tree_.is_dummy(v) ? 0 : 1;
    if (tree_.left[v] >= 0)
      layout_[v].real_count += layout_[tree_.left[v]].real_count;
    if (tree_.right[v] >= 0)
      layout_[v].real_count += layout_[tree_.right[v]].real_count;
  }
}

std::uint32_t BinarizedTreeDp::child_row(std::int32_t child,
                                         std::uint32_t child_j) const {
  // child_j is the symbolic distance-to-initiator for the child (kRowZ for
  // "zero coverage"); map it into the child's compact row space. Distances
  // that stay within the child's non-zero run but exceed its (depth/reach
  // capped) rows clamp to the deepest row; distances crossing a zero-g edge
  // collapse to Z.
  const std::uint32_t z_row = layout_[child].reach + 1;
  if (child_j == kRowZ || child_j > zrun_[child]) return z_row;
  return std::min(child_j, layout_[child].reach);
}

void BinarizedTreeDp::fill_columns(std::uint32_t col_lo) {
  // Columns come into use uninitialized, and almost every cell in them is
  // written by process_node before any parent (or opt_/extract) reads it.
  // The only cells read without ever being written are row 0 of ineligible
  // nodes (the eligibility skip) and every node's (row 0, k = 0) cell (an
  // initiator needs budget): both are -inf by construction and are filled
  // here, so the fill traffic is O(nodes), not O(table). The choice arena
  // needs no fill at all — it is only read at cells whose value is finite,
  // and those were written together with their choice.
  for (std::size_t v = 0; v < layout_.size(); ++v) {
    const std::uint32_t width = layout_[v].width;
    double* const row0 = values_ + layout_[v].offset;
    if (!eligible_[v]) {
      std::fill(row0 + std::min(col_lo, width), row0 + width, kNegInf);
    } else if (col_lo == 0) {
      row0[0] = kNegInf;
    }
  }
}

void BinarizedTreeDp::grow_layout(std::uint32_t cols) {
  // The runaway guard bounds rows_total_ * cols, so whether a solve is
  // rejected does not depend on the widths; the spill threshold compares the
  // entries actually allocated. Nothing mutates until both arenas exist.
  if (rows_total_ * cols > kAbsoluteMaxEntries)
    throw std::runtime_error(
        "BinarizedTreeDp: table too large (tree too deep for this k cap)");
  const auto width_at = [cols](const NodeLayout& nl) {
    return std::min(cols - 1, nl.real_count) + 1;
  };
  std::size_t entries = 0;
  for (const NodeLayout& nl : layout_)
    entries += static_cast<std::size_t>(nl.rows) * width_at(nl);
  const bool spill = entries > resident_cap_;
  auto new_values_arena =
      util::SpillableBuffer::allocate(entries * sizeof(double), spill);
  auto new_choices_arena =
      util::SpillableBuffer::allocate(entries * sizeof(Choice), spill);
  if (new_values_arena.spilled() || new_choices_arena.spilled())
    dp_metrics().arena_spills.add(1);
  double* const new_values = static_cast<double*>(new_values_arena.data());
  Choice* const new_choices = static_cast<Choice*>(new_choices_arena.data());
  // memcpy, not element copy: old rows may hold never-written cells (past a
  // node's computed k), and moving them as raw bytes keeps this a plain
  // block transfer. Only nodes whose subtree holds more than the old cap
  // widen; everything else keeps its width and moves as one block.
  const auto move = [&](std::size_t dst, std::size_t src, std::size_t n) {
    std::memcpy(new_values + dst, values_ + src, n * sizeof(double));
    std::memcpy(new_choices + dst, choices_ + src, n * sizeof(Choice));
  };
  std::size_t offset = 0;
  for (NodeLayout& nl : layout_) {
    const std::uint32_t width = width_at(nl);
    if (nl.width == width) {
      move(offset, nl.offset, static_cast<std::size_t>(nl.rows) * width);
    } else if (nl.width != 0) {  // width 0: first layout, nothing to move
      for (std::size_t r = 0; r < nl.rows; ++r)
        move(offset + r * width, nl.offset + r * nl.width, nl.width);
    }
    nl.offset = offset;
    nl.width = width;
    offset += static_cast<std::size_t>(nl.rows) * width;
  }
  values_arena_ = std::move(new_values_arena);
  choices_arena_ = std::move(new_choices_arena);
  values_ = new_values;
  choices_ = new_choices;
  fill_columns(cols_);
  cols_ = cols;
  entries_ = entries;
}

void BinarizedTreeDp::process_node(std::int32_t v, std::uint32_t k_lo,
                                   std::uint32_t k_hi, DpScratch& scratch) {
  const NodeLayout& nl = layout_[v];
  const bool dummy = tree_.is_dummy(v);
  const std::int32_t lc = tree_.left[v];
  const std::int32_t rc = tree_.right[v];
  const std::uint32_t z_row = nl.reach + 1;
  // Feasibility clamps: an exact-k value with k beyond the subtree's real
  // node count is -inf by construction, and so is any child split handing a
  // side more budget than its real count. Clamping the loops there skips
  // only provably -inf entries, so results are bit-identical to the
  // unclamped recurrence — it just stops paying O(k) per node for columns
  // that small subtrees can never fill.
  const std::uint32_t k_top = std::min(k_hi, nl.real_count);
  // A growth pass adds no column to a node whose subtree holds no more real
  // nodes than the old cap: its k loop would be empty, so skip the per-row
  // prefix rebuilds too. The next node rebuilds the scratch before use.
  if (k_lo > k_top) return;
  const std::uint32_t lcnt = lc >= 0 ? layout_[lc].real_count : 0;
  const std::uint32_t rcnt = rc >= 0 ? layout_[rc].real_count : 0;
  double* const vbase = values_ + nl.offset;
  Choice* const cbase = choices_ + nl.offset;

  for (std::uint32_t row = 0; row < nl.rows; ++row) {
    if (row == 0 && !eligible_[v]) continue;  // dummies/masked nodes
    // Contribution of v itself and the symbolic j seen by the children.
    // Non-initiators score P = 1 - (1 - treepath) * Q(v); Q = 1 recovers
    // the pure tree objective.
    double contrib;
    std::uint32_t child_j;
    if (row == 0) {
      contrib = 1.0;
      child_j = 1;
    } else if (row == z_row) {
      contrib = dummy ? 0.0 : 1.0 - side_q_[v];
      child_j = kRowZ;
    } else {
      contrib =
          dummy ? 0.0 : 1.0 - (1.0 - pathprod_[v][row]) * side_q_[v];
      child_j = row + 1;
    }

    const std::uint32_t lrow = lc >= 0 ? child_row(lc, child_j) : 0;
    const std::uint32_t rrow = rc >= 0 ? child_row(rc, child_j) : 0;
    double* const vrow = vbase + static_cast<std::size_t>(row) * nl.width;
    Choice* const crow = cbase + static_cast<std::size_t>(row) * nl.width;

    const double* lrow_p = nullptr;
    const double* l0_p = nullptr;
    const double* rrow_p = nullptr;
    const double* r0_p = nullptr;
    if (lc >= 0 && rc >= 0) {
      // Max-plus split setup: build each child's best-of-{covered,
      // as-initiator} prefix once per row; the k loop below then scans two
      // flat arrays instead of re-reading four arena cells per split.
      const NodeLayout& ll = layout_[lc];
      const NodeLayout& rl = layout_[rc];
      l0_p = values_ + ll.offset;
      lrow_p = l0_p + static_cast<std::size_t>(lrow) * ll.width;
      r0_p = values_ + rl.offset;
      rrow_p = r0_p + static_cast<std::size_t>(rrow) * rl.width;
      const std::uint32_t l_hi = std::min(lcnt, k_top);
      const std::uint32_t r_hi = std::min(rcnt, k_top);
      for (std::uint32_t a = 0; a <= l_hi; ++a)
        scratch.lbest[a] = std::max(lrow_p[a], l0_p[a]);
      for (std::uint32_t b = 0; b <= r_hi; ++b)
        scratch.rbest[b] = std::max(rrow_p[b], r0_p[b]);
    }
    const double* const lb = scratch.lbest.data();
    const double* const rb = scratch.rbest.data();

    for (std::uint32_t k = k_lo; k <= k_top; ++k) {
      if (row == 0 && k == 0) continue;  // initiator needs budget
      const std::uint32_t kk = row == 0 ? k - 1 : k;
      double best = kNegInf;
      Choice choice{};
      if (lc < 0 && rc < 0) {
        if (kk == 0) best = 0.0;
      } else if (rc < 0) {
        // Single (left) child takes the whole budget.
        if (kk <= lcnt) {
          const double covered = value(lc, lrow, kk);
          const double as_init = value(lc, 0, kk);
          best = std::max(covered, as_init);
          choice.left_budget = static_cast<std::uint16_t>(kk);
          if (as_init > covered) choice.flags |= 1;
        }
      } else {
        // -inf operands propagate through the sum, so infeasible entries
        // lose automatically; the strict > keeps the smallest winning a,
        // exactly like a direct scan of the four-cell recurrence.
        const std::uint32_t a_lo = kk > rcnt ? kk - rcnt : 0;
        const std::uint32_t a_hi = std::min(kk, lcnt);
        std::uint32_t best_a = a_lo;
        for (std::uint32_t a = a_lo; a <= a_hi; ++a) {
          const double sum = lb[a] + rb[kk - a];
          if (sum > best) {
            best = sum;
            best_a = a;
          }
        }
        if (best != kNegInf) {
          const std::uint32_t b = kk - best_a;
          choice.left_budget = static_cast<std::uint16_t>(best_a);
          if (l0_p[best_a] > lrow_p[best_a]) choice.flags |= 1;
          if (r0_p[b] > rrow_p[b]) choice.flags |= 2;
        }
      }
      // Unconditional write (contrib + -inf == -inf): every visited cell is
      // a pure function of the children, so a re-run after a mid-compute
      // budget throw cannot observe stale partial state.
      vrow[k] = contrib + best;
      crow[k] = choice;
    }
  }
}

const std::vector<double>& BinarizedTreeDp::compute(
    std::uint32_t k_max, bool force_root, const util::BudgetScope* budget) {
  RID_FAILPOINT("tree_dp.compute");
  util::trace::TraceSpan span("dp_compute");
  DpMetrics& dm = dp_metrics();
  dm.computes.add(1);
  // A root that is masked out of the candidate set cannot be forced.
  force_root_ = force_root && eligible_[tree_.root];
  std::uint32_t target_k = std::min(k_max, num_real_);
  if (target_k == 0) target_k = 1;

  // Columns <= computed_k_ are kept, not recomputed: only the new ones run
  // (the first compute also fills column 0).
  const std::uint32_t k_lo = computed_k_ == 0 ? 0 : computed_k_ + 1;
  if (target_k >= cols_) grow_layout(target_k + 1);
  const std::uint32_t fresh =
      target_k > computed_k_ ? target_k - computed_k_ : 0;
  dm.cols_fresh.add(fresh);
  span.tag("k_cap", static_cast<std::int64_t>(target_k));
  span.tag("nodes", static_cast<std::int64_t>(num_real_));
  span.tag("cols_fresh", static_cast<std::int64_t>(fresh));

  if (fresh > 0) {
    dm.nodes_processed.add(postorder_.size());
    // Each postorder node costs O(rows * k^2), so poll the budget every few
    // nodes rather than the default (coarser) checker interval.
    util::BudgetChecker checker(budget, /*interval=*/64);
    DpScratch scratch;
    scratch.lbest.resize(cols_);
    scratch.rbest.resize(cols_);
    for (const std::int32_t v : postorder_) {
      checker.tick();
      process_node(v, k_lo, target_k, scratch);
    }
    // Only on success: a throw above leaves the previously computed columns
    // still correctly advertised.
    computed_k_ = target_k;
  }

  opt_.assign(cols_, kNegInf);
  const std::int32_t root = tree_.root;
  const std::uint32_t root_z = layout_[root].reach + 1;
  for (std::uint32_t k = 1; k <= computed_k_; ++k) {
    opt_[k] = force_root_
                  ? value(root, 0, k)
                  : std::max(value(root, 0, k), value(root, root_z, k));
  }
  return opt_;
}

void BinarizedTreeDp::extract_into(std::uint32_t k,
                                   std::vector<graph::NodeId>& out,
                                   std::vector<ExtractFrame>& scratch) const {
  if (k > computed_k_ || k == 0 || opt_.empty() || opt_[k] == kNegInf)
    throw std::invalid_argument("BinarizedTreeDp::extract: bad k");
  out.clear();
  scratch.clear();

  const std::int32_t root = tree_.root;
  const std::uint32_t root_z = layout_[root].reach + 1;
  const std::uint32_t root_row =
      force_root_ || value(root, 0, k) >= value(root, root_z, k) ? 0 : root_z;
  scratch.push_back({root, root_row, k});
  while (!scratch.empty()) {
    const ExtractFrame f = scratch.back();
    scratch.pop_back();
    const NodeLayout& nl = layout_[f.node];
    const Choice choice =
        choices_[nl.offset + static_cast<std::size_t>(f.row) * nl.width + f.k];
    std::uint32_t child_j;
    std::uint32_t kk = f.k;
    if (f.row == 0) {
      out.push_back(tree_.original[f.node]);
      child_j = 1;
      kk = f.k - 1;
    } else if (f.row == nl.reach + 1) {
      child_j = kRowZ;
    } else {
      child_j = f.row + 1;
    }
    const std::int32_t lc = tree_.left[f.node];
    const std::int32_t rc = tree_.right[f.node];
    if (lc >= 0) {
      const std::uint32_t a = choice.left_budget;
      const std::uint32_t lrow =
          (choice.flags & 1) ? 0 : child_row(lc, child_j);
      scratch.push_back({lc, lrow, a});
      if (rc >= 0) {
        const std::uint32_t rrow =
            (choice.flags & 2) ? 0 : child_row(rc, child_j);
        scratch.push_back({rc, rrow, kk - a});
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<graph::NodeId> BinarizedTreeDp::extract(std::uint32_t k) const {
  std::vector<graph::NodeId> initiators;
  std::vector<ExtractFrame> scratch;
  extract_into(k, initiators, scratch);
  return initiators;
}

double evaluate_initiators(const CascadeTree& tree,
                           std::span<const graph::NodeId> initiators) {
  std::vector<bool> is_init(tree.size(), false);
  for (const graph::NodeId v : initiators) {
    if (v >= tree.size())
      throw std::out_of_range("evaluate_initiators: id out of range");
    is_init[v] = true;
  }
  // Nodes are stored parents-before-children (extraction guarantees this),
  // so a single forward pass suffices.
  std::vector<double> run(tree.size(), 0.0);   // product since nearest init
  std::vector<bool> covered(tree.size(), false);
  double total = 0.0;
  for (std::size_t v = 0; v < tree.size(); ++v) {
    const double q = tree.side_q.empty() ? 1.0 : tree.side_q[v];
    if (is_init[v]) {
      run[v] = 1.0;
      covered[v] = true;
      total += 1.0;
      continue;
    }
    const graph::NodeId p = tree.parent[v];
    if (p == graph::kInvalidNode || !covered[p]) {
      covered[v] = false;
      total += 1.0 - q;  // side evidence only (tree path contributes 0)
      continue;
    }
    covered[v] = true;
    run[v] = run[p] * tree.in_g[v];
    total += 1.0 - (1.0 - run[v]) * q;
  }
  return total;
}

void rank_initiators(const BinarizedTreeDp& dp, TreeSolution& solution) {
  solution.entry_k.assign(solution.initiators.size(), solution.k);
  if (solution.k <= 1 || solution.initiators.empty()) return;
  // Flat tree-local-id -> solution-position index (ids are < num_real()),
  // instead of a hash map probed once per extracted node.
  constexpr std::uint32_t npos = 0xffffffffu;
  std::vector<std::uint32_t> position(dp.num_real(), npos);
  for (std::size_t i = 0; i < solution.initiators.size(); ++i)
    position[solution.initiators[i]] = static_cast<std::uint32_t>(i);
  // Ascending k means the first set an initiator appears in is its minimum;
  // stop as soon as every initiator's entry budget is pinned.
  std::size_t unresolved = solution.initiators.size();
  std::vector<graph::NodeId> buf;
  std::vector<BinarizedTreeDp::ExtractFrame> scratch;
  for (std::uint32_t k = 1; k < solution.k && unresolved > 0; ++k) {
    dp.extract_into(k, buf, scratch);
    for (const graph::NodeId v : buf) {
      const std::uint32_t i = position[v];
      if (i != npos && solution.entry_k[i] > k) {
        solution.entry_k[i] = k;
        --unresolved;
      }
    }
  }
}

std::vector<TreeSolution> solve_tree_betas(const CascadeTree& tree,
                                           std::span<const double> betas,
                                           const TreeDpOptions& options) {
  if (tree.size() == 0)
    throw std::invalid_argument("solve_tree_betas: empty tree");
  std::vector<TreeSolution> out(betas.size());
  if (betas.empty()) return out;

  check_tree_budget(options.budget, tree.size());
  const std::uint32_t hard_k_cap =
      effective_k_cap(options.budget, options.hard_k_cap);
  BinarizedTreeDp dp(tree, options.max_reach);
  const std::size_t dp_threads =
      options.num_threads == 0 ? 1 : options.num_threads;
  const std::uint32_t n_real = dp.num_real();
  std::uint32_t cap = std::max<std::uint32_t>(
      1, std::min({kInitialKCap, hard_k_cap, n_real}));

  const auto objective = [](const std::vector<double>& opt, std::uint32_t k,
                            double beta) {
    return -opt[k] + static_cast<double>(k - 1) * beta;
  };
  const auto pick_k = [&](const std::vector<double>& opt, double beta) {
    std::uint32_t best_k = 1;
    if (options.greedy_stop) {
      while (best_k + 1 <= cap && objective(opt, best_k + 1, beta) <
                                      objective(opt, best_k, beta)) {
        ++best_k;
      }
    } else {
      for (std::uint32_t k = 2; k <= cap; ++k) {
        if (objective(opt, k, beta) < objective(opt, best_k, beta))
          best_k = k;
      }
    }
    return best_k;
  };

  // Grow the shared cap until no beta's optimum is clipped by it.
  while (true) {
    const std::vector<double>& opt =
        dp.compute(cap, /*force_root=*/true, options.budget);
    bool clipped = false;
    for (const double beta : betas) {
      if (pick_k(opt, beta) == cap &&
          cap < std::min<std::uint32_t>(n_real, hard_k_cap)) {
        clipped = true;
        break;
      }
    }
    if (!clipped) {
      // k selection is a cheap scan of the shared opt curve; keep it serial
      // so the final_k histogram fills in beta order. Extraction (and the
      // optional per-budget ranking walk) is the expensive part of a dense
      // sweep, so it runs as pool tasks: extract_into/rank_initiators only
      // read the finished tables, each task writes its own out[i], and every
      // task is a pure function of (tables, k) — bit-identical results for
      // any thread count.
      std::vector<std::uint32_t> ks(betas.size());
      for (std::size_t i = 0; i < betas.size(); ++i) {
        ks[i] = pick_k(opt, betas[i]);
        dp_metrics().final_k.observe(ks[i]);
      }
      util::parallel_for_each(betas.size(), dp_threads, [&](std::size_t i) {
        const std::uint32_t k = ks[i];
        if (opt[k] == kNegInf) return;  // fully masked tree: empty
        out[i].k = k;
        out[i].opt = opt[k];
        out[i].objective = objective(opt, k, betas[i]);
        std::vector<BinarizedTreeDp::ExtractFrame> scratch;
        dp.extract_into(k, out[i].initiators, scratch);
        out[i].states.reserve(k);
        for (const graph::NodeId v : out[i].initiators)
          out[i].states.push_back(tree.state[v]);
        if (options.rank_initiators) rank_initiators(dp, out[i]);
      });
      return out;
    }
    cap = std::min({cap * 2, n_real, hard_k_cap});
    dp_metrics().k_growths.add(1);
  }
}

TreeSolution solve_tree(const CascadeTree& tree, double beta,
                        const TreeDpOptions& options) {
  return std::move(solve_tree_betas(tree, {&beta, 1}, options).front());
}

}  // namespace rid::core
