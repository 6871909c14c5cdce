// Seed serial-scratch vs current serial-incremental k-ISOMIT-BT DP on giant
// cascade trees.
//
// The "seed path" below is a faithful copy of the pre-arena BinarizedTreeDp:
// per-node heap-vector value tables freed as soon as the parent consumes
// them, a full from-scratch recompute on every adaptive k-cap doubling, and
// unclamped row/k/a loops. The "optimized path" is the current solver —
// subtree-sized arena tables, incremental k-column growth and feasibility
// clamps, in one serial postorder pass (DESIGN.md §10). Both run the same
// adaptive solve on the same trees, so the selected k, the optimum and the
// initiator set must match bit-for-bit — verified per row.
//
// Each path's time is the median of 3 solves after one untimed warm-up solve
// (1 timed solve in --smoke), so neither path pays for a cold heap.
//
// The generated trees model the paper's giant-component regime: one big
// random recursive tree with strong (g ~ 1) links plus a band of weak
// (g = 0.01) root children that forces k* >= 41 and with it at least three
// k-cap doublings (8 -> 16 -> 32 -> 64), which is what the incremental
// layer is about.
//
// Two solver configurations are raced, each row recording its own:
//   - max_reach 12, hard_k_cap 64: 2k, 10k and 50k nodes (1.5k in --smoke),
//     small enough rows for the 50k-node table;
//   - the CLI defaults (TreeDpOptions{}: max_reach 48, hard_k_cap 256):
//     2k nodes, near the Epinions giant tree's ~1.5k, in both modes, plus
//     10k nodes in full runs — what `ridnet_cli detect` actually solves.
//
// Writes a machine-readable BENCH_tree_dp.json so the perf trajectory has a
// DP datapoint next to BENCH_mfc_engine.json.
//
//   ./bench_tree_dp [--smoke] [--json=BENCH_tree_dp.json]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "algo/binary_transform.hpp"
#include "core/tree_dp.hpp"
#include "util/flags.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace rid;
using graph::NodeId;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr std::uint32_t kRowZ = 0xffffffffu;

/// Faithful copy of the pre-optimization solver (the PR 1-3 seed shape):
/// per-node value vectors with free-after-consume, per-call layout, no
/// feasibility clamps, full recompute per compute() call.
class SeedTreeDp {
 public:
  SeedTreeDp(const core::CascadeTree& tree, std::uint32_t max_reach) {
    tree_ = algo::binarize_tree(tree.parent, tree.in_g, 1.0);
    num_real_ = static_cast<std::uint32_t>(tree.size());
    side_q_.assign(tree_.size(), 1.0);
    eligible_.assign(tree_.size(), true);
    for (std::size_t v = 0; v < tree_.size(); ++v) {
      if (tree_.is_dummy(static_cast<std::int32_t>(v))) {
        eligible_[v] = false;
        continue;
      }
      if (!tree.side_q.empty()) side_q_[v] = tree.side_q[tree_.original[v]];
    }
    const auto n = static_cast<std::int32_t>(tree_.size());
    parent_.assign(n, -1);
    for (std::int32_t v = 0; v < n; ++v) {
      if (tree_.left[v] >= 0) parent_[tree_.left[v]] = v;
      if (tree_.right[v] >= 0) parent_[tree_.right[v]] = v;
    }
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
      if (parent_[v] >= 0) {
        depth_[v] = depth_[parent_[v]] + 1;
        zrun_[v] = tree_.in_value[v] > 0.0 ? zrun_[parent_[v]] + 1 : 0;
      }
      const std::uint32_t reach = std::min({depth_[v], zrun_[v], max_reach});
      layout_[v].reach = reach;
      layout_[v].rows = reach + 2;
      pathprod_[v].assign(reach + 1, 1.0);
      for (std::uint32_t j = 1; j <= reach; ++j)
        pathprod_[v][j] = tree_.in_value[v] * pathprod_[parent_[v]][j - 1];
    }
  }

  std::uint32_t num_real() const { return num_real_; }

  const std::vector<double>& compute(std::uint32_t k_max) {
    k_max_ = std::max<std::uint32_t>(1, std::min(k_max, num_real_));
    const std::uint32_t cols = k_max_ + 1;
    std::size_t total = 0;
    for (auto& nl : layout_) {
      nl.offset = total;
      total += static_cast<std::size_t>(nl.rows) * cols;
    }
    values_.assign(tree_.size(), {});
    choices_.assign(total, Choice{});

    for (const std::int32_t v : postorder_) {
      const Layout& nl = layout_[v];
      const bool dummy = tree_.is_dummy(v);
      const std::int32_t lc = tree_.left[v];
      const std::int32_t rc = tree_.right[v];
      const std::uint32_t z_row = nl.reach + 1;
      values_[v].assign(static_cast<std::size_t>(nl.rows) * cols, kNegInf);
      for (std::uint32_t row = 0; row < nl.rows; ++row) {
        if (row == 0 && !eligible_[v]) continue;
        double contrib;
        std::uint32_t child_j;
        if (row == 0) {
          contrib = 1.0;
          child_j = 1;
        } else if (row == z_row) {
          contrib = dummy ? 0.0 : 1.0 - side_q_[v];
          child_j = kRowZ;
        } else {
          contrib = dummy ? 0.0 : 1.0 - (1.0 - pathprod_[v][row]) * side_q_[v];
          child_j = row + 1;
        }
        const std::uint32_t lrow = lc >= 0 ? child_row(lc, child_j) : 0;
        const std::uint32_t rrow = rc >= 0 ? child_row(rc, child_j) : 0;
        for (std::uint32_t k = 0; k <= k_max_; ++k) {
          if (row == 0 && k == 0) continue;
          const std::uint32_t kk = row == 0 ? k - 1 : k;
          double best = kNegInf;
          Choice choice;
          if (lc < 0 && rc < 0) {
            if (kk == 0) best = 0.0;
          } else if (rc < 0) {
            const double covered = value(lc, lrow, kk);
            const double as_init = value(lc, 0, kk);
            best = std::max(covered, as_init);
            choice.left_budget = static_cast<std::uint16_t>(kk);
            if (as_init > covered) choice.flags |= 1;
          } else {
            for (std::uint32_t a = 0; a <= kk; ++a) {
              const double lbest = std::max(value(lc, lrow, a), value(lc, 0, a));
              if (lbest == kNegInf) continue;
              const std::uint32_t b = kk - a;
              const double rbest = std::max(value(rc, rrow, b), value(rc, 0, b));
              if (rbest == kNegInf) continue;
              if (lbest + rbest > best) {
                best = lbest + rbest;
                choice.left_budget = static_cast<std::uint16_t>(a);
                choice.flags = 0;
                if (value(lc, 0, a) > value(lc, lrow, a)) choice.flags |= 1;
                if (value(rc, 0, b) > value(rc, rrow, b)) choice.flags |= 2;
              }
            }
          }
          if (best == kNegInf) continue;
          values_[v][static_cast<std::size_t>(row) * cols + k] = contrib + best;
          choices_[nl.offset + static_cast<std::size_t>(row) * cols + k] =
              choice;
        }
      }
      if (lc >= 0) std::vector<double>().swap(values_[lc]);
      if (rc >= 0) std::vector<double>().swap(values_[rc]);
    }

    opt_.assign(cols, kNegInf);
    for (std::uint32_t k = 1; k <= k_max_; ++k)
      opt_[k] = value(tree_.root, 0, k);  // force_root
    return opt_;
  }

  std::vector<NodeId> extract(std::uint32_t k) const {
    const std::uint32_t cols = k_max_ + 1;
    std::vector<NodeId> initiators;
    struct Frame {
      std::int32_t node;
      std::uint32_t row;
      std::uint32_t k;
    };
    std::vector<Frame> stack{{tree_.root, 0, k}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      const Layout& nl = layout_[f.node];
      const Choice choice =
          choices_[nl.offset + static_cast<std::size_t>(f.row) * cols + f.k];
      std::uint32_t child_j;
      std::uint32_t kk = f.k;
      if (f.row == 0) {
        initiators.push_back(tree_.original[f.node]);
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
        stack.push_back({lc, (choice.flags & 1) ? 0 : child_row(lc, child_j), a});
        if (rc >= 0)
          stack.push_back(
              {rc, (choice.flags & 2) ? 0 : child_row(rc, child_j), kk - a});
      }
    }
    std::sort(initiators.begin(), initiators.end());
    return initiators;
  }

 private:
  struct Layout {
    std::uint32_t rows = 0;
    std::uint32_t reach = 0;
    std::size_t offset = 0;
  };
  struct Choice {
    std::uint16_t left_budget = 0;
    std::uint8_t flags = 0;
  };
  double value(std::int32_t node, std::uint32_t row, std::uint32_t k) const {
    return values_[node][static_cast<std::size_t>(row) * (k_max_ + 1) + k];
  }
  std::uint32_t child_row(std::int32_t child, std::uint32_t child_j) const {
    const std::uint32_t z_row = layout_[child].reach + 1;
    if (child_j == kRowZ || child_j > zrun_[child]) return z_row;
    return std::min(child_j, layout_[child].reach);
  }

  algo::BinarizedTree tree_;
  std::vector<double> side_q_;
  std::vector<bool> eligible_;
  std::vector<std::int32_t> parent_, postorder_;
  std::vector<std::uint32_t> depth_, zrun_;
  std::vector<std::vector<double>> pathprod_;
  std::vector<Layout> layout_;
  std::vector<std::vector<double>> values_;
  std::vector<Choice> choices_;
  std::vector<double> opt_;
  std::uint32_t num_real_ = 0;
  std::uint32_t k_max_ = 0;
};

struct SeedSolution {
  std::uint32_t k = 0;
  double opt = 0.0;
  std::vector<NodeId> initiators;
};

/// The seed solve_tree loop: adaptive cap growth with full recompute.
SeedSolution seed_solve(const core::CascadeTree& tree, double beta,
                        std::uint32_t max_reach, std::uint32_t hard_k_cap) {
  SeedTreeDp dp(tree, max_reach);
  const std::uint32_t n_real = dp.num_real();
  std::uint32_t cap = std::min<std::uint32_t>(8, n_real);
  while (true) {
    const std::vector<double>& opt = dp.compute(cap);
    const auto objective = [&](std::uint32_t k) {
      return -opt[k] + static_cast<double>(k - 1) * beta;
    };
    std::uint32_t best_k = 1;
    while (best_k + 1 <= cap && objective(best_k + 1) < objective(best_k))
      ++best_k;
    if (best_k == cap && cap < std::min<std::uint32_t>(n_real, hard_k_cap)) {
      cap = std::min(cap * 2, n_real);
      continue;
    }
    return {best_k, opt[best_k], dp.extract(best_k)};
  }
}

/// Giant-component cascade tree: a random recursive tree of near-saturated
/// links (g in [0.999, 1)) plus a band of `weak` root children with g = 0.01
/// that is each worth its own initiator, forcing the adaptive k cap through
/// its doublings.
core::CascadeTree make_giant_tree(NodeId n, NodeId weak, std::uint64_t seed) {
  util::Rng rng(seed);
  core::CascadeTree tree;
  tree.parent.resize(n);
  tree.in_g.resize(n);
  tree.global.resize(n);
  tree.parent_edge.assign(n, graph::kInvalidEdge);
  tree.state.assign(n, graph::NodeState::kPositive);
  tree.root = 0;
  for (NodeId v = 0; v < n; ++v) tree.global[v] = v;
  tree.parent[0] = graph::kInvalidNode;
  tree.in_g[0] = 1.0;
  for (NodeId v = 1; v <= weak && v < n; ++v) {
    tree.parent[v] = 0;
    tree.in_g[v] = 0.01;
  }
  for (NodeId v = weak + 1; v < n; ++v) {
    tree.parent[v] = static_cast<NodeId>(rng.next_below(v));
    tree.in_g[v] = rng.uniform(0.999, 1.0);
  }
  return tree;
}

/// One raced solve: a tree size and the solver configuration both paths use.
struct Case {
  NodeId nodes = 0;
  std::uint32_t max_reach = 0;
  std::uint32_t hard_k_cap = 0;
};

struct Row {
  std::size_t nodes = 0;
  std::uint32_t max_reach = 0;
  std::uint32_t hard_k_cap = 0;
  std::uint32_t k = 0;
  double baseline_ms = 0.0;   // serial-scratch seed copy
  double optimized_ms = 0.0;  // arena + incremental + clamps
  double speedup = 0.0;
  std::uint64_t cols_fresh = 0;
  bool match = false;  // identical k / opt / initiator set
};

/// Median wall time in ms of `reps` calls of `solve`, after one untimed
/// warm-up call.
template <typename Solve>
double median_ms(int reps, const Solve& solve) {
  solve();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    solve();
    ms.push_back(timer.seconds() * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);

  const double beta = 0.05;
  const NodeId weak = 40;  // >= 41 initiators -> >= three cap doublings
  // max_reach = 12 keeps the 50k-node table under the solver's entry cap,
  // and on large trees the optimum keeps improving well past the weak band,
  // so these rows share a k cap of 64 — enough for the three doublings the
  // incremental layer is meant to absorb. The CLI-default rows then show
  // what `detect` solves. Both paths use each case's values, so every
  // comparison is like for like.
  std::vector<Case> cases;
  for (const NodeId n : smoke ? std::vector<NodeId>{1500}
                              : std::vector<NodeId>{2000, 10000, 50000})
    cases.push_back({n, 12, 64});
  const core::TreeDpOptions cli_defaults;
  for (const NodeId n : smoke ? std::vector<NodeId>{2000}
                              : std::vector<NodeId>{2000, 10000})
    cases.push_back({n, cli_defaults.max_reach, cli_defaults.hard_k_cap});
  const int reps = smoke ? 1 : 3;

  util::AsciiTable table({"nodes", "reach", "k cap", "k*", "baseline ms",
                          "optimized ms", "speedup"});
  table.set_title("k-ISOMIT-BT DP: seed serial-scratch vs "
                  "serial-incremental-arena solve");
  auto& fresh_counter = util::metrics::global().counter("dp.cols_fresh");

  std::vector<Row> rows;
  for (const Case& c : cases) {
    const NodeId n = c.nodes;
    const core::CascadeTree tree = make_giant_tree(n, weak, /*seed=*/71);

    SeedSolution base;
    const double baseline_ms = median_ms(reps, [&] {
      base = seed_solve(tree, beta, c.max_reach, c.hard_k_cap);
    });

    core::TreeDpOptions options;
    options.max_reach = c.max_reach;
    options.hard_k_cap = c.hard_k_cap;
    core::TreeSolution solution;
    std::uint64_t cols_fresh = 0;
    const double optimized_ms = median_ms(reps, [&] {
      const std::uint64_t f0 = fresh_counter.value();
      solution = core::solve_tree(tree, beta, options);
      cols_fresh = fresh_counter.value() - f0;
    });
    Row row;
    row.nodes = n;
    row.max_reach = c.max_reach;
    row.hard_k_cap = c.hard_k_cap;
    row.k = solution.k;
    row.baseline_ms = baseline_ms;
    row.optimized_ms = optimized_ms;
    row.speedup = row.baseline_ms / row.optimized_ms;
    row.cols_fresh = cols_fresh;
    row.match = solution.k == base.k && solution.opt == base.opt &&
                solution.initiators == base.initiators;
    if (!row.match) {
      std::cerr << "FATAL: solution mismatch at nodes " << n << " (seed k "
                << base.k << " opt " << base.opt << " vs optimized k "
                << solution.k << " opt " << solution.opt << ")\n";
      return 1;
    }
    rows.push_back(row);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", row.speedup);
    table.row(row.nodes, row.max_reach, row.hard_k_cap, row.k, row.baseline_ms,
              row.optimized_ms, speedup);
  }
  table.render(std::cout);

  const std::string json_path = flags.get_string("json", "BENCH_tree_dp.json");
  std::ofstream out(json_path);
  out << "{\n  \"benchmark\": \"tree_dp\",\n  \"unit\": \"ms/solve\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"nodes\": %zu, \"max_reach\": %u, \"hard_k_cap\": %u, "
        "\"k\": %u, \"baseline_ms\": %.3f, \"optimized_ms\": %.3f, "
        "\"speedup\": %.3f, \"cols_fresh\": %llu, \"match\": %s}%s\n",
        r.nodes, r.max_reach, r.hard_k_cap, r.k, r.baseline_ms,
        r.optimized_ms, r.speedup,
        static_cast<unsigned long long>(r.cols_fresh),
        r.match ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
