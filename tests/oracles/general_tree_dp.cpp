#include "oracles/general_tree_dp.hpp"

#include <algorithm>

#include "algo/forest.hpp"
#include "core/tree_dp.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rid::core {

namespace {
constexpr std::uint32_t kRowZ = 0xffffffffu;
}

std::vector<double> general_tree_opt_curve(const CascadeTree& tree,
                                           std::uint32_t k_max,
                                           const util::BudgetScope* budget) {
  RID_FAILPOINT("general_dp.compute");
  util::trace::TraceSpan span("general_dp");
  span.tag("nodes", static_cast<std::int64_t>(tree.size()));
  span.tag("k_cap", static_cast<std::int64_t>(k_max));
  util::metrics::global().counter("dp.general_computes").add(1);
  util::BudgetChecker checker(budget, /*interval=*/64);
  const auto n = static_cast<graph::NodeId>(tree.size());
  const algo::RootedForest forest(tree.parent);
  const auto topo = forest.topological();
  const auto depths = forest.depths();
  const auto sizes = forest.subtree_sizes();

  const std::uint32_t kmax = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(k_max, n));
  const std::uint32_t cols = kmax + 1;

  // Per-node compact rows, exactly as in BinarizedTreeDp: row 0 =
  // initiator, rows 1..reach = covered at distance j, row reach+1 = Z.
  std::vector<std::uint32_t> zrun(n, 0);
  std::vector<std::uint32_t> reach(n, 0);
  std::vector<std::vector<double>> pathprod(n);
  for (const graph::NodeId v : topo) {
    const graph::NodeId p = tree.parent[v];
    if (p == graph::kInvalidNode) {
      zrun[v] = 0;
    } else {
      zrun[v] = tree.in_g[v] > 0.0 ? zrun[p] + 1 : 0;
    }
    reach[v] = std::min(depths[v], zrun[v]);
    pathprod[v].assign(reach[v] + 1, 1.0);
    for (std::uint32_t j = 1; j <= reach[v]; ++j)
      pathprod[v][j] = tree.in_g[v] * pathprod[p][j - 1];
  }

  // table[v] holds rows*(kmax+1) values.
  std::vector<std::vector<double>> table(n);

  const auto child_row = [&](graph::NodeId c, std::uint32_t child_j) {
    const std::uint32_t z = reach[c] + 1;
    if (child_j == kRowZ || child_j > reach[c]) return z;
    return child_j;
  };

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    checker.tick();
    const graph::NodeId v = *it;
    const std::uint32_t rows = reach[v] + 2;
    table[v].assign(static_cast<std::size_t>(rows) * cols, kNegInf);
    const auto children = forest.children(v);

    const double q = tree.side_q.empty() ? 1.0 : tree.side_q[v];
    for (std::uint32_t row = 0; row < rows; ++row) {
      double contrib;
      std::uint32_t child_j;
      if (row == 0) {
        contrib = 1.0;
        child_j = 1;
      } else if (row == reach[v] + 1) {
        contrib = 1.0 - q;
        child_j = kRowZ;
      } else {
        contrib = 1.0 - (1.0 - pathprod[v][row]) * q;
        child_j = row + 1;
      }

      // Sequential exact-k knapsack over the children.
      std::vector<double> acc(cols, kNegInf);
      acc[0] = 0.0;
      std::vector<double> next(cols);
      for (const graph::NodeId c : children) {
        const std::uint32_t crow = child_row(c, child_j);
        std::fill(next.begin(), next.end(), kNegInf);
        const std::uint32_t c_cap = std::min<std::uint32_t>(sizes[c], kmax);
        for (std::uint32_t used = 0; used < cols; ++used) {
          if (acc[used] == kNegInf) continue;
          for (std::uint32_t a = 0; a + used <= kmax && a <= c_cap; ++a) {
            const double best = std::max(table[c][a],  // row 0 (initiator)
                                         table[c][crow * cols + a]);
            if (best == kNegInf) continue;
            next[used + a] = std::max(next[used + a], acc[used] + best);
          }
        }
        std::swap(acc, next);
      }

      for (std::uint32_t k = 0; k <= kmax; ++k) {
        if (row == 0) {
          if (k == 0) continue;
          if (acc[k - 1] != kNegInf)
            table[v][k] = contrib + acc[k - 1];
        } else if (acc[k] != kNegInf) {
          table[v][row * cols + k] = contrib + acc[k];
        }
      }
    }
    // Children tables are no longer needed; release their memory.
    for (const graph::NodeId c : children) {
      std::vector<double>().swap(table[c]);
    }
  }

  const graph::NodeId root = forest.roots()[0];
  std::vector<double> opt(cols, kNegInf);
  const std::uint32_t root_z = reach[root] + 1;
  for (std::uint32_t k = 1; k <= kmax; ++k)
    opt[k] = std::max(table[root][k], table[root][root_z * cols + k]);
  return opt;
}

}  // namespace rid::core
