#include "core/tree_dp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "oracles/general_tree_dp.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace rid::core {
namespace {

using graph::NodeId;
using graph::NodeState;

/// Builds a CascadeTree from parent pointers and per-edge g factors. States
/// default to +1 (they only matter for reporting, not for the DP value).
CascadeTree make_tree(std::vector<NodeId> parent, std::vector<double> in_g) {
  CascadeTree tree;
  const auto n = static_cast<NodeId>(parent.size());
  tree.parent = std::move(parent);
  tree.in_g = std::move(in_g);
  tree.global.resize(n);
  for (NodeId v = 0; v < n; ++v) tree.global[v] = v;
  tree.parent_edge.assign(n, graph::kInvalidEdge);
  tree.state.assign(n, NodeState::kPositive);
  tree.root = 0;
  return tree;
}

/// Exhaustive optimum over all exact-k initiator sets.
double brute_force_opt(const CascadeTree& tree, std::uint32_t k) {
  const auto n = static_cast<NodeId>(tree.size());
  double best = -std::numeric_limits<double>::infinity();
  std::vector<NodeId> chosen;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<std::uint32_t>(__builtin_popcount(mask)) != k) continue;
    chosen.clear();
    for (NodeId v = 0; v < n; ++v)
      if (mask & (1u << v)) chosen.push_back(v);
    best = std::max(best, evaluate_initiators(tree, chosen));
  }
  return best;
}

CascadeTree random_tree(util::Rng& rng, NodeId n, double zero_probability) {
  std::vector<NodeId> parent(n);
  std::vector<double> in_g(n);
  parent[0] = graph::kInvalidNode;
  in_g[0] = 1.0;
  for (NodeId v = 1; v < n; ++v) {
    parent[v] = static_cast<NodeId>(rng.next_below(v));
    in_g[v] = rng.bernoulli(zero_probability) ? 0.0 : rng.uniform(0.05, 1.0);
  }
  return make_tree(std::move(parent), std::move(in_g));
}

TEST(TreeDp, SingleNode) {
  const CascadeTree tree = make_tree({graph::kInvalidNode}, {1.0});
  BinarizedTreeDp dp(tree);
  const auto& opt = dp.compute(1);
  EXPECT_DOUBLE_EQ(opt[1], 1.0);
  EXPECT_EQ(dp.extract(1), std::vector<NodeId>{0});
}

TEST(TreeDp, PathHandComputed) {
  // 0 -> 1 -> 2 with g = 0.5 and 0.25.
  const CascadeTree tree =
      make_tree({graph::kInvalidNode, 0, 1}, {1.0, 0.5, 0.25});
  BinarizedTreeDp dp(tree);
  const auto& opt = dp.compute(3);
  EXPECT_DOUBLE_EQ(opt[1], 1.0 + 0.5 + 0.125);
  EXPECT_DOUBLE_EQ(opt[2], 2.0 + 0.5);  // {0, 2} beats {0, 1} (2 + 0.25)
  EXPECT_DOUBLE_EQ(opt[3], 3.0);
  EXPECT_EQ(dp.extract(2), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(dp.extract(3), (std::vector<NodeId>{0, 1, 2}));
}

TEST(TreeDp, StarHandComputed) {
  // 0 -> {1, 2, 3} with g = 0.9, 0.2, 0.6.
  const CascadeTree tree = make_tree(
      {graph::kInvalidNode, 0, 0, 0}, {1.0, 0.9, 0.2, 0.6});
  BinarizedTreeDp dp(tree);
  const auto& opt = dp.compute(4);
  EXPECT_DOUBLE_EQ(opt[1], 1.0 + 0.9 + 0.2 + 0.6);
  // k = 2: make the weakest-covered child an initiator.
  EXPECT_DOUBLE_EQ(opt[2], 2.0 + 0.9 + 0.6);
  EXPECT_EQ(dp.extract(2), (std::vector<NodeId>{0, 2}));
  EXPECT_DOUBLE_EQ(opt[4], 4.0);
}

TEST(TreeDp, ZeroGForcesSplitToRecoverValue) {
  // 0 -> 1 (g = 0) -> 2 (g = 0.8). With k=1 the best single initiator is
  // node 1 (root uncovered: 0 + 1 + 0.8 = 1.8 beats root's 1 + 0 + 0);
  // with k=2, {0, 1} recovers everything that is recoverable.
  const CascadeTree tree =
      make_tree({graph::kInvalidNode, 0, 1}, {1.0, 0.0, 0.8});
  BinarizedTreeDp dp(tree);
  const auto& opt = dp.compute(3, /*force_root=*/false);
  EXPECT_DOUBLE_EQ(opt[1], 1.8);
  EXPECT_EQ(dp.extract(1), (std::vector<NodeId>{1}));
  EXPECT_DOUBLE_EQ(opt[2], 2.0 + 0.8);
  EXPECT_EQ(dp.extract(2), (std::vector<NodeId>{0, 1}));
}

TEST(TreeDp, RootMayStayUncovered) {
  // Root with worthless subtree coverage: with k=1 the best solution may
  // place the initiator below the root. g(0->1) = 0, subtree of 1 is rich.
  CascadeTree tree = make_tree(
      {graph::kInvalidNode, 0, 1, 1}, {1.0, 0.0, 0.9, 0.9});
  BinarizedTreeDp dp(tree);
  const auto& opt = dp.compute(2, /*force_root=*/false);
  // k=1: root as initiator gives 1 + 0 + 0 + 0 = 1; initiator at node 1
  // gives 0 (root uncovered) + 1 + 0.9 + 0.9 = 2.8. DP must pick the max.
  EXPECT_DOUBLE_EQ(opt[1], 2.8);
  EXPECT_EQ(dp.extract(1), (std::vector<NodeId>{1}));
  // k=2: {0, 1} = 1 + 1 + 0.9 + 0.9 = 3.8.
  EXPECT_DOUBLE_EQ(opt[2], 3.8);
}

TEST(TreeDp, MatchesBruteForceOnRandomTrees) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(9));  // 2..10
    const CascadeTree tree = random_tree(rng, n, trial % 3 == 0 ? 0.3 : 0.0);
    BinarizedTreeDp dp(tree);
    const auto& opt = dp.compute(n, /*force_root=*/false);
    for (std::uint32_t k = 1; k <= n; ++k) {
      const double brute = brute_force_opt(tree, k);
      ASSERT_NEAR(opt[k], brute, 1e-9)
          << "trial " << trial << " n " << static_cast<int>(n) << " k " << k;
      // The extracted set must achieve the claimed value.
      const auto initiators = dp.extract(k);
      ASSERT_EQ(initiators.size(), k);
      ASSERT_NEAR(evaluate_initiators(tree, initiators), opt[k], 1e-9);
    }
  }
}

TEST(TreeDp, BinarizedEqualsGeneralTreeDp) {
  util::Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(40));
    const CascadeTree tree = random_tree(rng, n, trial % 2 == 0 ? 0.2 : 0.0);
    const std::uint32_t kmax = std::min<std::uint32_t>(n, 8);
    BinarizedTreeDp dp(tree);
    const auto& binarized = dp.compute(kmax, /*force_root=*/false);
    const auto general = general_tree_opt_curve(tree, kmax);
    for (std::uint32_t k = 1; k <= kmax; ++k) {
      ASSERT_NEAR(binarized[k], general[k], 1e-9)
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(TreeDp, OptIsMonotoneUpToPlateauForZeroFreeTrees) {
  // With all g < 1, adding initiators (weakly) increases the exact-k optimum
  // until it caps at n.
  util::Rng rng(99);
  const CascadeTree tree = random_tree(rng, 12, 0.0);
  BinarizedTreeDp dp(tree);
  const auto& opt = dp.compute(12);
  for (std::uint32_t k = 1; k < 12; ++k) EXPECT_LE(opt[k], opt[k + 1] + 1e-12);
  EXPECT_DOUBLE_EQ(opt[12], 12.0);
}

TEST(TreeDp, EvaluateInitiatorsHandlesUncoveredPrefix) {
  const CascadeTree tree =
      make_tree({graph::kInvalidNode, 0, 1}, {1.0, 0.5, 0.5});
  // Initiator only at node 2: nodes 0, 1 uncovered (contribute 0).
  EXPECT_DOUBLE_EQ(evaluate_initiators(tree, std::vector<NodeId>{2}), 1.0);
  // Initiator at node 1: node 0 uncovered, node 2 covered at 0.5.
  EXPECT_DOUBLE_EQ(evaluate_initiators(tree, std::vector<NodeId>{1}), 1.5);
  EXPECT_THROW(evaluate_initiators(tree, std::vector<NodeId>{9}),
               std::out_of_range);
}

TEST(TreeDp, SideEvidenceRaisesCoverageProbability) {
  // Path 0 -> 1 with weak tree edge but strong side evidence at node 1.
  CascadeTree tree = make_tree({graph::kInvalidNode, 0}, {1.0, 0.1});
  tree.side_q = {1.0, 0.2};  // P(1 | covered) = 1 - 0.9 * 0.2 = 0.82
  BinarizedTreeDp dp(tree);
  const auto& opt = dp.compute(2);
  EXPECT_DOUBLE_EQ(opt[1], 1.0 + 0.82);
  EXPECT_DOUBLE_EQ(opt[2], 2.0);
}

TEST(TreeDp, SideEvidenceAppliesToUncoveredNodes) {
  // Initiator below the root: the uncovered root still scores 1 - Q.
  CascadeTree tree = make_tree({graph::kInvalidNode, 0}, {1.0, 0.5});
  tree.side_q = {0.3, 1.0};
  // {1}: root uncovered contributes 1 - 0.3 = 0.7; node 1 contributes 1.
  EXPECT_DOUBLE_EQ(evaluate_initiators(tree, std::vector<NodeId>{1}), 1.7);
  BinarizedTreeDp dp(tree);
  const auto& opt = dp.compute(1, /*force_root=*/false);
  // {0}: 1 + (1 - 0.5 * 1.0)... node 1 has q = 1: P = 0.5. Total 1.5 < 1.7.
  EXPECT_DOUBLE_EQ(opt[1], 1.7);
}

TEST(TreeDp, SideEvidenceBruteForceAgreement) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(8));
    CascadeTree tree = random_tree(rng, n, 0.15);
    tree.side_q.resize(n);
    for (NodeId v = 0; v < n; ++v)
      tree.side_q[v] = rng.bernoulli(0.3) ? 1.0 : rng.uniform(0.1, 1.0);
    BinarizedTreeDp dp(tree);
    const auto& opt = dp.compute(n, /*force_root=*/false);
    for (std::uint32_t k = 1; k <= n; ++k) {
      ASSERT_NEAR(opt[k], brute_force_opt(tree, k), 1e-9)
          << "trial " << trial << " k " << k;
      const auto initiators = dp.extract(k);
      ASSERT_NEAR(evaluate_initiators(tree, initiators), opt[k], 1e-9);
    }
    // Binarized and general formulations still agree with side evidence.
    const auto general = general_tree_opt_curve(tree, n);
    for (std::uint32_t k = 1; k <= n; ++k)
      ASSERT_NEAR(opt[k], general[k], 1e-9) << "trial " << trial;
  }
}

TEST(TreeDp, ForceRootAlwaysSelectsRoot) {
  util::Rng rng(808);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(10));
    const CascadeTree tree = random_tree(rng, n, 0.2);
    BinarizedTreeDp dp(tree);
    const auto& opt = dp.compute(n, /*force_root=*/true);
    for (std::uint32_t k = 1; k <= n; ++k) {
      // Brute force restricted to sets containing the root.
      double best = -std::numeric_limits<double>::infinity();
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        if (!(mask & 1u)) continue;  // root is local id 0
        if (static_cast<std::uint32_t>(__builtin_popcount(mask)) != k)
          continue;
        std::vector<NodeId> chosen;
        for (NodeId v = 0; v < n; ++v)
          if (mask & (1u << v)) chosen.push_back(v);
        best = std::max(best, evaluate_initiators(tree, chosen));
      }
      ASSERT_NEAR(opt[k], best, 1e-9) << "trial " << trial << " k " << k;
      const auto initiators = dp.extract(k);
      ASSERT_FALSE(initiators.empty());
      ASSERT_EQ(initiators.front(), 0u);  // sorted; root is id 0
    }
  }
}

TEST(TreeDp, ForceRootIsDefaultInSolveTree) {
  // With a huge penalty the solution must be exactly {root}.
  util::Rng rng(909);
  const CascadeTree tree = random_tree(rng, 15, 0.3);
  const TreeSolution s = solve_tree(tree, /*beta=*/1e6, TreeDpOptions{});
  EXPECT_EQ(s.k, 1u);
  EXPECT_EQ(s.initiators, std::vector<NodeId>{0});
}

TEST(TreeDp, SolveTreePenaltySelectsK) {
  // Star where splitting pays only if beta is small.
  const CascadeTree tree = make_tree(
      {graph::kInvalidNode, 0, 0, 0}, {1.0, 0.1, 0.1, 0.1});
  // Gain from each extra initiator = 1 - 0.1 = 0.9.
  TreeDpOptions options;
  {
    const TreeSolution s = solve_tree(tree, /*beta=*/0.5, options);
    EXPECT_EQ(s.k, 4u);  // 0.9 gain > 0.5 penalty: take everything
  }
  {
    const TreeSolution s = solve_tree(tree, /*beta=*/1.5, options);
    EXPECT_EQ(s.k, 1u);
    EXPECT_EQ(s.initiators, std::vector<NodeId>{0});
  }
}

TEST(TreeDp, SolveTreeObjectiveMatchesDefinition) {
  util::Rng rng(55);
  const CascadeTree tree = random_tree(rng, 20, 0.15);
  const double beta = 0.3;
  const TreeSolution s = solve_tree(tree, beta, TreeDpOptions{});
  EXPECT_NEAR(s.objective, -s.opt + (s.k - 1) * beta, 1e-12);
  EXPECT_EQ(s.initiators.size(), s.k);
  EXPECT_NEAR(evaluate_initiators(tree, s.initiators), s.opt, 1e-9);
  ASSERT_EQ(s.states.size(), s.initiators.size());
}

TEST(TreeDp, GreedyStopMatchesGlobalOnConcaveCurves) {
  // For trees without zero-g edges the gain of each extra initiator shrinks,
  // so the greedy rule and the global argmin coincide.
  util::Rng rng(66);
  for (int trial = 0; trial < 10; ++trial) {
    const CascadeTree tree = random_tree(rng, 15, 0.0);
    TreeDpOptions greedy;
    greedy.greedy_stop = true;
    TreeDpOptions global;
    global.greedy_stop = false;
    const TreeSolution a = solve_tree(tree, 0.25, greedy);
    const TreeSolution b = solve_tree(tree, 0.25, global);
    EXPECT_NEAR(a.objective, b.objective, 1e-9) << "trial " << trial;
  }
}

TEST(TreeDp, AdaptiveKCapGrowth) {
  // 40-node star with tiny coverage: optimal k is large; initial cap of 8
  // must grow transparently.
  std::vector<NodeId> parent(40, 0);
  parent[0] = graph::kInvalidNode;
  std::vector<double> in_g(40, 0.01);
  in_g[0] = 1.0;
  const CascadeTree tree = make_tree(std::move(parent), std::move(in_g));
  const TreeSolution s = solve_tree(tree, /*beta=*/0.05, TreeDpOptions{});
  EXPECT_EQ(s.k, 40u);  // every node worth 0.99 gain > 0.05 penalty
}

TEST(TreeDp, ExtractValidation) {
  const CascadeTree tree = make_tree({graph::kInvalidNode, 0}, {1.0, 0.5});
  BinarizedTreeDp dp(tree);
  dp.compute(2);
  EXPECT_THROW(dp.extract(0), std::invalid_argument);
  EXPECT_THROW(dp.extract(3), std::invalid_argument);
}

TEST(TreeDp, DeepChainWithManyZeros) {
  // Compact Z rows must keep deep zero-heavy chains cheap and correct.
  const NodeId n = 200;
  std::vector<NodeId> parent(n);
  std::vector<double> in_g(n);
  parent[0] = graph::kInvalidNode;
  in_g[0] = 1.0;
  for (NodeId v = 1; v < n; ++v) {
    parent[v] = v - 1;
    in_g[v] = v % 5 == 0 ? 0.0 : 0.9;
  }
  const CascadeTree tree = make_tree(std::move(parent), std::move(in_g));
  BinarizedTreeDp dp(tree);
  const auto& opt = dp.compute(50);
  // Sanity: feasible and increasing in k over this range.
  for (std::uint32_t k = 1; k < 50; ++k) {
    EXPECT_GT(opt[k], 0.0);
    EXPECT_LE(opt[k], opt[k + 1] + 1e-12);
  }
}

/// Star with near-useless edges: the optimum wants every node as its own
/// initiator, so the adaptive cap must double several times (8 -> 16 -> 32
/// -> 40 with the default initial cap).
CascadeTree make_weak_star(NodeId n) {
  std::vector<NodeId> parent(n, 0);
  std::vector<double> in_g(n, 0.01);
  parent[0] = graph::kInvalidNode;
  in_g[0] = 1.0;
  return make_tree(std::move(parent), std::move(in_g));
}

TEST(TreeDpIncremental, GrowthEqualsFromScratch) {
  util::Rng rng(41);
  const CascadeTree tree = random_tree(rng, 300, 0.2);
  BinarizedTreeDp grown(tree);
  grown.compute(5);
  grown.compute(11);
  grown.compute(37);
  EXPECT_EQ(grown.computed_k(), 37u);
  BinarizedTreeDp scratch(tree);
  const std::vector<double>& fresh = scratch.compute(37);
  const std::vector<double>& extended = grown.compute(37);
  for (std::uint32_t k = 1; k <= 37; ++k) EXPECT_EQ(extended[k], fresh[k]);
  for (const std::uint32_t k : {1u, 5u, 6u, 11u, 12u, 37u})
    EXPECT_EQ(grown.extract(k), scratch.extract(k));
}

TEST(TreeDpIncremental, SolveTreeMatchesNonIncremental) {
  // solve_tree grows the cap 8 -> 16 -> 32 -> 40; one compute at the final
  // cap on a fresh solver must give the same optimum and initiator set.
  const CascadeTree tree = make_weak_star(40);
  const TreeSolution a = solve_tree(tree, 0.05, TreeDpOptions{});
  EXPECT_EQ(a.k, 40u);  // forced through 3 cap doublings
  BinarizedTreeDp scratch(tree);
  const std::vector<double>& opt = scratch.compute(40);
  EXPECT_EQ(a.opt, opt[a.k]);
  EXPECT_EQ(a.objective, -opt[a.k] + static_cast<double>(a.k - 1) * 0.05);
  EXPECT_EQ(a.initiators, scratch.extract(a.k));
  ASSERT_EQ(a.states.size(), a.initiators.size());
  for (std::size_t i = 0; i < a.initiators.size(); ++i)
    EXPECT_EQ(a.states[i], tree.state[a.initiators[i]]);
}

TEST(TreeDpIncremental, CapDoublingsRecomputeZeroColumns) {
  const CascadeTree tree = make_weak_star(40);
  auto& growths = util::metrics::global().counter("dp.k_growths");
  auto& fresh = util::metrics::global().counter("dp.cols_fresh");

  const std::uint64_t g0 = growths.value();
  const std::uint64_t f0 = fresh.value();
  solve_tree(tree, 0.05, TreeDpOptions{});
  EXPECT_EQ(growths.value() - g0, 3u);  // 8 -> 16 -> 32 -> 40
  // Every one of the 40 columns is computed exactly once.
  EXPECT_EQ(fresh.value() - f0, 40u);
}

TEST(TreeDpIncremental, RowsAreSizedToTheSubtree) {
  // A random tree with at most two children per node binarizes without
  // dummies, so every node's real count is its subtree size. All g > 0 and
  // max_reach = 1 give the root 2 rows (initiator + Z) and every other node
  // 3 (initiator, one distance row, Z).
  util::Rng rng(53);
  const NodeId n = 300;
  std::vector<NodeId> parent(n, graph::kInvalidNode);
  std::vector<double> in_g(n, 1.0);
  std::vector<std::uint32_t> children(n, 0);
  std::vector<NodeId> open{0};  // nodes with fewer than two children
  for (NodeId v = 1; v < n; ++v) {
    const std::size_t i = rng.next_below(open.size());
    parent[v] = open[i];
    in_g[v] = rng.uniform(0.05, 1.0);
    if (++children[open[i]] == 2) {
      open[i] = open.back();
      open.pop_back();
    }
    open.push_back(v);
  }
  std::vector<std::uint32_t> size(n, 1);
  for (NodeId v = n - 1; v > 0; --v) size[parent[v]] += size[v];
  const CascadeTree tree = make_tree(parent, in_g);
  const auto expected_entries = [&](std::uint32_t k) {
    std::size_t entries = 0;
    for (NodeId v = 0; v < n; ++v)
      entries += (v == 0 ? 2u : 3u) * (std::min(k, size[v]) + 1);
    return entries;
  };

  BinarizedTreeDp grown(tree, /*max_reach=*/1);
  for (const std::uint32_t k : {1u, 8u, 16u, 64u}) {
    grown.compute(k);
    EXPECT_EQ(grown.table_entries(), expected_entries(k)) << "k = " << k;
  }
  BinarizedTreeDp scratch(tree, /*max_reach=*/1);
  scratch.compute(64);
  EXPECT_EQ(scratch.table_entries(), expected_entries(64));
}

std::uint64_t dp_double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(TreeDpSpill, SpilledArenasAreBitIdentical) {
  util::Rng rng(77);
  const CascadeTree tree = random_tree(rng, 500, 0.1);
  constexpr std::uint32_t kCap = 64;
  BinarizedTreeDp heap(tree, /*max_reach=*/48);
  const std::vector<double> want = heap.compute(kCap);

  util::metrics::Counter& spills =
      util::metrics::global().counter("dp.arena_spills");
  const std::uint64_t before = spills.value();
  BinarizedTreeDp spilled(tree, /*max_reach=*/48, /*max_resident_entries=*/1);
  const std::vector<double>& got = spilled.compute(kCap);
  // Every arena exceeds one entry. The crossing is observable (the counter
  // only moves when the temp-file mapping succeeded, which it does on any
  // platform this test runs on with a writable tmp dir).
  EXPECT_GT(spills.value(), before);
  ASSERT_EQ(got.size(), want.size());
  for (std::uint32_t k = 1; k <= kCap; ++k) {
    ASSERT_EQ(dp_double_bits(got[k]), dp_double_bits(want[k])) << "k = " << k;
    ASSERT_EQ(spilled.extract(k), heap.extract(k)) << "k = " << k;
  }

  // Entry budgets walk the spilled choice arena the same way.
  TreeSolution from_heap;
  from_heap.k = kCap;
  from_heap.initiators = heap.extract(kCap);
  TreeSolution from_spill = from_heap;
  rank_initiators(heap, from_heap);
  rank_initiators(spilled, from_spill);
  EXPECT_EQ(from_spill.entry_k, from_heap.entry_k);
}

TEST(TreeDpSpill, IncrementalGrowthAcrossSpilledArenas) {
  // solve_tree's cap doublings on a weak star, with spilling arenas: the
  // widen-and-move growth path must match one heap-backed compute at the
  // final cap after every step.
  const CascadeTree tree = make_weak_star(40);
  BinarizedTreeDp heap(tree, /*max_reach=*/48);
  const std::vector<double> want = heap.compute(40);
  BinarizedTreeDp grown(tree, /*max_reach=*/48, /*max_resident_entries=*/1);
  for (const std::uint32_t cap : {8u, 16u, 32u, 40u}) {
    const std::vector<double>& got = grown.compute(cap);
    for (std::uint32_t k = 1; k <= cap; ++k) {
      ASSERT_EQ(dp_double_bits(got[k]), dp_double_bits(want[k]))
          << "cap = " << cap << ", k = " << k;
      ASSERT_EQ(grown.extract(k), heap.extract(k))
          << "cap = " << cap << ", k = " << k;
    }
  }
}

TEST(TreeDpBetaSweep, PoolExtractionThreadInvariant) {
  util::Rng rng(99);
  const CascadeTree tree = random_tree(rng, 800, 0.2);
  std::vector<double> betas;
  for (int i = 0; i < 33; ++i) betas.push_back(0.001 + 0.01 * i);
  TreeDpOptions serial;
  serial.rank_initiators = true;
  serial.num_threads = 1;
  const auto want = solve_tree_betas(tree, betas, serial);
  ASSERT_EQ(want.size(), betas.size());
  for (const std::size_t threads : {2u, 4u, 8u}) {
    TreeDpOptions options = serial;
    options.num_threads = threads;
    const auto got = solve_tree_betas(tree, betas, options);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].k, want[i].k) << "beta " << betas[i];
      EXPECT_EQ(got[i].initiators, want[i].initiators);
      EXPECT_EQ(got[i].states, want[i].states);
      EXPECT_EQ(got[i].entry_k, want[i].entry_k);
      EXPECT_EQ(dp_double_bits(got[i].opt), dp_double_bits(want[i].opt));
      EXPECT_EQ(dp_double_bits(got[i].objective),
                dp_double_bits(want[i].objective));
    }
  }
}

TEST(TreeDpRanking, BetaSweepPopulatesEntryK) {
  const CascadeTree tree = make_weak_star(12);
  TreeDpOptions options;
  options.rank_initiators = true;
  const std::vector<double> betas{0.3, 0.05, 0.001};
  const auto sweep = solve_tree_betas(tree, betas, options);
  ASSERT_EQ(sweep.size(), betas.size());
  for (std::size_t i = 0; i < betas.size(); ++i) {
    // The sweep must populate entry_k exactly as the per-beta solve does.
    const TreeSolution single = solve_tree(tree, betas[i], options);
    EXPECT_EQ(sweep[i].initiators, single.initiators);
    ASSERT_EQ(sweep[i].entry_k.size(), sweep[i].initiators.size());
    EXPECT_EQ(sweep[i].entry_k, single.entry_k);
  }
}

}  // namespace
}  // namespace rid::core
