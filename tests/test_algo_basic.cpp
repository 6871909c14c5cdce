#include <gtest/gtest.h>

#include "algo/components.hpp"
#include "algo/forest.hpp"
#include "oracles/scc.hpp"
#include "algo/skew_heap.hpp"
#include "algo/traversal.hpp"
#include "algo/union_find.hpp"
#include "util/rng.hpp"

namespace rid::algo {
namespace {

using graph::NodeId;
using graph::Sign;
using graph::SignedGraph;
using graph::SignedGraphBuilder;

// --- union find --------------------------------------------------------------

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(0, 1));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(1, 2));
  EXPECT_TRUE(uf.unite(1, 3));
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_EQ(uf.size_of(0), 4u);
  EXPECT_EQ(uf.size_of(4), 1u);
}

TEST(UnionFind, LargeChainCollapses) {
  const std::size_t n = 10000;
  UnionFind uf(n);
  for (std::size_t i = 0; i + 1 < n; ++i) uf.unite(i, i + 1);
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_TRUE(uf.same(0, n - 1));
}

TEST(RollbackUnionFind, RollbackRestoresState) {
  RollbackUnionFind uf(6);
  uf.unite(0, 1);
  const std::size_t t = uf.time();
  uf.unite(2, 3);
  uf.unite(1, 3);
  EXPECT_EQ(uf.find(0), uf.find(2));
  uf.rollback(t);
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_NE(uf.find(0), uf.find(2));
  EXPECT_NE(uf.find(2), uf.find(3));
}

TEST(RollbackUnionFind, FailedUniteDoesNotAdvanceTime) {
  RollbackUnionFind uf(3);
  uf.unite(0, 1);
  const std::size_t t = uf.time();
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_EQ(uf.time(), t);
}

TEST(RollbackUnionFind, RollbackToZero) {
  RollbackUnionFind uf(4);
  uf.unite(0, 1);
  uf.unite(2, 3);
  uf.unite(0, 3);
  uf.rollback(0);
  for (std::size_t v = 0; v < 4; ++v) EXPECT_EQ(uf.find(v), v);
}

// --- traversal -----------------------------------------------------------------

SignedGraph make_diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3
  SignedGraphBuilder builder(4);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(0, 2, Sign::kPositive, 1.0)
      .add_edge(1, 3, Sign::kPositive, 1.0)
      .add_edge(2, 3, Sign::kPositive, 1.0);
  return builder.build();
}

TEST(Traversal, BfsOrderAndDistances) {
  const SignedGraph g = make_diamond();
  const auto order = bfs_order(g, 0);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0u);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], 2u);
}

TEST(Traversal, BfsUnreachable) {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 1.0);
  const auto dist = bfs_distances(builder.build(), 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(Traversal, DfsPreorderVisitsAllReachable) {
  const SignedGraph g = make_diamond();
  const auto order = dfs_preorder(g, 0);
  EXPECT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);  // smallest neighbor first
}

TEST(Traversal, CycleDetection) {
  EXPECT_FALSE(has_directed_cycle(make_diamond()));
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 2, Sign::kPositive, 1.0)
      .add_edge(2, 0, Sign::kPositive, 1.0);
  EXPECT_TRUE(has_directed_cycle(builder.build()));
}

TEST(Traversal, TopologicalOrderOfDag) {
  const SignedGraph g = make_diamond();
  const auto order = topological_order(g);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_LT(position[g.edge_src(e)], position[g.edge_dst(e)]);
}

TEST(Traversal, TopologicalOrderRejectsCycle) {
  SignedGraphBuilder builder(2);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 0, Sign::kPositive, 1.0);
  EXPECT_THROW(topological_order(builder.build()), std::invalid_argument);
}

// --- weakly connected components ---------------------------------------------------

TEST(Components, DirectionIgnored) {
  SignedGraphBuilder builder(6);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(2, 1, Sign::kNegative, 1.0)   // 0,1,2 weakly connected
      .add_edge(3, 4, Sign::kPositive, 1.0);  // 3,4 connected; 5 isolated
  const Components comps = weakly_connected_components(builder.build());
  EXPECT_EQ(comps.count, 3u);
  EXPECT_EQ(comps.label[0], comps.label[1]);
  EXPECT_EQ(comps.label[1], comps.label[2]);
  EXPECT_EQ(comps.label[3], comps.label[4]);
  EXPECT_NE(comps.label[0], comps.label[3]);
  EXPECT_NE(comps.label[5], comps.label[0]);
  const auto groups = comps.groups();
  ASSERT_EQ(groups.size(), 3u);
  std::size_t total = 0;
  for (const auto& group : groups) total += group.size();
  EXPECT_EQ(total, 6u);
}

TEST(Components, RestrictedComponentsIgnoreOutsideEdges) {
  SignedGraphBuilder builder(5);
  // 0 - 1 - 2 chain; restricting to {0, 2} must split them.
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 2, Sign::kPositive, 1.0);
  const std::vector<NodeId> keep{0, 2};
  const Components comps =
      weakly_connected_components(builder.build(), keep);
  EXPECT_EQ(comps.count, 2u);
  EXPECT_EQ(comps.label[1], graph::kInvalidNode);
  EXPECT_NE(comps.label[0], comps.label[2]);
}

TEST(Components, RestrictedKeepsInternalEdges) {
  SignedGraphBuilder builder(4);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(2, 3, Sign::kPositive, 1.0);
  const std::vector<NodeId> keep{0, 1, 3};
  const Components comps =
      weakly_connected_components(builder.build(), keep);
  EXPECT_EQ(comps.count, 2u);
  EXPECT_EQ(comps.label[0], comps.label[1]);
  EXPECT_EQ(comps.label[2], graph::kInvalidNode);
}

// --- rooted forest ----------------------------------------------------------------

TEST(RootedForest, StructureAndOrders) {
  // Forest: 0 -> {1, 2}, 1 -> {3}; 4 is a second root.
  std::vector<NodeId> parent{graph::kInvalidNode, 0, 0, 1,
                             graph::kInvalidNode};
  const RootedForest forest(parent);
  EXPECT_EQ(forest.num_nodes(), 5u);
  ASSERT_EQ(forest.roots().size(), 2u);
  EXPECT_TRUE(forest.is_root(0));
  EXPECT_TRUE(forest.is_root(4));
  EXPECT_EQ(forest.num_children(0), 2u);
  EXPECT_EQ(forest.children(1).size(), 1u);
  EXPECT_EQ(forest.children(1)[0], 3u);

  const auto depths = forest.depths();
  EXPECT_EQ(depths[0], 0u);
  EXPECT_EQ(depths[3], 2u);
  EXPECT_EQ(depths[4], 0u);

  const auto sizes = forest.subtree_sizes();
  EXPECT_EQ(sizes[0], 4u);
  EXPECT_EQ(sizes[1], 2u);
  EXPECT_EQ(sizes[4], 1u);

  const auto labels = forest.tree_labels();
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_NE(labels[0], labels[4]);
}

TEST(RootedForest, TopologicalParentsFirst) {
  std::vector<NodeId> parent{graph::kInvalidNode, 0, 1, 2};
  const RootedForest forest(parent);
  const auto topo = forest.topological();
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  for (NodeId v = 1; v < 4; ++v) EXPECT_LT(position[v - 1], position[v]);
}

TEST(RootedForest, RejectsCycles) {
  std::vector<NodeId> parent{1, 0};
  EXPECT_THROW(RootedForest{parent}, std::invalid_argument);
}

TEST(RootedForest, RejectsSelfParent) {
  std::vector<NodeId> parent{0};
  EXPECT_THROW(RootedForest{parent}, std::invalid_argument);
}

TEST(RootedForest, RejectsOutOfRangeParent) {
  std::vector<NodeId> parent{5};
  EXPECT_THROW(RootedForest{parent}, std::invalid_argument);
}

// --- skew heap ---------------------------------------------------------------------

TEST(SkewHeap, PopsInAscendingOrder) {
  SkewHeapPool pool;
  SkewHeapPool::Handle h = SkewHeapPool::kEmpty;
  const std::vector<double> keys{5.0, 1.0, 3.0, 2.0, 4.0};
  for (std::size_t i = 0; i < keys.size(); ++i)
    h = pool.meld(h, pool.make(keys[i], static_cast<std::uint32_t>(i)));
  std::vector<double> popped;
  while (!pool.empty(h)) {
    popped.push_back(pool.top_key(h));
    h = pool.pop(h);
  }
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_EQ(popped.size(), 5u);
}

TEST(SkewHeap, LazyAddShiftsAllKeys) {
  SkewHeapPool pool;
  SkewHeapPool::Handle h = SkewHeapPool::kEmpty;
  h = pool.meld(h, pool.make(10.0, 0));
  h = pool.meld(h, pool.make(20.0, 1));
  pool.add_all(h, -5.0);
  EXPECT_DOUBLE_EQ(pool.top_key(h), 5.0);
  h = pool.pop(h);
  EXPECT_DOUBLE_EQ(pool.top_key(h), 15.0);
}

TEST(SkewHeap, MeldAfterAddPreservesOffsets) {
  SkewHeapPool pool;
  auto a = pool.meld(pool.make(1.0, 0), pool.make(2.0, 1));
  pool.add_all(a, 10.0);  // keys now 11, 12
  auto b = pool.make(5.0, 2);
  auto h = pool.meld(a, b);
  EXPECT_DOUBLE_EQ(pool.top_key(h), 5.0);
  EXPECT_EQ(pool.top_payload(h), 2u);
  h = pool.pop(h);
  EXPECT_DOUBLE_EQ(pool.top_key(h), 11.0);
}

TEST(SkewHeap, RandomizedAgainstSortedReference) {
  util::Rng rng(101);
  SkewHeapPool pool;
  SkewHeapPool::Handle h = SkewHeapPool::kEmpty;
  std::vector<double> reference;
  for (int i = 0; i < 500; ++i) {
    const double key = rng.uniform(-100.0, 100.0);
    reference.push_back(key);
    h = pool.meld(h, pool.make(key, 0));
  }
  std::sort(reference.begin(), reference.end());
  for (const double expected : reference) {
    EXPECT_DOUBLE_EQ(pool.top_key(h), expected);
    h = pool.pop(h);
  }
  EXPECT_TRUE(pool.empty(h));
}

// --- strongly connected components -------------------------------------------------

TEST(Scc, SingleCycleIsOneComponent) {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 2, Sign::kPositive, 1.0)
      .add_edge(2, 0, Sign::kPositive, 1.0);
  const SccResult scc = strongly_connected_components(builder.build());
  EXPECT_EQ(scc.count, 1u);
}

TEST(Scc, DagHasSingletonComponents) {
  const SccResult scc = strongly_connected_components(make_diamond());
  EXPECT_EQ(scc.count, 4u);
}

TEST(Scc, MixedGraph) {
  // Cycle {0,1} feeding chain 2 -> 3.
  SignedGraphBuilder builder(4);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 0, Sign::kPositive, 1.0)
      .add_edge(1, 2, Sign::kPositive, 1.0)
      .add_edge(2, 3, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 3u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_NE(scc.component[1], scc.component[2]);
  EXPECT_EQ(count_source_components(g, scc), 1u);
}

TEST(Scc, SourceComponentCount) {
  // Two independent sources: {0} and the 2-cycle {1,2}; both feed 3.
  SignedGraphBuilder builder(4);
  builder.add_edge(0, 3, Sign::kPositive, 1.0)
      .add_edge(1, 2, Sign::kPositive, 1.0)
      .add_edge(2, 1, Sign::kPositive, 1.0)
      .add_edge(2, 3, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 3u);
  EXPECT_EQ(count_source_components(g, scc), 2u);
}

TEST(Scc, EmptyGraph) {
  SignedGraphBuilder builder(0);
  const SccResult scc = strongly_connected_components(builder.build());
  EXPECT_EQ(scc.count, 0u);
}

}  // namespace
}  // namespace rid::algo
