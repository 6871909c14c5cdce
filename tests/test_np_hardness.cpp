#include "oracles/np_hardness.hpp"

#include <gtest/gtest.h>

#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace rid::core {
namespace {

SetCoverInstance classic_instance() {
  // Elements {0..4}; optimal cover {L0, L2} of size 2.
  SetCoverInstance instance;
  instance.num_elements = 5;
  instance.subsets = {{0, 1, 2}, {1, 3}, {3, 4}, {2, 4}};
  return instance;
}

TEST(SetCover, BruteForceFindsOptimum) {
  EXPECT_EQ(min_set_cover_brute_force(classic_instance()), 2u);
}

TEST(SetCover, InfeasibleInstance) {
  SetCoverInstance instance;
  instance.num_elements = 3;
  instance.subsets = {{0, 1}};  // element 2 uncoverable
  EXPECT_EQ(min_set_cover_brute_force(instance), SIZE_MAX);
}

TEST(SetCover, SingletonCovers) {
  SetCoverInstance instance;
  instance.num_elements = 3;
  instance.subsets = {{0}, {1}, {2}, {0, 1, 2}};
  EXPECT_EQ(min_set_cover_brute_force(instance), 1u);
}

TEST(SetCover, ValidatesLimits) {
  SetCoverInstance instance;
  instance.num_elements = 100;  // > 64
  instance.subsets = {{0}};
  EXPECT_THROW(min_set_cover_brute_force(instance), std::invalid_argument);
}

TEST(Reduction, GraphShapeMatchesPaperConstruction) {
  const SetCoverInstance instance = classic_instance();
  const ReductionGraph r = build_paper_reduction(instance);
  // n + m + 1 nodes.
  EXPECT_EQ(r.diffusion.num_nodes(), 5u + 4u + 1u);
  // Links: containments + n element->dummy + m dummy->subset.
  std::size_t containments = 0;
  for (const auto& subset : instance.subsets) containments += subset.size();
  EXPECT_EQ(r.diffusion.num_edges(), containments + 5 + 4);
  // All positive signs.
  for (graph::EdgeId e = 0; e < r.diffusion.num_edges(); ++e)
    EXPECT_EQ(r.diffusion.edge_sign(e), graph::Sign::kPositive);
  // Weight pattern: element->subset = 1, element->dummy = 1/n,
  // dummy->subset = 1.
  const auto e_es = r.diffusion.find_edge(r.element_node(0), r.subset_node(0));
  ASSERT_NE(e_es, graph::kInvalidEdge);
  EXPECT_DOUBLE_EQ(r.diffusion.edge_weight(e_es), 1.0);
  const auto e_ed = r.diffusion.find_edge(r.element_node(0), r.dummy_node());
  ASSERT_NE(e_ed, graph::kInvalidEdge);
  EXPECT_DOUBLE_EQ(r.diffusion.edge_weight(e_ed), 1.0 / 5.0);
  const auto e_ds = r.diffusion.find_edge(r.dummy_node(), r.subset_node(1));
  ASSERT_NE(e_ds, graph::kInvalidEdge);
  EXPECT_DOUBLE_EQ(r.diffusion.edge_weight(e_ds), 1.0);
}

TEST(Reduction, ReversedVariantFlipsEveryLink) {
  const SetCoverInstance instance = classic_instance();
  const ReductionGraph fwd = build_paper_reduction(instance);
  const ReductionGraph rev = build_paper_reduction_reversed(instance);
  EXPECT_EQ(rev.diffusion, fwd.diffusion.reversed());
}

TEST(MinCertainSources, PolynomialMatchesBruteForceOnRandomGraphs) {
  util::Rng rng(2025);
  for (int trial = 0; trial < 100; ++trial) {
    const graph::NodeId n = 2 + static_cast<graph::NodeId>(rng.next_below(7));
    graph::SignedGraphBuilder builder(n);
    const std::size_t m = rng.next_below(2 * n);
    for (std::size_t i = 0; i < m; ++i) {
      const auto u = static_cast<graph::NodeId>(rng.next_below(n));
      const auto v = static_cast<graph::NodeId>(rng.next_below(n));
      if (u == v) continue;
      // Mix certain (w >= 1/alpha) and uncertain links.
      const double w = rng.bernoulli(0.5) ? 1.0 : 0.1;
      builder.add_edge(u, v,
                       rng.bernoulli(0.8) ? graph::Sign::kPositive
                                          : graph::Sign::kNegative,
                       w);
    }
    const graph::SignedGraph g = builder.build();
    ASSERT_EQ(min_certain_sources(g, 3.0),
              min_certain_sources_brute_force(g, 3.0))
        << "trial " << trial;
  }
}

TEST(MinCertainSources, BoostMattersForPositiveLinksOnly) {
  graph::SignedGraphBuilder builder(2);
  builder.add_edge(0, 1, graph::Sign::kPositive, 0.4);
  const graph::SignedGraph positive = builder.build();
  EXPECT_EQ(min_certain_sources(positive, 3.0), 1u);  // 3 * 0.4 >= 1
  EXPECT_EQ(min_certain_sources(positive, 2.0), 2u);  // 0.8 < 1: uncertain

  graph::SignedGraphBuilder nbuilder(2);
  nbuilder.add_edge(0, 1, graph::Sign::kNegative, 0.4);
  EXPECT_EQ(min_certain_sources(nbuilder.build(), 3.0), 2u);  // not boosted
}

// Executable probe of the transcribed Lemma 3.1 construction (DESIGN.md §2):
// under certain-coverage semantics the literal graph needs every element
// plus the dummy as sources — independent of the cover structure — and the
// reversed graph needs exactly the subset nodes. Neither equals the optimal
// cover size, which documents that the certainty variant of the reduction is
// polynomial and does not encode set cover as written.
TEST(Reduction, LiteralConstructionCertainSourceCounts) {
  const SetCoverInstance instance = classic_instance();
  const std::size_t cover = min_set_cover_brute_force(instance);
  ASSERT_EQ(cover, 2u);

  const ReductionGraph fwd = build_paper_reduction(instance);
  // Elements have no in-links; dummy's in-links are uncertain (1/n < 1/3).
  EXPECT_EQ(min_certain_sources(fwd.diffusion, 3.0),
            instance.num_elements + 1);

  const ReductionGraph rev = build_paper_reduction_reversed(instance);
  // Subset nodes have no in-links in the reversed graph.
  EXPECT_EQ(min_certain_sources(rev.diffusion, 3.0),
            instance.subsets.size());
}

TEST(Reduction, DummyIsAlwaysForcedInForwardGraph) {
  // Whatever the instance, the dummy can only be reached through 1/n links.
  SetCoverInstance instance;
  instance.num_elements = 8;
  instance.subsets = {{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 7}};
  const ReductionGraph r = build_paper_reduction(instance);
  const graph::SignedGraph certain = graph::filter_edges(
      r.diffusion, [&](graph::EdgeId e) {
        return r.diffusion.edge_weight(e) * 3.0 >= 1.0;
      });
  EXPECT_EQ(certain.in_degree(r.dummy_node()), 0u);
}

}  // namespace
}  // namespace rid::core
