#include "graph/signed_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/diffusion_network.hpp"
#include "graph/types.hpp"
#include "util/rng.hpp"

namespace rid::graph {
namespace {

SignedGraph make_triangle() {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 0.5)
      .add_edge(1, 2, Sign::kNegative, 0.25)
      .add_edge(2, 0, Sign::kPositive, 0.75);
  return builder.build();
}

TEST(Types, SignArithmetic) {
  EXPECT_EQ(Sign::kPositive * Sign::kPositive, Sign::kPositive);
  EXPECT_EQ(Sign::kPositive * Sign::kNegative, Sign::kNegative);
  EXPECT_EQ(Sign::kNegative * Sign::kNegative, Sign::kPositive);
  EXPECT_EQ(sign_value(Sign::kNegative), -1);
  EXPECT_EQ(sign_from_value(-5), Sign::kNegative);
  EXPECT_EQ(sign_from_value(1), Sign::kPositive);
}

TEST(Types, StatePredicates) {
  EXPECT_TRUE(is_active(NodeState::kPositive));
  EXPECT_TRUE(is_active(NodeState::kNegative));
  EXPECT_TRUE(is_active(NodeState::kUnknown));
  EXPECT_FALSE(is_active(NodeState::kInactive));
  EXPECT_TRUE(is_opinion(NodeState::kPositive));
  EXPECT_FALSE(is_opinion(NodeState::kUnknown));
  EXPECT_FALSE(is_opinion(NodeState::kInactive));
}

TEST(Types, PropagateStateFollowsSignProduct) {
  EXPECT_EQ(propagate_state(NodeState::kPositive, Sign::kPositive),
            NodeState::kPositive);
  EXPECT_EQ(propagate_state(NodeState::kPositive, Sign::kNegative),
            NodeState::kNegative);
  EXPECT_EQ(propagate_state(NodeState::kNegative, Sign::kNegative),
            NodeState::kPositive);
  EXPECT_EQ(propagate_state(NodeState::kNegative, Sign::kPositive),
            NodeState::kNegative);
}

TEST(Types, ToStringRepresentations) {
  EXPECT_EQ(to_string(Sign::kPositive), "+1");
  EXPECT_EQ(to_string(NodeState::kUnknown), "?");
  EXPECT_EQ(to_string(NodeState::kInactive), "0");
}

TEST(SignedGraph, BasicAccessors) {
  const SignedGraph g = make_triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  const EdgeId e01 = g.find_edge(0, 1);
  ASSERT_NE(e01, kInvalidEdge);
  EXPECT_EQ(g.edge_src(e01), 0u);
  EXPECT_EQ(g.edge_dst(e01), 1u);
  EXPECT_EQ(g.edge_sign(e01), Sign::kPositive);
  EXPECT_DOUBLE_EQ(g.edge_weight(e01), 0.5);
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  EXPECT_EQ(g.find_edge(2, 1), kInvalidEdge);
}

TEST(SignedGraph, DegreesAndAdjacency) {
  const SignedGraph g = make_triangle();
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.out_degree(v), 1u);
    EXPECT_EQ(g.in_degree(v), 1u);
  }
  EXPECT_EQ(g.out_neighbors(0).size(), 1u);
  EXPECT_EQ(g.out_neighbors(0)[0], 1u);
  ASSERT_EQ(g.in_edge_ids(0).size(), 1u);
  EXPECT_EQ(g.edge_src(g.in_edge_ids(0)[0]), 2u);
}

TEST(SignedGraph, OutNeighborsAreSorted) {
  SignedGraphBuilder builder(5);
  builder.add_edge(0, 4, Sign::kPositive, 1.0)
      .add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(0, 3, Sign::kNegative, 1.0);
  const SignedGraph g = builder.build();
  const auto neighbors = g.out_neighbors(0);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
}

TEST(SignedGraph, InEdgesSortedBySource) {
  SignedGraphBuilder builder(4);
  builder.add_edge(3, 0, Sign::kPositive, 1.0)
      .add_edge(1, 0, Sign::kPositive, 1.0)
      .add_edge(2, 0, Sign::kNegative, 1.0);
  const SignedGraph g = builder.build();
  const auto in = g.in_edge_ids(0);
  ASSERT_EQ(in.size(), 3u);
  EXPECT_EQ(g.edge_src(in[0]), 1u);
  EXPECT_EQ(g.edge_src(in[1]), 2u);
  EXPECT_EQ(g.edge_src(in[2]), 3u);
}

TEST(SignedGraphBuilder, RejectsBadInput) {
  SignedGraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2, Sign::kPositive, 0.5),
               std::out_of_range);
  EXPECT_THROW(builder.add_edge(0, 1, Sign::kPositive, 1.5),
               std::invalid_argument);
  EXPECT_THROW(builder.add_edge(0, 1, Sign::kPositive, -0.1),
               std::invalid_argument);
}

TEST(SignedGraphBuilder, DropsSelfLoopsByDefault) {
  SignedGraphBuilder builder(2);
  builder.add_edge(0, 0, Sign::kPositive, 1.0)
      .add_edge(0, 1, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SignedGraphBuilder, KeepsSelfLoopsWhenAsked) {
  SignedGraphBuilder builder(2);
  builder.add_edge(0, 0, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build(
      {.drop_self_loops = false, .dedup_parallel_edges = true});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SignedGraphBuilder, DedupKeepsFirstOccurrence) {
  SignedGraphBuilder builder(2);
  builder.add_edge(0, 1, Sign::kPositive, 0.9)
      .add_edge(0, 1, Sign::kNegative, 0.1);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.num_edges(), 1u);
  const EdgeId e = g.find_edge(0, 1);
  EXPECT_EQ(g.edge_sign(e), Sign::kPositive);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 0.9);
}

TEST(SignedGraphBuilder, EnsureNodeGrowsUniverse) {
  SignedGraphBuilder builder(1);
  builder.ensure_node(5);
  EXPECT_EQ(builder.num_nodes(), 6u);
  builder.add_edge(5, 0, Sign::kPositive, 1.0);
  EXPECT_EQ(builder.build().num_nodes(), 6u);
}

TEST(SignedGraph, SetEdgeWeightValidates) {
  SignedGraph g = make_triangle();
  const EdgeId e = g.find_edge(0, 1);
  g.set_edge_weight(e, 0.33);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 0.33);
  EXPECT_THROW(g.set_edge_weight(e, 2.0), std::invalid_argument);
}

TEST(SignedGraph, ReversedSwapsDirections) {
  const SignedGraph g = make_triangle();
  const SignedGraph r = g.reversed();
  EXPECT_EQ(r.num_nodes(), g.num_nodes());
  EXPECT_EQ(r.num_edges(), g.num_edges());
  const EdgeId e10 = r.find_edge(1, 0);
  ASSERT_NE(e10, kInvalidEdge);
  EXPECT_EQ(r.edge_sign(e10), Sign::kPositive);
  EXPECT_DOUBLE_EQ(r.edge_weight(e10), 0.5);
  EXPECT_EQ(r.find_edge(0, 1), kInvalidEdge);
}

TEST(SignedGraph, ReverseTwiceIsIdentity) {
  const SignedGraph g = make_triangle();
  EXPECT_EQ(g.reversed().reversed(), g);
}

TEST(SignedGraph, DiffusionNetworkEqualsReversed) {
  const SignedGraph g = make_triangle();
  EXPECT_EQ(make_diffusion_network(g), g.reversed());
}

TEST(SignedGraph, EmptyGraph) {
  SignedGraphBuilder builder(0);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(SignedGraph, NodesWithoutEdges) {
  SignedGraphBuilder builder(10);
  builder.add_edge(0, 9, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.out_degree(5), 0u);
  EXPECT_EQ(g.in_degree(5), 0u);
  EXPECT_TRUE(g.out_neighbors(5).empty());
}

TEST(SignedGraph, MemoryBytesIsPositive) {
  EXPECT_GT(make_triangle().memory_bytes(), 0u);
}

TEST(SignedGraph, ParallelEdgeHeavyBuild) {
  SignedGraphBuilder builder(3);
  for (int i = 0; i < 100; ++i)
    builder.add_edge(0, 1, Sign::kPositive, 0.01 * i / 100.0);
  builder.add_edge(1, 2, Sign::kNegative, 0.5);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.num_edges(), 2u);
}

// --- Oracles: the builder's index-sort normalization and the builder-based
// reversal that SignedGraph used before its counting-sort build and O(m)
// transpose. Both live here only, as references.

/// Every CSR column a SignedGraph exposes.
struct Csr {
  std::vector<EdgeId> out_offsets;
  std::vector<NodeId> src, dst;
  std::vector<Sign> sign;
  std::vector<double> weight;
  std::vector<EdgeId> in_offsets, in_edge;
  bool operator==(const Csr&) const = default;
};

Csr csr_of(const SignedGraph& g) {
  const auto copy = [](auto span) {
    return std::vector<typename decltype(span)::value_type>(span.begin(),
                                                            span.end());
  };
  return {copy(g.csr_out_offsets()), copy(g.csr_srcs()),
          copy(g.csr_dsts()),        copy(g.csr_signs()),
          copy(g.csr_weights()),     copy(g.csr_in_offsets()),
          copy(g.csr_in_edges())};
}

/// Edge rows in insertion order.
struct Rows {
  NodeId num_nodes = 0;
  std::vector<NodeId> src, dst;
  std::vector<Sign> sign;
  std::vector<double> weight;

  void add(NodeId s, NodeId d, Sign sg, double w) {
    src.push_back(s);
    dst.push_back(d);
    sign.push_back(sg);
    weight.push_back(w);
  }
};

/// Comparison sort of insertion indices by (src, dst, index), then the
/// first-occurrence sweep and a counting sort for the in-adjacency.
Csr oracle_build(const Rows& rows,
                 const SignedGraphBuilder::BuildOptions& options) {
  std::vector<std::size_t> order(rows.src.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rows.src[a] != rows.src[b]) return rows.src[a] < rows.src[b];
    if (rows.dst[a] != rows.dst[b]) return rows.dst[a] < rows.dst[b];
    return a < b;
  });
  Csr g;
  g.out_offsets.assign(rows.num_nodes + 1, 0);
  NodeId prev_src = kInvalidNode;
  NodeId prev_dst = kInvalidNode;
  for (const std::size_t i : order) {
    const NodeId s = rows.src[i];
    const NodeId d = rows.dst[i];
    if (options.drop_self_loops && s == d) continue;
    if (options.dedup_parallel_edges && s == prev_src && d == prev_dst)
      continue;
    prev_src = s;
    prev_dst = d;
    g.src.push_back(s);
    g.dst.push_back(d);
    g.sign.push_back(rows.sign[i]);
    g.weight.push_back(rows.weight[i]);
    ++g.out_offsets[s + 1];
  }
  for (NodeId u = 0; u < rows.num_nodes; ++u)
    g.out_offsets[u + 1] += g.out_offsets[u];
  g.in_offsets.assign(rows.num_nodes + 1, 0);
  for (const NodeId d : g.dst) ++g.in_offsets[d + 1];
  for (NodeId v = 0; v < rows.num_nodes; ++v)
    g.in_offsets[v + 1] += g.in_offsets[v];
  g.in_edge.resize(g.dst.size());
  std::vector<EdgeId> cursor(g.in_offsets.begin(), g.in_offsets.end() - 1);
  for (EdgeId e = 0; e < g.dst.size(); ++e) g.in_edge[cursor[g.dst[e]]++] = e;
  return g;
}

/// Every edge re-added flipped, in edge id order, then built without
/// normalization.
Rows reversed_rows(const SignedGraph& g) {
  Rows rows;
  rows.num_nodes = g.num_nodes();
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    rows.add(g.edge_dst(e), g.edge_src(e), g.edge_sign(e), g.edge_weight(e));
  return rows;
}

SignedGraph build_rows(const Rows& rows,
                       const SignedGraphBuilder::BuildOptions& options) {
  SignedGraphBuilder builder(rows.num_nodes);
  for (std::size_t i = 0; i < rows.src.size(); ++i)
    builder.add_edge(rows.src[i], rows.dst[i], rows.sign[i], rows.weight[i]);
  return builder.build(options);
}

/// Random multigraph rows in random insertion order: hub-heavy endpoints
/// make parallel edges and self-loops common, and a sparse edge budget
/// leaves isolated nodes.
Rows random_rows(util::Rng& rng) {
  Rows rows;
  rows.num_nodes = static_cast<NodeId>(rng.next_below(40));
  const std::size_t m =
      rows.num_nodes == 0 ? 0 : static_cast<std::size_t>(rng.next_below(160));
  const auto node = [&] {
    const std::uint64_t span = rng.bernoulli(0.5)
                                   ? std::min<std::uint64_t>(rows.num_nodes, 3)
                                   : rows.num_nodes;
    return static_cast<NodeId>(rng.next_below(span));
  };
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId s = node();
    const NodeId d = rng.bernoulli(0.1) ? s : node();
    rows.add(s, d, rng.bernoulli(0.7) ? Sign::kPositive : Sign::kNegative,
             rng.bernoulli(0.2) ? 0.5 : rng.uniform(0.0, 1.0));
  }
  return rows;
}

TEST(SignedGraphOracle, BuildAndReversedMatchOraclesOnRandomMultigraphs) {
  util::Rng rng(20260415);
  const SignedGraphBuilder::BuildOptions all_options[] = {
      {.drop_self_loops = true, .dedup_parallel_edges = true},
      {.drop_self_loops = true, .dedup_parallel_edges = false},
      {.drop_self_loops = false, .dedup_parallel_edges = true},
      {.drop_self_loops = false, .dedup_parallel_edges = false},
  };
  std::size_t empty_graphs = 0, edgeless_graphs = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Rows rows = random_rows(rng);
    empty_graphs += rows.num_nodes == 0;
    edgeless_graphs += rows.num_nodes > 0 && rows.src.empty();
    for (const auto& options : all_options) {
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << " self-loops "
                   << !options.drop_self_loops << " parallel "
                   << !options.dedup_parallel_edges);
      const SignedGraph g = build_rows(rows, options);
      ASSERT_EQ(csr_of(g), oracle_build(rows, options));

      const SignedGraph r = g.reversed();
      const Rows flipped = reversed_rows(g);
      ASSERT_EQ(csr_of(r), oracle_build(flipped, {false, false}));
      ASSERT_EQ(r, build_rows(flipped, {false, false}));
      for (NodeId u = 0; u < r.num_nodes(); ++u) {
        const auto ids = r.out_edge_ids(u);
        for (std::size_t j = 0; j < ids.size(); ++j)
          ASSERT_EQ(ids[j], r.csr_out_offsets()[u] + j);
      }
      if (!options.dedup_parallel_edges) {
        ASSERT_EQ(r.reversed(), g);
      }
    }
  }
  // The generator must reach the degenerate shapes it is meant to cover.
  EXPECT_GT(empty_graphs, 0u);
  EXPECT_GT(edgeless_graphs, 0u);
}

TEST(SignedGraphOracle, DefaultConstructedGraphReversesLikeTheBuilder) {
  EXPECT_EQ(SignedGraph{}.reversed(), SignedGraphBuilder(0).build());
}

}  // namespace
}  // namespace rid::graph
