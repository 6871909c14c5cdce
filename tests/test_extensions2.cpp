// Tests for the second extension batch: cascade analytics, DOT export,
// fixed-root arborescences, and greedy influence maximization.
#include <gtest/gtest.h>

#include <sstream>

#include "oracles/arborescence_root.hpp"
#include "diffusion/cascade_stats.hpp"
#include "diffusion/influence_max.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/dot_export.hpp"
#include "oracles/branching.hpp"
#include "util/rng.hpp"

namespace rid {
namespace {

using graph::NodeId;
using graph::NodeState;
using graph::Sign;
using graph::SignedGraph;
using graph::SignedGraphBuilder;

// --- cascade stats -------------------------------------------------------------

diffusion::Cascade chain_cascade() {
  // 0 -> 1 -> 2 with certain links; seed at 0.
  SignedGraphBuilder builder(4);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 2, Sign::kPositive, 1.0);
  util::Rng rng(1);
  return diffusion::simulate_mfc(
      builder.build(), {{0}, {NodeState::kPositive}}, {}, rng);
}

TEST(CascadeStats, PerStepCounts) {
  const auto cascade = chain_cascade();
  const auto per_step = diffusion::infected_per_step(cascade);
  ASSERT_EQ(per_step.size(), 3u);
  EXPECT_EQ(per_step[0], 1u);  // seed
  EXPECT_EQ(per_step[1], 1u);
  EXPECT_EQ(per_step[2], 1u);
  const auto cumulative = diffusion::cumulative_infected(cascade);
  EXPECT_EQ(cumulative.back(), 3u);
  EXPECT_TRUE(std::is_sorted(cumulative.begin(), cumulative.end()));
}

TEST(CascadeStats, OpinionBalance) {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kNegative, 1.0)
      .add_edge(0, 2, Sign::kPositive, 1.0);
  util::Rng rng(1);
  const auto cascade = diffusion::simulate_mfc(
      builder.build(), {{0}, {NodeState::kPositive}}, {}, rng);
  const auto balance = diffusion::opinion_balance(cascade);
  EXPECT_EQ(balance.positive, 2u);  // seed + node 2
  EXPECT_EQ(balance.negative, 1u);  // node 1 via the distrust link
  EXPECT_DOUBLE_EQ(balance.positive_fraction, 2.0 / 3.0);
}

TEST(CascadeStats, ActivationDepths) {
  const auto cascade = chain_cascade();
  const auto depths = diffusion::activation_depths(cascade);
  EXPECT_EQ(depths[0], 0u);
  EXPECT_EQ(depths[1], 1u);
  EXPECT_EQ(depths[2], 2u);
  EXPECT_EQ(depths[3], diffusion::kInvalidDepth);  // untouched node
}

TEST(CascadeStats, DepthsOnRandomNoFlipCascadeMatchSteps) {
  util::Rng rng(9);
  const auto el = gen::erdos_renyi(150, 900, rng);
  SignedGraph g = gen::assign_signs_all_positive(el);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.1, 0.5));
  diffusion::MfcConfig config;
  config.allow_flipping = false;
  const auto cascade = diffusion::simulate_mfc(
      g, {{0, 1}, {NodeState::kPositive, NodeState::kPositive}}, config, rng);
  const auto depths = diffusion::activation_depths(cascade);
  // Without flipping the activation forest is well-formed: every infected
  // node has a valid depth equal to its activation step.
  for (const NodeId v : cascade.infected) {
    ASSERT_NE(depths[v], diffusion::kInvalidDepth);
    EXPECT_EQ(depths[v], cascade.step[v]);
  }
}

TEST(CascadeStats, FlipCyclesAreMarkedInvalid) {
  // Build the 2-cycle flip scenario: 0 -(pos)-> 1, 1 -(pos)-> 0 with seeds
  // of opposite opinions; with certain weights each flips the other once,
  // leaving activator pointers 0 <-> 1.
  SignedGraphBuilder builder(2);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 0, Sign::kPositive, 1.0);
  util::Rng rng(3);
  const auto cascade = diffusion::simulate_mfc(
      builder.build(),
      {{0, 1}, {NodeState::kPositive, NodeState::kNegative}}, {}, rng);
  if (cascade.activator[0] != graph::kInvalidNode &&
      cascade.activator[1] != graph::kInvalidNode) {
    const auto depths = diffusion::activation_depths(cascade);
    EXPECT_EQ(depths[0], diffusion::kInvalidDepth);
    EXPECT_EQ(depths[1], diffusion::kInvalidDepth);
  }
}

// --- DOT export ----------------------------------------------------------------

TEST(DotExport, ContainsNodesEdgesAndColors) {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 0.5)
      .add_edge(1, 2, Sign::kNegative, 0.25);
  const SignedGraph g = builder.build();
  const std::vector<NodeState> states{NodeState::kPositive,
                                      NodeState::kNegative,
                                      NodeState::kInactive};
  std::ostringstream out;
  graph::save_dot(g, out, {.states = states, .edge_weights = true});
  const std::string dot = out.str();
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("forestgreen"), std::string::npos);
  EXPECT_NE(dot.find("crimson"), std::string::npos);
  EXPECT_NE(dot.find("palegreen"), std::string::npos);
  EXPECT_NE(dot.find("lightcoral"), std::string::npos);
  EXPECT_NE(dot.find("0.500"), std::string::npos);
}

TEST(DotExport, RejectsStateSizeMismatch) {
  SignedGraphBuilder builder(2);
  const SignedGraph g = builder.build();
  const std::vector<NodeState> wrong(1, NodeState::kPositive);
  std::ostringstream out;
  EXPECT_THROW(graph::save_dot(g, out, {.states = wrong}),
               std::invalid_argument);
}

// --- fixed-root arborescence ------------------------------------------------------

std::vector<algo::WeightedArc> arcs_from(
    std::initializer_list<std::tuple<NodeId, NodeId, double>> list) {
  std::vector<algo::WeightedArc> arcs;
  std::uint32_t id = 0;
  for (const auto& [u, v, w] : list) arcs.push_back({u, v, w, id++});
  return arcs;
}

TEST(RootedArborescence, SimpleChain) {
  const auto arcs = arcs_from({{0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 1.0}});
  const auto result = algo::max_arborescence(3, arcs, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->total_weight, 5.0);
  EXPECT_EQ(result->parent[1], 0u);
  EXPECT_EQ(result->parent[2], 1u);
  EXPECT_EQ(result->parent[0], graph::kInvalidNode);
  EXPECT_EQ(result->parent_arc[2], 1u);  // original arc index
}

TEST(RootedArborescence, InfeasibleWhenUnreachable) {
  const auto arcs = arcs_from({{0, 1, 1.0}});
  EXPECT_FALSE(algo::max_arborescence(3, arcs, 0).has_value());
}

TEST(RootedArborescence, ArcsIntoRootIgnored) {
  const auto arcs = arcs_from({{1, 0, 100.0}, {0, 1, 1.0}});
  const auto result = algo::max_arborescence(2, arcs, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->total_weight, 1.0);
}

TEST(RootedArborescence, MinVariantPicksLightArcs) {
  const auto arcs = arcs_from(
      {{0, 1, 5.0}, {0, 1, 2.0}, {0, 2, 1.0}, {1, 2, 0.5}});
  const auto result = algo::min_arborescence(3, arcs, 0);
  ASSERT_TRUE(result.has_value());
  // Min: take 0->1 (2.0) and 1->2 (0.5) = 2.5.
  EXPECT_DOUBLE_EQ(result->total_weight, 2.5);
  EXPECT_EQ(result->parent_arc[1], 1u);
  EXPECT_EQ(result->parent_arc[2], 3u);
}

TEST(RootedArborescence, CycleResolution) {
  // Classic: root feeds a 2-cycle.
  const auto arcs = arcs_from(
      {{0, 1, 1.0}, {1, 2, 10.0}, {2, 1, 10.0}, {0, 2, 1.0}});
  const auto result = algo::max_arborescence(3, arcs, 0);
  ASSERT_TRUE(result.has_value());
  // Either enter at 1 (1 + 10) or at 2 (1 + 10): weight 11 both ways.
  EXPECT_DOUBLE_EQ(result->total_weight, 11.0);
}

TEST(RootedArborescence, MatchesCoverageBruteForceOnRandomGraphs) {
  // Whenever a spanning arborescence from the root exists, its weight must
  // match the brute-force coverage-maximizing branching over the same arcs
  // (which then has exactly one root: ours).
  util::Rng rng(2026);
  for (int trial = 0; trial < 100; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(4));
    std::vector<algo::WeightedArc> arcs;
    const std::size_t m = rng.next_below(10);
    for (std::uint32_t i = 0; i < m; ++i) {
      arcs.push_back({static_cast<NodeId>(rng.next_below(n)),
                      static_cast<NodeId>(rng.next_below(n)),
                      rng.uniform(-2.0, 2.0), i});
    }
    const NodeId root = static_cast<NodeId>(rng.next_below(n));
    std::vector<algo::WeightedArc> filtered;
    for (const auto& a : arcs)
      if (a.dst != root) filtered.push_back(a);
    const auto brute = algo::max_branching_brute_force(n, filtered);
    const auto result = algo::max_arborescence(n, arcs, root);
    if (brute.num_roots == 1 &&
        brute.parent[root] == graph::kInvalidNode) {
      ASSERT_TRUE(result.has_value()) << "trial " << trial;
      EXPECT_NEAR(result->total_weight, brute.total_weight, 1e-9)
          << "trial " << trial;
      // Structural sanity: parent pointers form a tree rooted at `root`.
      for (NodeId v = 0; v < n; ++v) {
        if (v == root) {
          EXPECT_EQ(result->parent[v], graph::kInvalidNode);
        } else {
          EXPECT_NE(result->parent[v], graph::kInvalidNode);
        }
      }
    } else {
      EXPECT_FALSE(result.has_value()) << "trial " << trial;
    }
  }
}

TEST(RootedArborescence, RootValidation) {
  const std::vector<algo::WeightedArc> none;
  EXPECT_THROW(algo::max_arborescence(2, none, 5), std::out_of_range);
}

// --- influence maximization ---------------------------------------------------------

TEST(InfluenceMax, EstimateSpreadOnDeterministicChain) {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 2, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  util::Rng rng(1);
  const double spread = diffusion::estimate_spread(
      g, {{0}, {NodeState::kPositive}}, {}, 20, rng);
  EXPECT_DOUBLE_EQ(spread, 3.0);
}

TEST(InfluenceMax, GreedyPicksTheHub) {
  // A star hub with certain links dominates every other node.
  SignedGraphBuilder builder(8);
  for (NodeId v = 1; v < 6; ++v) builder.add_edge(0, v, Sign::kPositive, 1.0);
  builder.add_edge(6, 7, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  util::Rng rng(5);
  diffusion::InfluenceMaxConfig config;
  config.k = 1;
  config.num_samples = 10;
  const auto result = diffusion::greedy_influence_max(g, config, rng);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_DOUBLE_EQ(result.total_spread, 6.0);
}

TEST(InfluenceMax, MarginalGainsAreDiminishingOnDisjointStars) {
  // Two disjoint certain stars of sizes 4 and 3: greedy takes the bigger
  // hub first, and marginal gains decrease.
  SignedGraphBuilder builder(7);
  for (NodeId v = 1; v < 4; ++v) builder.add_edge(0, v, Sign::kPositive, 1.0);
  for (NodeId v = 5; v < 7; ++v) builder.add_edge(4, v, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  util::Rng rng(5);
  diffusion::InfluenceMaxConfig config;
  config.k = 2;
  config.num_samples = 5;
  const auto result = diffusion::greedy_influence_max(g, config, rng);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(result.seeds[1], 4u);
  EXPECT_DOUBLE_EQ(result.marginal_spread[0], 4.0);
  EXPECT_DOUBLE_EQ(result.marginal_spread[1], 3.0);
  EXPECT_DOUBLE_EQ(result.total_spread, 7.0);
}

TEST(InfluenceMax, CandidatePoolRestrictsSearch) {
  SignedGraphBuilder builder(10);
  for (NodeId v = 1; v < 6; ++v) builder.add_edge(0, v, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  util::Rng rng(7);
  diffusion::InfluenceMaxConfig config;
  config.k = 1;
  config.num_samples = 5;
  config.candidate_pool = 1;  // only the top-out-degree node: the hub
  const auto result = diffusion::greedy_influence_max(g, config, rng);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(InfluenceMax, Validation) {
  SignedGraphBuilder builder(3);
  const SignedGraph g = builder.build();
  util::Rng rng(1);
  diffusion::InfluenceMaxConfig config;
  config.k = 0;
  EXPECT_THROW(diffusion::greedy_influence_max(g, config, rng),
               std::invalid_argument);
  config.k = 1;
  config.seed_state = NodeState::kUnknown;
  EXPECT_THROW(diffusion::greedy_influence_max(g, config, rng),
               std::invalid_argument);
  EXPECT_THROW(
      diffusion::estimate_spread(g, {{0}, {NodeState::kPositive}}, {}, 0, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace rid
