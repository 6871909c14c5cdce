#include "core/cascade_extraction.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "algo/forest.hpp"
#include "core/isomit.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "util/rng.hpp"

namespace rid::core {
namespace {

using graph::NodeId;
using graph::NodeState;
using graph::Sign;
using graph::SignedGraph;
using graph::SignedGraphBuilder;

TEST(IsomitTypes, InfectedNodesSelectsActiveStates) {
  const std::vector<NodeState> states{
      NodeState::kInactive, NodeState::kPositive, NodeState::kNegative,
      NodeState::kUnknown, NodeState::kInactive};
  const auto infected = infected_nodes(states);
  EXPECT_EQ(infected, (std::vector<NodeId>{1, 2, 3}));
}

TEST(IsomitTypes, SnapshotValidation) {
  SignedGraphBuilder builder(3);
  const SignedGraph g = builder.build();
  const std::vector<NodeState> wrong(2, NodeState::kInactive);
  EXPECT_THROW(validate_snapshot(g, wrong), std::invalid_argument);
}

TEST(CascadeExtraction, EmptySnapshot) {
  SignedGraphBuilder builder(4);
  builder.add_edge(0, 1, Sign::kPositive, 0.5);
  const SignedGraph g = builder.build();
  const std::vector<NodeState> states(4, NodeState::kInactive);
  const CascadeForest forest =
      extract_cascade_forest(g, states, ExtractionConfig{});
  EXPECT_TRUE(forest.trees.empty());
  EXPECT_EQ(forest.num_components, 0u);
}

TEST(CascadeExtraction, SingleChainBecomesOneTree) {
  // Diffusion chain 0 -> 1 -> 2 all infected.
  SignedGraphBuilder builder(4);
  builder.add_edge(0, 1, Sign::kPositive, 0.5)
      .add_edge(1, 2, Sign::kPositive, 0.5);
  const SignedGraph g = builder.build();
  std::vector<NodeState> states(4, NodeState::kInactive);
  states[0] = states[1] = states[2] = NodeState::kPositive;
  const CascadeForest forest =
      extract_cascade_forest(g, states, ExtractionConfig{});
  ASSERT_EQ(forest.trees.size(), 1u);
  EXPECT_EQ(forest.num_components, 1u);
  const CascadeTree& tree = forest.trees[0];
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.global[tree.root], 0u);  // the only possible root
  // Parents precede children in local order.
  for (std::size_t v = 1; v < tree.size(); ++v)
    EXPECT_LT(tree.parent[v], v);
}

TEST(CascadeExtraction, ComponentsSeparateTrees) {
  SignedGraphBuilder builder(6);
  builder.add_edge(0, 1, Sign::kPositive, 0.5)
      .add_edge(3, 4, Sign::kNegative, 0.5);
  const SignedGraph g = builder.build();
  std::vector<NodeState> states(6, NodeState::kInactive);
  states[0] = states[1] = NodeState::kPositive;
  states[3] = NodeState::kPositive;
  states[4] = NodeState::kNegative;
  const CascadeForest forest =
      extract_cascade_forest(g, states, ExtractionConfig{});
  EXPECT_EQ(forest.num_components, 2u);
  EXPECT_EQ(forest.trees.size(), 2u);
}

TEST(CascadeExtraction, IsolatedInfectedNodeIsItsOwnTree) {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 0.5);
  const SignedGraph g = builder.build();
  std::vector<NodeState> states(3, NodeState::kInactive);
  states[2] = NodeState::kNegative;
  const CascadeForest forest =
      extract_cascade_forest(g, states, ExtractionConfig{});
  ASSERT_EQ(forest.trees.size(), 1u);
  EXPECT_EQ(forest.trees[0].size(), 1u);
  EXPECT_EQ(forest.trees[0].global[0], 2u);
  EXPECT_DOUBLE_EQ(forest.trees[0].in_g[0], 1.0);
}

TEST(CascadeExtraction, PrefersHeavierActivationArcs) {
  // Node 2 reachable from both 0 (w 0.1) and 1 (w 0.9): the maximum
  // likelihood tree uses the heavier arc.
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 0.5)
      .add_edge(0, 2, Sign::kPositive, 0.1)
      .add_edge(1, 2, Sign::kPositive, 0.9);
  const SignedGraph g = builder.build();
  const std::vector<NodeState> states(3, NodeState::kPositive);
  const CascadeForest forest =
      extract_cascade_forest(g, states, ExtractionConfig{});
  ASSERT_EQ(forest.trees.size(), 1u);
  const CascadeTree& tree = forest.trees[0];
  // Find node 2's parent in global terms.
  for (std::size_t v = 0; v < tree.size(); ++v) {
    if (tree.global[v] == 2u) {
      ASSERT_NE(tree.parent[v], graph::kInvalidNode);
      EXPECT_EQ(tree.global[tree.parent[v]], 1u);
    }
  }
}

TEST(CascadeExtraction, GFactorAnnotationsMatchStates) {
  // 0 -(pos, .2)-> 1 with matching states: g = min(1, 3*0.2) = 0.6.
  // 1 -(neg, .5)-> 2 with inconsistent states: g = 0.
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 0.2)
      .add_edge(1, 2, Sign::kNegative, 0.5);
  const SignedGraph g = builder.build();
  std::vector<NodeState> states{NodeState::kPositive, NodeState::kPositive,
                                NodeState::kPositive};  // 2 inconsistent
  const CascadeForest forest =
      extract_cascade_forest(g, states, ExtractionConfig{});
  ASSERT_EQ(forest.trees.size(), 1u);
  const CascadeTree& tree = forest.trees[0];
  ASSERT_EQ(tree.size(), 3u);
  std::map<NodeId, double> g_by_global;
  for (std::size_t v = 0; v < tree.size(); ++v)
    g_by_global[tree.global[v]] = tree.in_g[v];
  EXPECT_DOUBLE_EQ(g_by_global[0], 1.0);
  EXPECT_DOUBLE_EQ(g_by_global[1], 0.6);
  EXPECT_DOUBLE_EQ(g_by_global[2], 0.0);
}

TEST(CascadeExtraction, UnknownStatesImputedConsistently) {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kNegative, 0.5)
      .add_edge(1, 2, Sign::kNegative, 0.5);
  const SignedGraph g = builder.build();
  std::vector<NodeState> states{NodeState::kPositive, NodeState::kUnknown,
                                NodeState::kUnknown};
  const CascadeForest forest =
      extract_cascade_forest(g, states, ExtractionConfig{});
  ASSERT_EQ(forest.trees.size(), 1u);
  const CascadeTree& tree = forest.trees[0];
  std::map<NodeId, NodeState> state_by_global;
  std::map<NodeId, double> g_by_global;
  for (std::size_t v = 0; v < tree.size(); ++v) {
    state_by_global[tree.global[v]] = tree.state[v];
    g_by_global[tree.global[v]] = tree.in_g[v];
  }
  EXPECT_EQ(state_by_global[1], NodeState::kNegative);  // +1 * -1
  EXPECT_EQ(state_by_global[2], NodeState::kPositive);  // -1 * -1
  // Imputation makes every tree edge consistent -> g > 0.
  EXPECT_GT(g_by_global[1], 0.0);
  EXPECT_GT(g_by_global[2], 0.0);
}

TEST(CascadeExtraction, UnknownRootDefaultsPositive) {
  SignedGraphBuilder builder(1);
  const SignedGraph g = builder.build();
  const std::vector<NodeState> states{NodeState::kUnknown};
  const CascadeForest forest =
      extract_cascade_forest(g, states, ExtractionConfig{});
  ASSERT_EQ(forest.trees.size(), 1u);
  EXPECT_EQ(forest.trees[0].state[0], NodeState::kPositive);
}

TEST(CascadeExtraction, EveryInfectedNodeAppearsExactlyOnce) {
  util::Rng rng(9);
  const auto el = gen::erdos_renyi(80, 400, rng);
  const SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.7}, rng);
  std::vector<NodeState> states(80, NodeState::kInactive);
  std::set<NodeId> infected;
  for (NodeId v = 0; v < 80; v += 2) {
    states[v] = NodeState::kPositive;
    infected.insert(v);
  }
  const CascadeForest forest =
      extract_cascade_forest(g, states, ExtractionConfig{});
  std::multiset<NodeId> seen;
  for (const CascadeTree& tree : forest.trees) {
    // Each tree is a valid rooted tree.
    EXPECT_NO_THROW(algo::RootedForest{tree.parent});
    for (const NodeId v : tree.global) seen.insert(v);
  }
  EXPECT_EQ(seen.size(), infected.size());
  for (const NodeId v : infected) EXPECT_EQ(seen.count(v), 1u);
}

TEST(CascadeExtraction, MfcGroundTruthMostlyRecoverable) {
  // Simulate MFC (no flipping) and check the extraction covers all infected
  // nodes and that tree roots are a subset of... the seeds, when every
  // activation link survives in the infected subgraph (always true: the
  // activator of any infected node is itself infected).
  util::Rng rng(13);
  const auto el = gen::erdos_renyi(300, 2400, rng);
  SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.05, 0.3));

  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 10; ++v) {
    seeds.nodes.push_back(v * 30);
    seeds.states.push_back(v % 2 == 0 ? NodeState::kPositive
                                      : NodeState::kNegative);
  }
  diffusion::MfcConfig mfc;
  mfc.allow_flipping = false;
  const diffusion::Cascade cascade = diffusion::simulate_mfc(g, seeds, mfc, rng);

  const CascadeForest forest =
      extract_cascade_forest(g, cascade.state, ExtractionConfig{});
  std::size_t covered = 0;
  for (const CascadeTree& tree : forest.trees) covered += tree.size();
  EXPECT_EQ(covered, cascade.num_infected());
  // Every non-seed infected node has an infected in-neighbor, so it can
  // never be a root unless cycle-breaking forced it; trees <= components +
  // forced breaks. Sanity: tree count can't exceed infected count and must
  // be >= component count.
  EXPECT_GE(forest.trees.size(), forest.num_components);
  EXPECT_LE(forest.trees.size(), cascade.num_infected());
}

TEST(CascadeExtraction, ParallelExtractionBitIdentical) {
  // Sparse graph + scattered seeds: many weakly-connected components, so
  // the per-component thread-pool path actually fans out.
  util::Rng rng(29);
  const auto el = gen::erdos_renyi(400, 500, rng);
  SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.05, 0.3));
  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 16; ++v) {
    seeds.nodes.push_back(v * 25);
    seeds.states.push_back(v % 2 == 0 ? NodeState::kPositive
                                      : NodeState::kNegative);
  }
  const diffusion::Cascade cascade =
      diffusion::simulate_mfc(g, seeds, diffusion::MfcConfig{}, rng);

  ExtractionConfig config;
  const CascadeForest base = extract_cascade_forest(g, cascade.state, config);
  ASSERT_GT(base.num_components, 2u);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    config.num_threads = threads;
    const CascadeForest forest =
        extract_cascade_forest(g, cascade.state, config);
    EXPECT_EQ(forest.num_components, base.num_components);
    EXPECT_EQ(forest.num_candidate_arcs, base.num_candidate_arcs);
    ASSERT_EQ(forest.trees.size(), base.trees.size());
    for (std::size_t t = 0; t < base.trees.size(); ++t) {
      EXPECT_EQ(forest.trees[t].global, base.trees[t].global);
      EXPECT_EQ(forest.trees[t].parent, base.trees[t].parent);
      EXPECT_EQ(forest.trees[t].parent_edge, base.trees[t].parent_edge);
      EXPECT_EQ(forest.trees[t].in_g, base.trees[t].in_g);
      EXPECT_EQ(forest.trees[t].state, base.trees[t].state);
      EXPECT_EQ(forest.trees[t].side_q, base.trees[t].side_q);
      EXPECT_EQ(forest.trees[t].root, base.trees[t].root);
    }
  }
}

}  // namespace
}  // namespace rid::core
