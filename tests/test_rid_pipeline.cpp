// End-to-end tests of RID and the baselines on crafted and simulated
// snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <set>

#include "core/baselines.hpp"
#include "core/jordan_center.hpp"
#include "core/rid.hpp"
#include "core/rumor_centrality.hpp"
#include "core/temporal.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/graph_io.hpp"
#include "metrics/classification.hpp"
#include "util/rng.hpp"

namespace rid::core {
namespace {

using graph::NodeId;
using graph::NodeState;
using graph::Sign;
using graph::SignedGraph;
using graph::SignedGraphBuilder;

/// Crafted snapshot: two chains seeded at 0 and 5 in separate components.
struct TwoChains {
  SignedGraph graph;
  std::vector<NodeState> states;
};

TwoChains make_two_chains() {
  SignedGraphBuilder builder(10);
  // Weights 0.2 keep boosted g-factors (0.6) strictly below 1 so every
  // extra initiator has a strictly positive gain.
  // Component A: 0 -> 1 -> 2 (all +).
  builder.add_edge(0, 1, Sign::kPositive, 0.2)
      .add_edge(1, 2, Sign::kPositive, 0.2);
  // Component B: 5 -> 6 (neg, 0.5: strong enough that covering 6 from the
  // root beats abandoning the root) -> 7 (pos).
  builder.add_edge(5, 6, Sign::kNegative, 0.5)
      .add_edge(6, 7, Sign::kPositive, 0.2);
  TwoChains out{builder.build(), std::vector<NodeState>(10, NodeState::kInactive)};
  out.states[0] = out.states[1] = out.states[2] = NodeState::kPositive;
  out.states[5] = NodeState::kPositive;
  out.states[6] = NodeState::kNegative;
  out.states[7] = NodeState::kNegative;
  return out;
}

TEST(Rid, RecoversChainSeedsWithModerateBeta) {
  const TwoChains tc = make_two_chains();
  RidConfig config;
  // Strong penalty keeps one initiator per tree. The largest split gain is
  // in component B: promoting node 6 yields (1 - 0.2) + (0.6 - 0.12) = 1.28,
  // so beta must exceed that.
  config.beta = 1.4;
  const DetectionResult result = run_rid(tc.graph, tc.states, config);
  EXPECT_EQ(result.num_components, 2u);
  EXPECT_EQ(result.num_trees, 2u);
  EXPECT_EQ(result.initiators, (std::vector<NodeId>{0, 5}));
  ASSERT_EQ(result.states.size(), 2u);
  EXPECT_EQ(result.states[0], NodeState::kPositive);
  EXPECT_EQ(result.states[1], NodeState::kPositive);
}

TEST(Rid, TinyBetaSplitsAggressively) {
  const TwoChains tc = make_two_chains();
  RidConfig config;
  config.beta = 0.0;
  const DetectionResult result = run_rid(tc.graph, tc.states, config);
  // With zero penalty every infected node becomes an initiator.
  EXPECT_EQ(result.initiators.size(), 6u);
}

TEST(Rid, BetaMonotonicity) {
  // More penalty can only reduce (or keep) the number of initiators.
  util::Rng rng(3);
  const auto el = gen::erdos_renyi(150, 900, rng);
  SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.02, 0.25));
  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 8; ++v) {
    seeds.nodes.push_back(v * 18);
    seeds.states.push_back(v % 2 ? NodeState::kNegative : NodeState::kPositive);
  }
  const diffusion::Cascade cascade =
      diffusion::simulate_mfc(g, seeds, diffusion::MfcConfig{}, rng);

  std::size_t previous = SIZE_MAX;
  for (const double beta : {0.0, 0.1, 0.5, 1.0}) {
    RidConfig config;
    config.beta = beta;
    config.dp.greedy_stop = false;  // global optimum is cleanly monotone
    const DetectionResult result = run_rid(g, cascade.state, config);
    EXPECT_LE(result.initiators.size(), previous) << "beta " << beta;
    previous = result.initiators.size();
  }
}

TEST(Rid, DetectedStatesMatchObservedSnapshotStates) {
  const TwoChains tc = make_two_chains();
  RidConfig config;
  config.beta = 0.05;
  const DetectionResult result = run_rid(tc.graph, tc.states, config);
  for (std::size_t i = 0; i < result.initiators.size(); ++i) {
    EXPECT_EQ(result.states[i], tc.states[result.initiators[i]]);
  }
}

TEST(Rid, ForestReuseMatchesDirectRun) {
  const TwoChains tc = make_two_chains();
  RidConfig config;
  config.beta = 0.2;
  const CascadeForest forest =
      extract_cascade_forest(tc.graph, tc.states, config.extraction);
  const DetectionResult a = run_rid_on_forest(forest, config);
  const DetectionResult b = run_rid(tc.graph, tc.states, config);
  EXPECT_EQ(a.initiators, b.initiators);
  EXPECT_EQ(a.states, b.states);
  EXPECT_DOUBLE_EQ(a.total_objective, b.total_objective);
}

TEST(Rid, MultiBetaMatchesPerBetaRuns) {
  util::Rng rng(77);
  const auto el = gen::erdos_renyi(250, 1800, rng);
  SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.02, 0.3));
  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 10; ++v) {
    seeds.nodes.push_back(v * 24);
    seeds.states.push_back(v % 2 ? NodeState::kNegative
                                 : NodeState::kPositive);
  }
  const diffusion::Cascade cascade =
      diffusion::simulate_mfc(g, seeds, diffusion::MfcConfig{}, rng);

  RidConfig config;
  const CascadeForest forest =
      extract_cascade_forest(g, cascade.state, config.extraction);
  const std::vector<double> betas{0.0, 0.2, 0.7, 1.5, 3.0};
  const auto multi = run_rid_betas(forest, betas, config);
  ASSERT_EQ(multi.size(), betas.size());
  for (std::size_t i = 0; i < betas.size(); ++i) {
    config.beta = betas[i];
    const DetectionResult single = run_rid_on_forest(forest, config);
    EXPECT_EQ(multi[i].initiators, single.initiators) << "beta " << betas[i];
    EXPECT_EQ(multi[i].states, single.states) << "beta " << betas[i];
    EXPECT_NEAR(multi[i].total_objective, single.total_objective, 1e-9);
  }
}

TEST(RidTree, RootsOnlyAndNoStates) {
  const TwoChains tc = make_two_chains();
  const DetectionResult result =
      run_rid_tree(tc.graph, tc.states, BaselineConfig{});
  EXPECT_EQ(result.initiators, (std::vector<NodeId>{0, 5}));
  for (const NodeState s : result.states) EXPECT_EQ(s, NodeState::kUnknown);
}

TEST(RidTree, PerfectPrecisionOnAcyclicCascades) {
  // On a DAG-like simulation without flipping, every extracted root has no
  // infected in-neighbor, hence must be a true seed (paper: RID-Tree
  // precision ~100%).
  util::Rng rng(31);
  // Layered DAG: edges only from lower to higher ids -> no cycles, so
  // cycle-breaking can never create false roots.
  SignedGraphBuilder builder(200);
  for (NodeId u = 0; u < 200; ++u) {
    for (int j = 0; j < 5; ++j) {
      const NodeId v = u + 1 + static_cast<NodeId>(rng.next_below(20));
      if (v < 200) builder.add_edge(u, v, Sign::kPositive, 0.3);
    }
  }
  const SignedGraph g = builder.build();
  diffusion::SeedSet seeds;
  for (const NodeId s : {0u, 3u, 40u, 90u, 150u}) {
    seeds.nodes.push_back(s);
    seeds.states.push_back(NodeState::kPositive);
  }
  diffusion::MfcConfig mfc;
  mfc.allow_flipping = false;
  const diffusion::Cascade cascade = diffusion::simulate_mfc(g, seeds, mfc, rng);

  const DetectionResult result =
      run_rid_tree(g, cascade.state, BaselineConfig{});
  const metrics::IdentityScores scores =
      metrics::score_identities(result.initiators, seeds.nodes);
  EXPECT_DOUBLE_EQ(scores.precision, 1.0);
  EXPECT_GT(scores.recall, 0.0);
}

TEST(RidPositive, DiscardsNegativeLinks) {
  // Chain seeded at 0 where 6's only in-link is negative: RID-Positive sees
  // 6 as a root (false positive relative to truth {5}).
  const TwoChains tc = make_two_chains();
  const DetectionResult result =
      run_rid_positive(tc.graph, tc.states, BaselineConfig{});
  // Component B loses edge 5->6; roots there: 5 (isolated) and 6 (chain 6->7).
  EXPECT_TRUE(std::binary_search(result.initiators.begin(),
                                 result.initiators.end(), 6u));
  EXPECT_EQ(result.initiators, (std::vector<NodeId>{0, 5, 6}));
}

TEST(RidPositive, OverDetectsOnDistrustHeavyGraphs) {
  util::Rng rng(17);
  const auto el = gen::erdos_renyi(200, 1200, rng);
  SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.5}, rng);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.05, 0.35));
  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 6; ++v) {
    seeds.nodes.push_back(v * 33);
    seeds.states.push_back(NodeState::kPositive);
  }
  const diffusion::Cascade cascade =
      diffusion::simulate_mfc(g, seeds, diffusion::MfcConfig{}, rng);
  const DetectionResult tree_result =
      run_rid_tree(g, cascade.state, BaselineConfig{});
  const DetectionResult positive_result =
      run_rid_positive(g, cascade.state, BaselineConfig{});
  // Dropping half the links fragments the infected subgraph into more trees.
  EXPECT_GT(positive_result.initiators.size(), tree_result.initiators.size());
}

TEST(RumorCentrality, CenterOfPathIsMiddle) {
  // Path of 5 infected nodes: the rumor center of a path is its middle.
  SignedGraphBuilder builder(5);
  for (NodeId v = 0; v + 1 < 5; ++v)
    builder.add_edge(v, v + 1, Sign::kPositive, 0.9);
  const SignedGraph g = builder.build();
  const std::vector<NodeState> states(5, NodeState::kPositive);
  const DetectionResult result =
      run_rumor_centrality(g, states, BaselineConfig{});
  ASSERT_EQ(result.initiators.size(), 1u);
  EXPECT_EQ(result.initiators[0], 2u);
}

TEST(RumorCentrality, LogCentralitiesOfStarPeakAtHub) {
  CascadeTree tree;
  tree.parent = {graph::kInvalidNode, 0, 0, 0};
  tree.in_g = {1.0, 0.5, 0.5, 0.5};
  tree.global = {0, 1, 2, 3};
  tree.parent_edge.assign(4, graph::kInvalidEdge);
  tree.state.assign(4, NodeState::kPositive);
  tree.root = 0;
  const std::vector<double> centrality = log_rumor_centralities(tree);
  for (NodeId v = 1; v < 4; ++v) EXPECT_GT(centrality[0], centrality[v]);
}

TEST(RumorCentrality, OneInitiatorPerTree) {
  const TwoChains tc = make_two_chains();
  const DetectionResult result =
      run_rumor_centrality(tc.graph, tc.states, BaselineConfig{});
  EXPECT_EQ(result.initiators.size(), result.num_trees);
}

TEST(Rid, FullSimulationBeatsOrMatchesBaselinesOnF1) {
  // The headline qualitative claim of Figure 4: RID's F1 >= both baselines'.
  util::Rng rng(47);
  const auto el = gen::erdos_renyi(400, 3200, rng);
  SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.02, 0.2));
  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 20; ++v) {
    seeds.nodes.push_back(v * 20);
    seeds.states.push_back(v % 2 ? NodeState::kNegative : NodeState::kPositive);
  }
  const diffusion::Cascade cascade =
      diffusion::simulate_mfc(g, seeds, diffusion::MfcConfig{}, rng);

  RidConfig rid_config;
  rid_config.beta = 0.1;
  const auto rid_scores = metrics::score_identities(
      run_rid(g, cascade.state, rid_config).initiators, seeds.nodes);
  const auto tree_scores = metrics::score_identities(
      run_rid_tree(g, cascade.state, BaselineConfig{}).initiators,
      seeds.nodes);
  const auto positive_scores = metrics::score_identities(
      run_rid_positive(g, cascade.state, BaselineConfig{}).initiators,
      seeds.nodes);
  EXPECT_GE(rid_scores.f1 + 1e-9, tree_scores.f1);
  EXPECT_GE(rid_scores.f1 + 1e-9, positive_scores.f1);
}

/// Simulated snapshot big enough that parallel extraction and the
/// tree-level fan-out both engage.
struct SimulatedSnapshot {
  SignedGraph graph;
  std::vector<NodeState> states;
};

SimulatedSnapshot make_parallel_snapshot() {
  util::Rng rng(59);
  const auto el = gen::erdos_renyi(350, 2500, rng);
  SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.02, 0.25));
  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 10; ++v) {
    seeds.nodes.push_back(v * 33);
    seeds.states.push_back(v % 2 ? NodeState::kNegative : NodeState::kPositive);
  }
  diffusion::Cascade cascade =
      diffusion::simulate_mfc(g, seeds, diffusion::MfcConfig{}, rng);
  return {std::move(g), std::move(cascade.state)};
}

TEST(Rid, DetectionResultThreadInvariant) {
  const SimulatedSnapshot sim = make_parallel_snapshot();
  RidConfig config;
  config.beta = 0.05;
  config.dp.rank_initiators = true;
  DetectionResult base;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    config.num_threads = threads;
    const DetectionResult result = run_rid(sim.graph, sim.states, config);
    if (threads == 1) {
      base = result;
      EXPECT_FALSE(base.initiators.empty());
      continue;
    }
    EXPECT_EQ(result.initiators, base.initiators) << "threads " << threads;
    EXPECT_EQ(result.states, base.states);
    EXPECT_EQ(result.total_opt, base.total_opt);
    EXPECT_EQ(result.total_objective, base.total_objective);
    ASSERT_EQ(result.diagnostics.trees.size(), base.diagnostics.trees.size());
    for (std::size_t t = 0; t < base.diagnostics.trees.size(); ++t)
      EXPECT_EQ(result.diagnostics.trees[t].status,
                base.diagnostics.trees[t].status);
  }
}

TEST(RidBetas, DetectionResultThreadInvariant) {
  const SimulatedSnapshot sim = make_parallel_snapshot();
  const std::vector<double> betas{0.0, 0.1, 0.5};
  RidConfig config;
  config.dp.rank_initiators = true;
  const CascadeForest forest =
      extract_cascade_forest(sim.graph, sim.states, config.extraction);
  std::vector<DetectionResult> base;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    config.num_threads = threads;
    const std::vector<DetectionResult> results =
        run_rid_betas(forest, betas, config);
    ASSERT_EQ(results.size(), betas.size());
    if (threads == 1) {
      base = results;
      continue;
    }
    for (std::size_t b = 0; b < betas.size(); ++b) {
      EXPECT_EQ(results[b].initiators, base[b].initiators)
          << "threads " << threads << " beta " << betas[b];
      EXPECT_EQ(results[b].states, base[b].states);
      EXPECT_EQ(results[b].total_opt, base[b].total_opt);
      EXPECT_EQ(results[b].total_objective, base[b].total_objective);
      ASSERT_EQ(results[b].diagnostics.trees.size(),
                base[b].diagnostics.trees.size());
      for (std::size_t t = 0; t < base[b].diagnostics.trees.size(); ++t)
        EXPECT_EQ(results[b].diagnostics.trees[t].status,
                  base[b].diagnostics.trees[t].status);
    }
  }
}

void expect_same_result(const DetectionResult& full,
                        const DetectionResult& kept) {
  EXPECT_EQ(kept.initiators, full.initiators);
  EXPECT_EQ(kept.states, full.states);
  EXPECT_EQ(kept.num_components, full.num_components);
  EXPECT_EQ(kept.num_trees, full.num_trees);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kept.total_opt),
            std::bit_cast<std::uint64_t>(full.total_opt));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kept.total_objective),
            std::bit_cast<std::uint64_t>(full.total_objective));
  ASSERT_EQ(kept.diagnostics.trees.size(), full.diagnostics.trees.size());
  for (std::size_t t = 0; t < full.diagnostics.trees.size(); ++t)
    EXPECT_EQ(kept.diagnostics.trees[t].status,
              full.diagnostics.trees[t].status);
}

/// A seeded MFC instance written as text, loaded whole and restricted to
/// the snapshot's active ids: every detector gives the same result on
/// both, because none reads past the infected nodes' out-edges.
TEST(Rid, EveryDetectorMatchesOnTheInfectedRowsAlone) {
  util::Rng rng(26);
  const auto el = gen::erdos_renyi(500, 4000, rng);
  SignedGraph social =
      gen::assign_signs_uniform(el, {.positive_probability = 0.75}, rng);
  for (graph::EdgeId e = 0; e < social.num_edges(); ++e)
    social.set_edge_weight(e, rng.uniform(0.02, 0.3));
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "rid_infected_rows.txt")
          .string();
  graph::save_weighted_file(social, path);
  const graph::LoadedGraph full = graph::load_diffusion_file(path);
  ASSERT_EQ(full.graph.num_nodes(), 500u);

  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 16; ++v) {
    seeds.nodes.push_back(v * 31);
    seeds.states.push_back(v % 3 ? NodeState::kPositive : NodeState::kNegative);
  }
  const std::vector<NodeState> late =
      diffusion::simulate_mfc(full.graph, seeds, diffusion::MfcConfig{}, rng)
          .state;
  std::vector<std::uint64_t> active;
  std::vector<NodeState> early(late.size(), NodeState::kInactive);
  for (NodeId v = 0; v < late.size(); ++v) {
    if (!graph::is_active(late[v])) continue;
    active.push_back(v);
    if (v % 2 == 0) early[v] = late[v];
  }
  ASSERT_GT(active.size(), 100u);
  const graph::LoadedGraph kept = graph::load_diffusion_file(path, active);
  ASSERT_LT(kept.graph.num_edges(), full.graph.num_edges());

  RidConfig config;
  config.beta = 0.5;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    config.num_threads = threads;
    expect_same_result(run_rid(full.graph, late, config),
                       run_rid(kept.graph, late, config));
  }
  config.num_threads = 1;
  expect_same_result(
      run_rid_with_early_snapshot(full.graph, early, late, config),
      run_rid_with_early_snapshot(kept.graph, early, late, config));
  const BaselineConfig base{};
  expect_same_result(run_rid_tree(full.graph, late, base),
                     run_rid_tree(kept.graph, late, base));
  expect_same_result(run_rid_positive(full.graph, late, base),
                     run_rid_positive(kept.graph, late, base));
  expect_same_result(run_rumor_centrality(full.graph, late, base),
                     run_rumor_centrality(kept.graph, late, base));
  expect_same_result(run_jordan_center(full.graph, late, base),
                     run_jordan_center(kept.graph, late, base));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rid::core
