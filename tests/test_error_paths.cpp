// Error-path coverage: malformed input corpus (line-numbered rejections),
// sanitize/repair behavior, work budgets, and the per-tree fault isolation
// of the RID pipeline (ISSUE: budgeted, fault-isolated pipeline).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <sstream>
#include <string>

#include "core/baselines.hpp"
#include "core/rid.hpp"
#include "core/snapshot_io.hpp"
#include "core/tree_dp.hpp"
#include "core/validate.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/graph_io.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/work_budget.hpp"

namespace rid {
namespace {

using graph::NodeId;
using graph::NodeState;
using graph::Sign;
using graph::SignedGraph;
using graph::SignedGraphBuilder;

// --- WorkBudget primitives -------------------------------------------------

TEST(WorkBudget, DefaultIsUnlimitedAndNeverTrips) {
  const util::WorkBudget budget;
  EXPECT_TRUE(budget.unlimited());
  const util::BudgetScope scope(budget);
  EXPECT_FALSE(scope.exceeded());
  EXPECT_NO_THROW(scope.check());
}

TEST(WorkBudget, CancelTokenTripsTheScope) {
  util::WorkBudget budget;
  budget.cancel = util::CancelToken::create();
  EXPECT_TRUE(budget.unlimited());  // not yet cancelled
  const util::BudgetScope scope(budget);
  EXPECT_NO_THROW(scope.check());
  budget.cancel.request_cancel();
  EXPECT_TRUE(scope.exceeded());
  EXPECT_THROW(scope.check(), util::BudgetExceededError);
}

TEST(WorkBudget, ZeroDeadlineIsAlreadyExpired) {
  util::WorkBudget budget;
  budget.deadline_seconds = 0.0;
  EXPECT_FALSE(budget.unlimited());
  const util::BudgetScope scope(budget);
  EXPECT_TRUE(scope.exceeded());
  EXPECT_THROW(scope.check(), util::BudgetExceededError);
}

TEST(WorkBudget, CheckerAmortizesAndNullScopeIsFree) {
  util::BudgetChecker idle(nullptr, 2);
  for (int i = 0; i < 100; ++i) EXPECT_NO_THROW(idle.tick());

  util::WorkBudget budget;
  budget.deadline_seconds = 0.0;
  const util::BudgetScope scope(budget);
  util::BudgetChecker checker(&scope, 4);
  // The first interval-1 ticks are clock-free; the interval-th one checks.
  EXPECT_NO_THROW(checker.tick());
  EXPECT_NO_THROW(checker.tick());
  EXPECT_NO_THROW(checker.tick());
  EXPECT_THROW(checker.tick(), util::BudgetExceededError);
}

// --- parallel_for_each_collect ---------------------------------------------

TEST(ThreadPool, CollectKeepsPerIndexErrorsAndRunsSurvivors) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<bool>> ran(9);
    const auto errors = util::parallel_for_each_collect(
        ran.size(), threads, [&](std::size_t i) {
          if (i % 2 == 1) throw std::runtime_error("odd " + std::to_string(i));
          ran[i] = true;
        });
    ASSERT_EQ(errors.size(), ran.size());
    for (std::size_t i = 0; i < ran.size(); ++i) {
      if (i % 2 == 1) {
        ASSERT_TRUE(errors[i]) << "index " << i;
        try {
          std::rethrow_exception(errors[i]);
          FAIL();
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()), "odd " + std::to_string(i));
        }
      } else {
        EXPECT_FALSE(errors[i]) << "index " << i;
        EXPECT_TRUE(ran[i]) << "index " << i;
      }
    }
  }
}

// --- malformed input corpus (line-numbered InputError) ----------------------

void expect_input_error(const std::function<void()>& action,
                        const std::string& want_substring) {
  try {
    action();
    FAIL() << "expected util::InputError mentioning '" << want_substring
           << "'";
  } catch (const util::InputError& e) {
    EXPECT_NE(std::string(e.what()).find(want_substring), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(MalformedInput, GraphEdgeListsRejectWithLineNumbers) {
  const struct {
    const char* content;
    bool weighted;
    const char* want;
  } corpus[] = {
      {"0 1 1\n0 2 9\n", false, "line 2"},
      {"0 1 1\n0 2 9\n", false, "sign"},
      {"0 1\n", false, "line 1"},
      {"0 1 1 0.5\n0 2 1 nope\n", true, "line 2"},
      {"0 1 1 2.5\n", true, "weight outside [0, 1]"},
      {"0 1 1 nan\n", true, "weight outside [0, 1]"},
      {"0 1 1 inf\n", true, "weight outside [0, 1]"},
      {"0 1 1 -1e9\n", true, "weight outside [0, 1]"},
      {"# ok\nx y 1\n", false, "line 2"},
      {"0 1 1 0.5trailing\n", true, "line 1"},
  };
  for (const auto& entry : corpus) {
    std::istringstream in(entry.content);
    expect_input_error(
        [&] {
          entry.weighted ? graph::load_weighted(in) : graph::load_snap(in);
        },
        entry.want);
  }
}

TEST(MalformedInput, SnapshotsRejectWithLineNumbers) {
  const struct {
    const char* content;
    const char* want;
  } corpus[] = {
      {"0 +1\n1\n", "line 2"},
      {"0 +1\n1\n", "missing state"},
      {"x +1\n", "line 1"},
      {"99 +1\n", "out of range"},
      {"0 +2\n", "bad state"},
  };
  for (const auto& entry : corpus) {
    std::istringstream in(entry.content);
    expect_input_error([&] { core::load_snapshot(in, 5); }, entry.want);
  }
}

TEST(MalformedInput, MissingFilesAreInputErrors) {
  expect_input_error(
      [] { graph::load_weighted_file("/nonexistent/graph.txt"); },
      "cannot open");
  expect_input_error(
      [] { core::load_snapshot_file("/nonexistent/snap.txt", 3); },
      "cannot open");
}

// --- sanitize / repair ------------------------------------------------------

SignedGraph tiny_graph(NodeId n = 4) {
  SignedGraphBuilder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v)
    builder.add_edge(v, v + 1, Sign::kPositive, 0.5);
  return builder.build();
}

TEST(Sanitize, RejectPolicyThrowsOnSizeMismatch) {
  const SignedGraph g = tiny_graph();
  std::vector<NodeState> states(2, NodeState::kPositive);
  expect_input_error(
      [&] { core::sanitize_states(g, states, core::RepairPolicy::kReject); },
      "snapshot has 2 states for 4 nodes");
  EXPECT_EQ(states.size(), 2u);  // untouched under kReject
}

TEST(Sanitize, RepairPolicyFixesSizeAndGarbageBytes) {
  const SignedGraph g = tiny_graph();
  std::vector<NodeState> states(2, NodeState::kPositive);
  states[1] = static_cast<NodeState>(7);  // invalid byte
  const auto report =
      core::sanitize_states(g, states, core::RepairPolicy::kRepair);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.repairs.size(), 2u);
  ASSERT_EQ(states.size(), 4u);
  EXPECT_EQ(states[0], NodeState::kPositive);
  EXPECT_EQ(states[1], NodeState::kInactive);  // reset
  EXPECT_EQ(states[2], NodeState::kInactive);  // padded
  EXPECT_EQ(states[3], NodeState::kInactive);
}

TEST(Sanitize, CandidateMaskRepairsSizeButLeavesEmptyAlone) {
  const SignedGraph g = tiny_graph();
  std::vector<bool> empty;
  EXPECT_TRUE(
      core::sanitize_candidates(g, empty, core::RepairPolicy::kRepair)
          .clean());
  EXPECT_TRUE(empty.empty());

  std::vector<bool> short_mask{false, true};
  const auto report =
      core::sanitize_candidates(g, short_mask, core::RepairPolicy::kRepair);
  EXPECT_EQ(report.repairs.size(), 1u);
  ASSERT_EQ(short_mask.size(), 4u);
  EXPECT_FALSE(short_mask[0]);
  EXPECT_TRUE(short_mask[2]);  // padded eligible
}

TEST(Sanitize, CleanGraphWeightsReportNothing) {
  SignedGraph g = tiny_graph();
  EXPECT_TRUE(
      core::sanitize_graph_weights(g, core::RepairPolicy::kRepair).clean());
}

// --- budgeted extraction (Edmonds cancellation) -----------------------------

TEST(BudgetedExtraction, CancellationAbortsExtractCascadeForest) {
  // Large enough that the amortized checkers (interval 1024) fire.
  constexpr NodeId kNodes = 3000;
  SignedGraphBuilder builder(kNodes);
  for (NodeId v = 0; v + 1 < kNodes; ++v)
    builder.add_edge(v, v + 1, Sign::kPositive, 0.5);
  const SignedGraph g = builder.build();
  const std::vector<NodeState> states(kNodes, NodeState::kPositive);

  util::WorkBudget budget;
  budget.cancel = util::CancelToken::create();
  budget.cancel.request_cancel();
  const util::BudgetScope scope(budget);
  core::ExtractionConfig config;
  config.budget = &scope;
  EXPECT_THROW(core::extract_cascade_forest(g, states, config),
               util::BudgetExceededError);
  // Null budget (run_rid's setting): the same input extracts fine.
  EXPECT_NO_THROW(core::extract_cascade_forest(g, states, {}));
}

// --- per-tree fault isolation ----------------------------------------------

/// Three infected chains in separate components: nodes 0-7, 8-10, 11-12.
struct ThreeChains {
  SignedGraph graph;
  std::vector<NodeState> states;
};

ThreeChains make_three_chains() {
  SignedGraphBuilder builder(13);
  const auto chain = [&](NodeId first, NodeId last) {
    for (NodeId v = first; v < last; ++v)
      builder.add_edge(v, v + 1, Sign::kPositive, 0.2);
  };
  chain(0, 7);
  chain(8, 10);
  chain(11, 12);
  ThreeChains out{builder.build(),
                  std::vector<NodeState>(13, NodeState::kPositive)};
  return out;
}

TEST(FaultIsolation, OverBudgetTreeDegradesOthersStayBitIdentical) {
  const ThreeChains tc = make_three_chains();
  core::RidConfig config;
  config.beta = 0.0;  // unbudgeted: every infected node is an initiator

  const core::DetectionResult baseline =
      core::run_rid(tc.graph, tc.states, config);
  EXPECT_EQ(baseline.initiators.size(), 13u);
  EXPECT_TRUE(baseline.diagnostics.all_ok());
  ASSERT_EQ(baseline.diagnostics.trees.size(), 3u);

  // Degrade only the 8-node tree via the deterministic size cap.
  config.budget.max_tree_nodes = 5;
  core::DetectionResult first;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    config.num_threads = threads;
    const core::DetectionResult result =
        core::run_rid(tc.graph, tc.states, config);

    // The run completed, the big tree degraded to its RID-Tree root answer,
    // the small trees are bit-identical to the unbudgeted run.
    EXPECT_EQ(result.initiators,
              (std::vector<NodeId>{0, 8, 9, 10, 11, 12}))
        << "threads " << threads;
    ASSERT_EQ(result.diagnostics.trees.size(), 3u);
    EXPECT_EQ(result.diagnostics.num_degraded, 1u);
    EXPECT_EQ(result.diagnostics.num_failed, 0u);
    EXPECT_TRUE(result.diagnostics.budget_hit);
    const auto& degraded = result.diagnostics.trees[0];
    EXPECT_EQ(degraded.status, core::TreeStatus::kDegraded);
    EXPECT_EQ(degraded.num_nodes, 8u);
    EXPECT_TRUE(degraded.budget_hit);
    EXPECT_TRUE(degraded.fallback_root_only);
    EXPECT_NE(degraded.error.find("max_tree_nodes"), std::string::npos);
    EXPECT_EQ(result.diagnostics.trees[1].status, core::TreeStatus::kOk);
    EXPECT_EQ(result.diagnostics.trees[2].status, core::TreeStatus::kOk);
    // The degraded tree's states come from the snapshot.
    EXPECT_EQ(result.states.front(), NodeState::kPositive);

    // Deterministic across thread counts: identical to the first run.
    if (threads == 1) {
      first = result;
    } else {
      EXPECT_EQ(result.initiators, first.initiators);
      EXPECT_EQ(result.states, first.states);
      EXPECT_EQ(result.total_objective, first.total_objective);
      EXPECT_EQ(result.total_opt, first.total_opt);
    }
  }
}

TEST(FaultIsolation, CancelMidParallelDpLeavesSolverReusable) {
  // A pre-cancelled budget must surface from the DP's per-64-node poll as
  // BudgetExceededError, and the failed compute must not poison the solver:
  // a follow-up unbudgeted compute is bit-identical to a fresh one.
  util::Rng rng(67);
  const NodeId n = 3000;
  core::CascadeTree tree;
  tree.parent.resize(n);
  tree.in_g.resize(n);
  tree.global.resize(n);
  tree.parent_edge.assign(n, graph::kInvalidEdge);
  tree.state.assign(n, NodeState::kPositive);
  tree.parent[0] = graph::kInvalidNode;
  tree.in_g[0] = 1.0;
  for (NodeId v = 0; v < n; ++v) tree.global[v] = v;
  for (NodeId v = 1; v < n; ++v) {
    tree.parent[v] = static_cast<NodeId>(rng.next_below(v));
    tree.in_g[v] = rng.uniform(0.05, 1.0);
  }

  util::WorkBudget budget;
  budget.cancel = util::CancelToken::create();
  budget.cancel.request_cancel();
  const util::BudgetScope scope(budget);

  core::BinarizedTreeDp dp(tree);
  EXPECT_THROW(dp.compute(8, true, &scope), util::BudgetExceededError);
  EXPECT_EQ(dp.computed_k(), 0u);  // nothing advertised as computed

  core::BinarizedTreeDp clean(tree);
  const std::vector<double> expected = clean.compute(8);
  const std::vector<double>& retried = dp.compute(8);
  for (std::uint32_t k = 1; k <= 8; ++k) EXPECT_EQ(retried[k], expected[k]);
  EXPECT_EQ(dp.extract(4), clean.extract(4));
}

TEST(FaultIsolation, MaskedRootMakesFallbackUnavailable) {
  const ThreeChains tc = make_three_chains();
  core::RidConfig config;
  config.beta = 0.0;
  config.budget.max_tree_nodes = 5;
  // Exclude the big tree's root from the candidate set: the fallback is
  // unavailable, so the tree fails (contributes nothing) instead of
  // degrading — and the run still completes.
  config.candidates.assign(13, true);
  config.candidates[0] = false;
  const core::DetectionResult result =
      core::run_rid(tc.graph, tc.states, config);
  EXPECT_EQ(result.initiators, (std::vector<NodeId>{8, 9, 10, 11, 12}));
  EXPECT_EQ(result.diagnostics.num_failed, 1u);
  EXPECT_EQ(result.diagnostics.num_degraded, 0u);
  EXPECT_EQ(result.diagnostics.trees[0].status, core::TreeStatus::kFailed);
  EXPECT_FALSE(result.diagnostics.trees[0].fallback_root_only);
}

TEST(FaultIsolation, BetaSweepDegradesPerBetaConsistently) {
  const ThreeChains tc = make_three_chains();
  core::RidConfig config;
  config.budget.max_tree_nodes = 5;
  const core::CascadeForest forest =
      core::extract_cascade_forest(tc.graph, tc.states, config.extraction);
  const std::vector<double> betas{0.0, 0.5};
  const auto results = core::run_rid_betas(forest, betas, config);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_EQ(result.diagnostics.num_degraded, 1u);
    // Every beta keeps the big tree's root-only fallback.
    EXPECT_TRUE(std::binary_search(result.initiators.begin(),
                                   result.initiators.end(), NodeId{0}));
  }
  // beta 0 splits the surviving small trees completely.
  EXPECT_EQ(results[0].initiators,
            (std::vector<NodeId>{0, 8, 9, 10, 11, 12}));
}

TEST(FaultIsolation, MaxKIsAQualityCapNotAFailure) {
  const ThreeChains tc = make_three_chains();
  core::RidConfig config;
  config.beta = 0.0;
  config.budget.max_k = 1;  // every tree may keep only its root
  const core::DetectionResult result =
      core::run_rid(tc.graph, tc.states, config);
  EXPECT_TRUE(result.diagnostics.all_ok());  // capped, not degraded
  EXPECT_EQ(result.initiators, (std::vector<NodeId>{0, 8, 11}));
}

// --- budget bracket: zero and (effectively) infinite ------------------------

struct SimulatedCase {
  SignedGraph graph;
  std::vector<NodeState> states;
};

SimulatedCase make_simulated_case() {
  util::Rng rng(91);
  const auto el = gen::erdos_renyi(220, 1500, rng);
  SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.02, 0.25));
  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 9; ++v) {
    seeds.nodes.push_back(v * 24);
    seeds.states.push_back(v % 2 ? NodeState::kNegative
                                 : NodeState::kPositive);
  }
  const diffusion::Cascade cascade =
      diffusion::simulate_mfc(g, seeds, diffusion::MfcConfig{}, rng);
  return {std::move(g), cascade.state};
}

TEST(BudgetBracket, GenerousBudgetReproducesUnbudgetedRunExactly) {
  const SimulatedCase sim = make_simulated_case();
  core::RidConfig config;
  const core::DetectionResult plain =
      core::run_rid(sim.graph, sim.states, config);
  EXPECT_TRUE(plain.diagnostics.all_ok());

  // An armed but generous budget goes through the budget-checking code path
  // yet must be bit-identical to the unbudgeted run.
  config.budget.deadline_seconds = 1e9;
  config.budget.cancel = util::CancelToken::create();
  const core::DetectionResult budgeted =
      core::run_rid(sim.graph, sim.states, config);
  EXPECT_TRUE(budgeted.diagnostics.all_ok());
  EXPECT_EQ(budgeted.initiators, plain.initiators);
  EXPECT_EQ(budgeted.states, plain.states);
  EXPECT_EQ(budgeted.total_objective, plain.total_objective);
  EXPECT_EQ(budgeted.total_opt, plain.total_opt);

  // The default (infinite) budget is the plain path by construction.
  core::RidConfig infinite;
  infinite.budget.deadline_seconds = util::kUnlimitedSeconds;
  const core::DetectionResult inf_result =
      core::run_rid(sim.graph, sim.states, infinite);
  EXPECT_EQ(inf_result.initiators, plain.initiators);
  EXPECT_EQ(inf_result.total_objective, plain.total_objective);
}

TEST(BudgetBracket, ZeroBudgetDegradesEveryTreeToRidTree) {
  const SimulatedCase sim = make_simulated_case();
  core::RidConfig config;
  config.budget.deadline_seconds = 0.0;
  const core::DetectionResult result =
      core::run_rid(sim.graph, sim.states, config);
  // The run completes, every tree is degraded (no candidate mask, so the
  // fallback is always available), and the answer is exactly RID-Tree's.
  EXPECT_GT(result.num_trees, 0u);
  EXPECT_EQ(result.diagnostics.num_degraded, result.num_trees);
  EXPECT_EQ(result.diagnostics.num_ok, 0u);
  EXPECT_EQ(result.diagnostics.num_failed, 0u);
  EXPECT_TRUE(result.diagnostics.budget_hit);
  const core::DetectionResult rid_tree =
      core::run_rid_tree(sim.graph, sim.states, core::BaselineConfig{});
  EXPECT_EQ(result.initiators, rid_tree.initiators);
}

// --- repair policy end to end ----------------------------------------------

TEST(RepairPolicy, RunRidRepairsCorruptSnapshotAndRecordsIt) {
  const ThreeChains tc = make_three_chains();
  std::vector<NodeState> corrupt = tc.states;
  corrupt[4] = static_cast<NodeState>(-7);
  corrupt.resize(11);  // also too short

  core::RidConfig config;
  config.beta = 0.0;
  // Default policy rejects (via validate_snapshot's historical error type)...
  EXPECT_THROW(core::run_rid(tc.graph, corrupt, config),
               std::invalid_argument);
  // ...repair completes and reports what it changed.
  config.repair_policy = core::RepairPolicy::kRepair;
  const core::DetectionResult result =
      core::run_rid(tc.graph, corrupt, config);
  EXPECT_EQ(result.diagnostics.repairs.size(), 2u);
  // Node 4 went inactive, splitting the big chain; nodes 11/12 dropped.
  for (const NodeId v : result.initiators) {
    EXPECT_NE(v, 4u);
    EXPECT_LT(v, 11u);
  }
  const std::string summary = result.diagnostics.summary();
  EXPECT_NE(summary.find("repair"), std::string::npos);
}

}  // namespace
}  // namespace rid
