#include "core/rid.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <utility>

#include "core/rid_internal.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace rid::core {

namespace {

namespace trace = util::trace;

/// Pipeline-level metrics series (looked up once; see util/metrics.hpp).
struct RidMetrics {
  util::metrics::Counter& runs = util::metrics::global().counter("rid.runs");
  util::metrics::Counter& trees_ok =
      util::metrics::global().counter("rid.trees_ok");
  util::metrics::Counter& trees_degraded =
      util::metrics::global().counter("rid.trees_degraded");
  util::metrics::Counter& trees_failed =
      util::metrics::global().counter("rid.trees_failed");
  util::metrics::Counter& budget_tree_hits =
      util::metrics::global().counter("rid.budget_tree_hits");
  util::metrics::Histogram& tree_solve_ns =
      util::metrics::global().histogram("rid.tree_solve_ns");
  util::metrics::Histogram& extraction_ns =
      util::metrics::global().histogram("rid.extraction_ns");
};

RidMetrics& rid_metrics() {
  static RidMetrics instance;
  return instance;
}

struct FailureInfo {
  bool budget = false;
  std::string message;
};

/// Classifies a captured per-tree failure for diagnostics.
FailureInfo describe_failure(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const util::BudgetExceededError& e) {
    return {true, e.what()};
  } catch (const std::exception& e) {
    return {false, e.what()};
  } catch (...) {
    return {false, "unknown error"};
  }
}

/// Shared fault-isolation harness for the single-beta and multi-beta runs:
/// solves every tree (optionally in parallel), hands each failed tree's
/// root-only fallback to `store_fallback`, and files one diagnostics entry
/// per tree into `diagnostics`. Every failing tree keeps its own error text
/// — a multi-tree failure surfaces one line per tree in summary(), never
/// just the first exception.
template <typename Solve, typename StoreFallback>
void solve_trees_isolated(const CascadeForest& forest,
                          std::size_t num_threads, const Solve& solve,
                          const StoreFallback& store_fallback,
                          RunDiagnostics& diagnostics) {
  const std::size_t n = forest.trees.size();
  // Per-tree timing is captured on the worker (trace-clock timestamps plus
  // thread id); the solve_tree span is emitted after the join, once the
  // tree's final TreeStatus is known and can be tagged.
  std::vector<std::uint64_t> start_ns(n, 0);
  std::vector<std::uint64_t> end_ns(n, 0);
  std::vector<std::uint32_t> tid(n, 0);
  const std::vector<std::exception_ptr> errors =
      util::parallel_for_each_collect(n, num_threads, [&](std::size_t i) {
        start_ns[i] = trace::now_ns();
        tid[i] = trace::current_tid();
        try {
          RID_FAILPOINT("rid.solve_tree");
          solve(i);
        } catch (...) {
          end_ns[i] = trace::now_ns();
          throw;
        }
        end_ns[i] = trace::now_ns();
      });

  RidMetrics& rm = rid_metrics();
  for (std::size_t t = 0; t < n; ++t) {
    TreeDiagnostics tree;
    tree.tree_index = t;
    tree.num_nodes = forest.trees[t].size();
    tree.seconds = static_cast<double>(end_ns[t] - start_ns[t]) * 1e-9;
    if (errors[t]) {
      const FailureInfo failure = describe_failure(errors[t]);
      tree.budget_hit = failure.budget;
      tree.error = failure.message;
      TreeSolution root;
      internal::fall_back_to_root(forest.trees[t], root, tree);
      store_fallback(t, std::move(root));
    }
    if (tree.budget_hit) rm.budget_tree_hits.add(1);
    rm.tree_solve_ns.observe(end_ns[t] - start_ns[t]);
    const trace::TagValue tags[] = {
        {"tree_index", nullptr, static_cast<std::int64_t>(t)},
        {"nodes", nullptr, static_cast<std::int64_t>(tree.num_nodes)},
        {"status", status_name(tree.status), 0},
    };
    trace::emit_span("solve_tree", start_ns[t], end_ns[t], tid[t], tags);
    internal::record_tree(diagnostics, std::move(tree));
  }
}

/// Shared front end for both storage backends: repair -> extract -> mask.
/// Every step is either backend-agnostic or overloaded per backend, so the
/// two public run_rid overloads are bit-identical on equal content.
template <typename Graph>
internal::PreparedForest prepare_forest_impl(
    const Graph& diffusion, std::span<const graph::NodeState> states,
    const RidConfig& config) {
  internal::PreparedForest out;
  std::vector<graph::NodeState> repaired_states;
  std::vector<bool> repaired_candidates;
  std::span<const graph::NodeState> view = states;
  const std::vector<bool>* candidates = &config.candidates;
  if (config.repair_policy == RepairPolicy::kRepair) {
    SanitizeReport repairs;
    repaired_states.assign(states.begin(), states.end());
    repairs.merge(sanitize_states(diffusion.num_nodes(), repaired_states,
                                  RepairPolicy::kRepair));
    view = repaired_states;
    repaired_candidates = config.candidates;
    repairs.merge(sanitize_candidates(diffusion.num_nodes(),
                                      repaired_candidates,
                                      RepairPolicy::kRepair));
    candidates = &repaired_candidates;
    out.repairs = std::move(repairs.repairs);
  }

  // extract_cascade_forest records its own "extract_forest" span; the
  // timestamps here only feed the diagnostics.
  const std::uint64_t extraction_start_ns = trace::now_ns();
  ExtractionConfig extraction = config.extraction;
  if (extraction.num_threads == 0) extraction.num_threads = config.num_threads;
  out.forest = extract_cascade_forest(diffusion, view, extraction);
  out.extraction_ns = trace::now_ns() - extraction_start_ns;
  if (!candidates->empty()) apply_candidate_mask(out.forest, *candidates);
  return out;
}

}  // namespace

namespace internal {

void fall_back_to_root(const CascadeTree& cascade, TreeSolution& solution,
                       TreeDiagnostics& tree) {
  solution = TreeSolution{};
  try {
    if (cascade.can_initiate.empty() || cascade.can_initiate[cascade.root]) {
      solution.k = 1;
      solution.initiators = {cascade.root};
      solution.states = {cascade.state[cascade.root]};
      solution.opt = evaluate_initiators(cascade, solution.initiators);
      solution.objective = -solution.opt;
    }
    tree.fallback_root_only = !solution.initiators.empty();
  } catch (...) {
    const FailureInfo second = describe_failure(std::current_exception());
    tree.error += "; fallback: " + second.message;
    solution = TreeSolution{};
    tree.fallback_root_only = false;
  }
  tree.status =
      tree.fallback_root_only ? TreeStatus::kDegraded : TreeStatus::kFailed;
}

void record_tree(RunDiagnostics& diagnostics, TreeDiagnostics tree) {
  RidMetrics& rm = rid_metrics();
  switch (tree.status) {
    case TreeStatus::kOk:
      rm.trees_ok.add(1);
      break;
    case TreeStatus::kDegraded:
      rm.trees_degraded.add(1);
      break;
    case TreeStatus::kFailed:
      rm.trees_failed.add(1);
      break;
  }
  diagnostics.record(std::move(tree));
}

void attach_stage_totals(RunDiagnostics& diagnostics) {
  if (!trace::enabled()) return;
  diagnostics.stages.clear();
  for (const trace::StageTotal& stage : trace::aggregate_stage_totals())
    diagnostics.stages.push_back({stage.name, stage.count, stage.seconds});
  diagnostics.spans_dropped =
      trace::snapshot().dropped + trace::remote_spans_dropped();
}

PreparedForest prepare_forest(const graph::SignedGraph& diffusion,
                              std::span<const graph::NodeState> states,
                              const RidConfig& config) {
  return prepare_forest_impl(diffusion, states, config);
}

PreparedForest prepare_forest(const graph::ColumnarGraphView& diffusion,
                              std::span<const graph::NodeState> states,
                              const RidConfig& config) {
  return prepare_forest_impl(diffusion, states, config);
}

std::size_t intra_tree_threads(const RidConfig& config,
                               const CascadeForest& forest) {
  // The tree-level parallelism claims min(threads, trees) workers and the
  // leftover goes to the intra-tree DP — so the giant-component case (one
  // tree) hands the whole pool to the DP.
  const std::size_t pool = std::max<std::size_t>(1, config.num_threads);
  const std::size_t outer =
      std::min(pool, std::max<std::size_t>(1, forest.trees.size()));
  return std::max<std::size_t>(1, pool / outer);
}

void merge_solutions(const CascadeForest& forest,
                     const std::vector<const TreeSolution*>& solutions,
                     DetectionResult& out) {
  std::vector<std::pair<graph::NodeId, graph::NodeState>> found;
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    const CascadeTree& tree = forest.trees[t];
    const TreeSolution& solution = *solutions[t];
    out.total_opt += solution.opt;
    out.total_objective += solution.objective;
    for (std::size_t i = 0; i < solution.initiators.size(); ++i) {
      found.emplace_back(tree.global[solution.initiators[i]],
                         solution.states[i]);
    }
  }
  std::sort(found.begin(), found.end());
  out.initiators.reserve(found.size());
  out.states.reserve(found.size());
  for (const auto& [node, state] : found) {
    out.initiators.push_back(node);
    out.states.push_back(state);
  }
}

void solve_tree_guarded(const CascadeTree& cascade, double beta,
                        const TreeDpOptions& dp, TreeSolution& solution,
                        TreeDiagnostics& tree) {
  try {
    RID_FAILPOINT("rid.solve_tree");
    solution = solve_tree(cascade, beta, dp);
    return;
  } catch (...) {
    const FailureInfo failure = describe_failure(std::current_exception());
    tree.budget_hit = failure.budget;
    tree.error = failure.message;
  }
  fall_back_to_root(cascade, solution, tree);
}

}  // namespace internal

DetectionResult run_rid_on_forest(const CascadeForest& forest,
                                  const RidConfig& config) {
  DetectionResult out;
  out.num_components = forest.num_components;
  out.num_trees = forest.trees.size();

  trace::TraceSpan span("solve_forest");
  span.tag("trees", static_cast<std::int64_t>(forest.trees.size()));
  const util::BudgetScope scope(config.budget);
  TreeDpOptions dp = config.dp;
  if (!config.budget.unlimited()) dp.budget = &scope;
  if (dp.num_threads == 0)
    dp.num_threads = internal::intra_tree_threads(config, forest);

  // Trees are independent; solve them (optionally) in parallel with per-tree
  // fault isolation, then merge in deterministic tree order.
  std::vector<TreeSolution> solutions(forest.trees.size());
  solve_trees_isolated(
      forest, config.num_threads,
      [&](std::size_t i) {
        solutions[i] = solve_tree(forest.trees[i], config.beta, dp);
      },
      [&](std::size_t i, TreeSolution root) { solutions[i] = std::move(root); },
      out.diagnostics);

  std::vector<const TreeSolution*> views(solutions.size());
  for (std::size_t t = 0; t < solutions.size(); ++t) views[t] = &solutions[t];
  internal::merge_solutions(forest, views, out);
  out.diagnostics.total_seconds = span.seconds();
  internal::attach_stage_totals(out.diagnostics);
  return out;
}

std::vector<DetectionResult> run_rid_betas(const CascadeForest& forest,
                                            std::span<const double> betas,
                                            const RidConfig& config) {
  std::vector<DetectionResult> out(betas.size());
  for (DetectionResult& result : out) {
    result.num_components = forest.num_components;
    result.num_trees = forest.trees.size();
  }

  trace::TraceSpan span("solve_forest_betas");
  span.tag("trees", static_cast<std::int64_t>(forest.trees.size()));
  span.tag("betas", static_cast<std::int64_t>(betas.size()));
  const util::BudgetScope scope(config.budget);
  TreeDpOptions dp = config.dp;
  if (!config.budget.unlimited()) dp.budget = &scope;
  if (dp.num_threads == 0)
    dp.num_threads = internal::intra_tree_threads(config, forest);

  // Per-tree multi-beta solves (optionally parallel over trees, isolated
  // per tree), merged in deterministic tree order per beta.
  RunDiagnostics diagnostics;
  std::vector<std::vector<TreeSolution>> solutions(forest.trees.size());
  solve_trees_isolated(
      forest, config.num_threads,
      [&](std::size_t i) {
        solutions[i] = solve_tree_betas(forest.trees[i], betas, dp);
      },
      [&](std::size_t i, const TreeSolution& root) {
        // The fallback does not depend on beta: one root-only solution,
        // replicated per beta (objective = -opt since k = 1).
        solutions[i].assign(betas.size(), root);
      },
      diagnostics);
  diagnostics.total_seconds = span.seconds();
  internal::attach_stage_totals(diagnostics);

  for (std::size_t b = 0; b < betas.size(); ++b) {
    std::vector<const TreeSolution*> views(solutions.size());
    for (std::size_t t = 0; t < solutions.size(); ++t)
      views[t] = &solutions[t][b];
    internal::merge_solutions(forest, views, out[b]);
    out[b].diagnostics = diagnostics;
  }
  return out;
}

namespace {

template <typename Graph>
DetectionResult run_rid_impl(const Graph& diffusion,
                             std::span<const graph::NodeState> states,
                             const RidConfig& config) {
  trace::TraceSpan span("run_rid");
  rid_metrics().runs.add(1);
  internal::PreparedForest prepared =
      internal::prepare_forest(diffusion, states, config);
  rid_metrics().extraction_ns.observe(prepared.extraction_ns);

  DetectionResult result = run_rid_on_forest(prepared.forest, config);
  result.diagnostics.repairs = std::move(prepared.repairs);
  result.diagnostics.extraction_seconds =
      static_cast<double>(prepared.extraction_ns) * 1e-9;
  result.diagnostics.total_seconds = span.seconds();
  internal::attach_stage_totals(result.diagnostics);
  util::log_debug("run_rid(beta=", config.beta, "): ", result.initiators.size(),
                  " initiators from ", result.num_trees, " trees (",
                  result.diagnostics.num_degraded, " degraded, ",
                  result.diagnostics.num_failed, " failed)");
  return result;
}

}  // namespace

DetectionResult run_rid(const graph::SignedGraph& diffusion,
                        std::span<const graph::NodeState> states,
                        const RidConfig& config) {
  return run_rid_impl(diffusion, states, config);
}

DetectionResult run_rid(const graph::ColumnarGraphView& diffusion,
                        std::span<const graph::NodeState> states,
                        const RidConfig& config) {
  return run_rid_impl(diffusion, states, config);
}

}  // namespace rid::core
