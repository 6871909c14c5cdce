// Internal helpers shared by the in-process RID pipeline (rid.cpp), the
// process-sharded runner (rid_sharded.cpp), and its workers
// (shard_transport.cpp). Not part of the public API — the sharded runner
// must degrade, fall back, and merge *exactly* like the in-process run so
// the two are bit-identical, which means sharing the implementations
// instead of duplicating them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cascade_extraction.hpp"
#include "core/isomit.hpp"
#include "core/rid.hpp"
#include "core/tree_dp.hpp"

namespace rid::core::internal {

/// The root-only rung of the fallback ladder, for a tree whose solve failed
/// (tree.error already says why): the extracted root becomes the sole
/// initiator, with its observed/imputed state and the real objective of
/// that one-initiator assignment. Stores that answer in `solution` — or an
/// empty one when the root is excluded by the candidate mask or the
/// fallback throws too, in which case both error texts are kept
/// ("; fallback: "). Sets tree.fallback_root_only and tree.status
/// (kDegraded when the fallback names an initiator, else kFailed).
void fall_back_to_root(const CascadeTree& cascade, TreeSolution& solution,
                       TreeDiagnostics& tree);

/// Merges per-tree solutions (one per tree, in tree order) into the
/// DetectionResult: global initiator ids sorted ascending, totals summed in
/// tree order — the accumulation order is part of the bit-identity contract.
void merge_solutions(const CascadeForest& forest,
                     const std::vector<const TreeSolution*>& solutions,
                     DetectionResult& out);

/// Runs the solve of one tree with the pipeline's per-tree fault isolation:
/// on a throw, the tree takes fall_back_to_root. Fills `solution` and the
/// failure-related fields of `tree` (status, budget_hit, error,
/// fallback_root_only) exactly as run_rid_on_forest would. Timing fields
/// are left to the caller.
void solve_tree_guarded(const CascadeTree& cascade, double beta,
                        const TreeDpOptions& dp, TreeSolution& solution,
                        TreeDiagnostics& tree);

/// Files one tree's diagnostics entry and bumps its outcome counter
/// (rid.trees_ok / _degraded / _failed).
void record_tree(RunDiagnostics& diagnostics, TreeDiagnostics tree);

/// Copies the trace's per-stage totals into the diagnostics when tracing is
/// live (the breakdown covers every span recorded since trace::start(), so
/// in multi-run processes it is cumulative — exactly what the CLI wants).
void attach_stage_totals(RunDiagnostics& diagnostics);

/// The pipeline front end run_rid and run_rid_sharded share: kRepair
/// sanitizes copies of the snapshot and candidate mask (kReject leaves
/// validation to extraction, which throws on a size mismatch), then the
/// forest is extracted and the candidate mask applied.
struct PreparedForest {
  CascadeForest forest;
  std::vector<std::string> repairs;
  std::uint64_t extraction_ns = 0;
};

PreparedForest prepare_forest(const graph::SignedGraph& diffusion,
                              std::span<const graph::NodeState> states,
                              const RidConfig& config);
PreparedForest prepare_forest(const graph::ColumnarGraphView& diffusion,
                              std::span<const graph::NodeState> states,
                              const RidConfig& config);

}  // namespace rid::core::internal
