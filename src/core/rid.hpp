// RID — the full Rumor Initiator Detector pipeline (paper Section III-E).
//
//   snapshot -> infected components -> cascade trees (Chu-Liu/Edmonds)
//            -> binarized k-ISOMIT-BT DP with beta penalty per tree
//            -> initiators (number + identities + initial states).
//
// Robustness contract (see DESIGN.md "Robustness & degradation"): per-tree
// faults are isolated. A tree whose DP throws or blows the configured
// WorkBudget contributes its RID-Tree fallback (root as sole initiator)
// instead of aborting the run; every other tree's answer is unaffected, and
// DetectionResult::diagnostics records what degraded and why. With the
// default (unlimited) budget and clean inputs the pipeline behaves exactly
// as the budget-free implementation did.
#pragma once

#include <span>

#include "core/cascade_extraction.hpp"
#include "core/isomit.hpp"
#include "core/tree_dp.hpp"
#include "core/validate.hpp"
#include "util/proc_supervisor.hpp"
#include "util/work_budget.hpp"

namespace rid::core {

struct RidConfig {
  /// Penalty per extra initiator beyond each tree's root (paper beta;
  /// evaluated at 0.09 and 0.1 in Figure 4, swept in Figures 5-6).
  double beta = 0.1;
  ExtractionConfig extraction;
  TreeDpOptions dp;
  /// Optional initiator candidate mask over diffusion-network node ids
  /// (empty = every infected node is a candidate). Nodes outside the mask
  /// keep their likelihood role but can never be reported as initiators —
  /// see core/temporal.hpp for the early-snapshot use case.
  std::vector<bool> candidates;
  /// Worker threads for the whole pipeline (1 = serial). Inherited by every
  /// stage left at its own "inherit" default: per-component extraction
  /// (ExtractionConfig::num_threads), tree-level solves, and — with the
  /// leftover share once min(threads, trees) workers cover the trees — the
  /// intra-tree parallel DP (TreeDpOptions::num_threads), so a single giant
  /// component still uses the full pool. Results are bit-identical
  /// regardless of thread count (see DESIGN.md §10).
  std::size_t num_threads = 1;
  /// Work budget for the superlinear per-tree solves, armed when
  /// run_rid_on_forest starts. Trees that exceed it degrade to the RID-Tree
  /// root-only fallback. The deterministic caps (max_tree_nodes, max_k)
  /// degrade the same trees on every run and thread count; the wall-clock
  /// deadline is timing-dependent by nature. Extraction itself is exempt —
  /// it is the base of the fallback ladder (see ExtractionConfig::budget
  /// for bounding it directly). Default: unlimited (no behavior change).
  util::WorkBudget budget;
  /// Input handling for run_rid: kReject (default) keeps the historical
  /// behavior — malformed snapshots throw. kRepair sanitizes a copy of the
  /// snapshot and candidate mask first (see core/validate.hpp) and records
  /// every repair in DetectionResult::diagnostics.
  RepairPolicy repair_policy = RepairPolicy::kReject;
};

/// Runs RID on a snapshot of the diffusion network. States vector must have
/// one entry per node; inactive nodes are ignored. The columnar overload
/// runs the identical pipeline over a mmap-ed .ridg view (zero-copy load)
/// and produces a bit-identical DetectionResult for the same graph content.
DetectionResult run_rid(const graph::SignedGraph& diffusion,
                        std::span<const graph::NodeState> states,
                        const RidConfig& config);
DetectionResult run_rid(const graph::ColumnarGraphView& diffusion,
                        std::span<const graph::NodeState> states,
                        const RidConfig& config);

/// Runs RID on an already-extracted cascade forest (lets sweeps over beta
/// reuse one extraction — the forest does not depend on beta).
DetectionResult run_rid_on_forest(const CascadeForest& forest,
                                  const RidConfig& config);

/// Runs RID for several beta values over one forest, computing each tree's
/// DP table once (see core::solve_tree_betas). Results align with `betas`
/// and match per-beta run_rid_on_forest calls exactly.
std::vector<DetectionResult> run_rid_betas(const CascadeForest& forest,
                                           std::span<const double> betas,
                                           const RidConfig& config);

/// How sharded workers come to exist (see DESIGN.md §11 and §13).
enum class ShardTransport {
  /// fork() a copy of this process per shard attempt over a socketpair;
  /// the forest is inherited copy-on-write and results stream back in the
  /// same frames as kSocket. The default, and the only option without a
  /// .ridg file.
  kFork,
  /// fork+exec `<worker_command> worker` per shard and dispatch the
  /// assignment over a Unix/TCP socket (core/shard_transport.hpp). Workers
  /// re-map `graph_path`, re-extract the forest, and verify its
  /// fingerprint, so execution no longer shares an address space with the
  /// dispatcher. Results stay bit-identical for any transport.
  kSocket,
};

/// Crash-isolated sharded execution (see DESIGN.md §11): the forest's trees
/// are partitioned into shards, each shard is solved by a worker process
/// that streams per-tree records back to the parent, which checkpoints them
/// into `run_dir`, and a supervisor (util/proc_supervisor.hpp) requeues
/// crashed/hung shards.
struct ShardedConfig {
  /// Shards to partition the trees into (capped at the tree count).
  std::size_t num_shards = 2;
  /// Run directory holding the checkpoint stream. Required: this is both
  /// the workers' durable store and the resume source.
  std::string run_dir;
  /// true: trees already checkpointed in run_dir (with a matching forest
  /// fingerprint) are loaded instead of recomputed. false: stale "*.ckpt"
  /// files in run_dir are deleted and everything is recomputed.
  bool resume = true;
  /// Worker lifecycle policy: parallelism, retry/backoff, heartbeat and
  /// deadline kills, poison threshold, resource caps, cancellation.
  util::SupervisorOptions supervisor;
  /// Worker transport. kSocket additionally requires `worker_command` and
  /// `graph_path`, and rejects RidConfig::candidates and
  /// RepairPolicy::kRepair: the forest fingerprint does not cover the
  /// candidate mask or repaired states, so an exec'd worker re-extracting
  /// from the raw snapshot could silently diverge — refused instead.
  ShardTransport transport = ShardTransport::kFork;
  /// kSocket: the binary exec'd as `<worker_command> worker ...` (normally
  /// the running ridnet_cli's own path).
  std::string worker_command;
  /// kSocket: .ridg snapshot (with embedded states) workers re-map.
  std::string graph_path;
  /// kSocket: dispatcher endpoint in util::net::Endpoint::parse syntax.
  /// Empty = a Unix socket inside run_dir.
  std::string worker_endpoint;
  /// Job/trace id stamped into worker assignments and echoed back in their
  /// telemetry, so a merged trace (and a stale worker's late report) can be
  /// attributed to the right job. The serve daemon sets this to the job id;
  /// 0 = untagged batch run.
  std::uint64_t trace_id = 0;
  /// kSocket: shared secret for the handshake's HMAC challenge
  /// (core/shard_transport.hpp). Empty = workers are not challenged.
  /// Reaches fork+exec'd workers through the RID_AUTH_TOKEN environment
  /// variable, never argv.
  std::string auth_token;
  /// kSocket: content-addressed graph cache directory handed to launched
  /// workers (`--graph-cache-dir`), enabling the streamed graph delivery
  /// mode. Empty = workers only offer the shared-filesystem mode.
  std::string graph_cache_dir;
  /// kSocket: grace budget (seconds) before the runner concludes the
  /// socket transport is unreachable — no completed handshake and no
  /// durable progress by then — cancels it, and re-runs the remaining
  /// trees over the fork transport (bit-identical; surfaced as a
  /// degraded-transport diagnostic event). 0 = never fall back.
  double remote_grace_seconds = 0.0;
};

/// Deterministic size-balanced shard plan: trees sorted by (nodes desc,
/// index asc) are greedily assigned to the least-loaded shard; each shard
/// processes its trees in ascending index order. At most `num_shards`
/// shards, fewer when there are fewer trees.
std::vector<util::ShardWork> plan_shards(const CascadeForest& forest,
                                         std::size_t num_shards);

/// run_rid with process-sharded execution. The merged DetectionResult
/// (initiators, states, totals) is bit-identical to run_rid for any shard
/// count, including a resume after a mid-run crash; only the diagnostics
/// carry extra shard fields. Trees a worker cannot survive (poison pills)
/// or that exhaust their shard's attempts degrade to the RID-Tree root-only
/// fallback exactly like an in-process DP failure. On platforms without
/// fork() this transparently runs in-process.
DetectionResult run_rid_sharded(const graph::SignedGraph& diffusion,
                                std::span<const graph::NodeState> states,
                                const RidConfig& config,
                                const ShardedConfig& sharded);

/// Columnar variant: after extraction the mapped file's resident pages are
/// dropped (MADV_DONTNEED) before workers fork, so each worker's RSS is
/// O(its shard's trees), not O(graph) — the forest carries everything the
/// solves need. Result is bit-identical to the SignedGraph overload.
DetectionResult run_rid_sharded(const graph::ColumnarGraphView& diffusion,
                                std::span<const graph::NodeState> states,
                                const RidConfig& config,
                                const ShardedConfig& sharded);

/// Sharded counterpart of run_rid_on_forest (shared extraction, e.g. the
/// CLI's --shards path after its own extraction step).
DetectionResult run_rid_sharded_on_forest(const CascadeForest& forest,
                                          const RidConfig& config,
                                          const ShardedConfig& sharded);

}  // namespace rid::core
