// Crash-isolated sharded RID runner: plan shards, run one worker process
// per shard attempt under the supervisor (util/proc_supervisor.hpp), let
// the dispatcher's stream phase (core/shard_transport.hpp) turn worker
// frames into the run directory's checkpoint files (core/checkpoint.hpp),
// and merge in the parent with the exact in-process accumulation order so
// the result is bit-identical to run_rid for any shard count — including a
// resume after a mid-run crash. See DESIGN.md §11.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stop_token>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/rid.hpp"
#include "core/rid_internal.hpp"
#include "core/shard_transport.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rid::core {

namespace {

namespace fs = std::filesystem;
namespace trace = util::trace;

/// Sharded-runner metrics series (the supervisor's shard.* counters live in
/// util/proc_supervisor.cpp, the per-tree outcome ones in rid.cpp).
struct ShardedRidMetrics {
  util::metrics::Counter& runs =
      util::metrics::global().counter("rid.sharded_runs");
  util::metrics::Counter& resumed =
      util::metrics::global().counter("rid.trees_resumed");
  util::metrics::Counter& transport_fallbacks =
      util::metrics::global().counter("net.transport_fallbacks");
};

ShardedRidMetrics& sharded_metrics() {
  static ShardedRidMetrics instance;
  return instance;
}

/// Size-balanced deterministic plan over an arbitrary subset of trees
/// (resume plans only the trees missing from the checkpoint directory).
std::vector<util::ShardWork> plan_over(const CascadeForest& forest,
                                       std::vector<std::size_t> trees,
                                       std::size_t num_shards) {
  if (num_shards == 0)
    throw util::InputError("sharded RID run requires num_shards >= 1");
  std::vector<util::ShardWork> shards;
  if (trees.empty()) return shards;
  // Longest-processing-time greedy: biggest trees first (index breaks
  // ties), each onto the lightest shard (shard id breaks ties). Depends
  // only on the forest shape, never on scheduling.
  std::sort(trees.begin(), trees.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t sa = forest.trees[a].size();
    const std::size_t sb = forest.trees[b].size();
    if (sa != sb) return sa > sb;
    return a < b;
  });
  shards.resize(std::min(num_shards, trees.size()));
  for (std::size_t s = 0; s < shards.size(); ++s) shards[s].shard_id = s;
  std::vector<std::size_t> load(shards.size(), 0);
  for (const std::size_t tree : trees) {
    const std::size_t lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    shards[lightest].items.push_back(tree);
    load[lightest] += std::max<std::size_t>(1, forest.trees[tree].size());
  }
  // Workers process (and the poison suspect is defined over) ascending tree
  // order within the shard.
  for (util::ShardWork& shard : shards)
    std::sort(shard.items.begin(), shard.items.end());
  return shards;
}

void ensure_run_dir(const std::string& run_dir, bool resume,
                    std::vector<std::string>& events) {
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    throw util::InputError("cannot create run directory '" + run_dir +
                           "': " + ec.message());
  }
  if (resume) return;
  // Fresh run: stale checkpoint files would otherwise look durable to the
  // supervisor and be merged back in.
  std::size_t removed = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(run_dir, ec)) {
    if (ec) break;
    if (entry.path().extension() != kCheckpointExtension) continue;
    std::error_code remove_ec;
    if (fs::remove(entry.path(), remove_ec)) ++removed;
  }
  if (removed > 0) {
    std::ostringstream event;
    event << "fresh run: removed " << removed << " stale checkpoint file"
          << (removed == 1 ? "" : "s") << " from " << run_dir;
    events.push_back(event.str());
  }
}

/// Refuses configurations a transport cannot reproduce bit-identically.
void validate_transport(const RidConfig& config, const ShardedConfig& sharded) {
  if (sharded.run_dir.empty()) {
    throw util::InputError(
        "sharded RID run requires a run directory (ShardedConfig::run_dir)");
  }
  if (sharded.transport != ShardTransport::kSocket) return;
  if (sharded.worker_command.empty())
    throw util::InputError(
        "socket transport requires ShardedConfig::worker_command (the "
        "binary exec'd as `<cmd> worker`)");
  if (sharded.graph_path.empty())
    throw util::InputError(
        "socket transport requires ShardedConfig::graph_path (a .ridg "
        "snapshot with embedded states for workers to re-map)");
  // The forest fingerprint covers tree shapes and states but NOT the
  // candidate mask or repaired states — an exec'd worker re-extracting from
  // the raw snapshot would silently compute against a different
  // eligibility set. Refuse instead of diverging.
  if (!config.candidates.empty())
    throw util::InputError(
        "socket transport does not support RidConfig::candidates (the "
        "mask is not covered by the forest fingerprint)");
  if (config.repair_policy == RepairPolicy::kRepair)
    throw util::InputError(
        "socket transport does not support RepairPolicy::kRepair "
        "(repaired states are not covered by the forest fingerprint)");
}

/// The fully resolved solve configuration both launchers hand their
/// workers (thread counts substituted: a worker must not re-derive anything
/// from its own environment). Cancellation stays parent-side — the
/// supervisor kills.
WorkerAssignment resolve_assignment(const CascadeForest& forest,
                                    const RidConfig& config,
                                    const ShardedConfig& sharded,
                                    std::uint64_t fingerprint) {
  WorkerAssignment assignment;
  assignment.fingerprint = fingerprint;
  assignment.trace_id = sharded.trace_id;
  // Workers record spans only when the parent is tracing; the telemetry
  // frame itself always flows (the metrics half is always compiled).
  assignment.collect_trace = trace::enabled();
  assignment.graph_path = sharded.graph_path;
  assignment.beta = config.beta;
  assignment.dp = config.dp;
  assignment.dp.budget = nullptr;
  // Resolved against the full forest, like run_rid_on_forest — the DP is
  // bit-identical across thread counts, so a shard may use the whole
  // pool's share.
  if (assignment.dp.num_threads == 0)
    assignment.dp.num_threads = internal::intra_tree_threads(config, forest);
  assignment.extraction = config.extraction;
  assignment.extraction.budget = nullptr;
  if (assignment.extraction.num_threads == 0)
    assignment.extraction.num_threads = config.num_threads;
  assignment.budget = config.budget;
  assignment.budget.cancel = {};
  return assignment;
}

/// One sharded run: its run directory's identity and the per-tree records
/// gathered so far — first record per tree wins (records for the same tree
/// are byte-identical on a deterministic pipeline).
class ShardedRun {
 public:
  ShardedRun(const CascadeForest& forest, const ShardedConfig& sharded,
             RunDiagnostics& diagnostics)
      : forest_(forest),
        sharded_(sharded),
        diagnostics_(diagnostics),
        fingerprint_(forest_fingerprint(forest)),
        have_(forest.trees.size(), false),
        records_(forest.trees.size()) {
    ensure_run_dir(sharded.run_dir, sharded.resume, diagnostics.shard_events);
  }

  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// Adopts every valid record in the run directory. Damaged files surface
  /// as shard events, never as a crash.
  void adopt_run_dir(bool counts_as_resume) {
    CheckpointLoad load = load_checkpoint_dir(sharded_.run_dir, fingerprint_);
    for (TreeCheckpointRecord& record : load.records) {
      if (record.tree_index >= records_.size()) {
        std::ostringstream event;
        event << "ignoring checkpoint record for out-of-range tree "
              << record.tree_index;
        diagnostics_.shard_events.push_back(event.str());
        continue;
      }
      const std::size_t t = static_cast<std::size_t>(record.tree_index);
      if (have_[t]) continue;
      have_[t] = true;
      records_[t] = std::move(record);
      if (counts_as_resume) ++diagnostics_.resumed_trees;
    }
    for (std::string& error : load.errors)
      diagnostics_.shard_events.push_back("checkpoint: " + std::move(error));
  }

  /// Trees no record covers yet (ascending), minus `also_done`.
  std::vector<std::size_t> missing(
      const std::unordered_set<std::size_t>& also_done = {}) const {
    std::vector<std::size_t> out;
    for (std::size_t t = 0; t < have_.size(); ++t)
      if (!have_[t] && !also_done.count(t)) out.push_back(t);
    return out;
  }

  /// Trees with a valid record in the run directory right now (tolerant
  /// load — a worker may have died mid-record).
  std::unordered_set<std::size_t> durable_trees() const {
    std::unordered_set<std::size_t> done;
    for (const TreeCheckpointRecord& record :
         load_checkpoint_dir(sharded_.run_dir, fingerprint_).records)
      if (record.tree_index < have_.size())
        done.insert(static_cast<std::size_t>(record.tree_index));
    return done;
  }

  /// One launcher phase: plans `trees` and supervises the shards to
  /// completion with `launcher`.
  util::SupervisorReport run_phase(const std::vector<std::size_t>& trees,
                                   const util::ShardLauncher& launcher,
                                   const util::SupervisorOptions& options) {
    const std::vector<util::ShardWork> shards =
        plan_over(forest_, trees, sharded_.num_shards);
    std::vector<std::unordered_set<std::size_t>> items(shards.size());
    for (const util::ShardWork& shard : shards)
      items[shard.shard_id].insert(shard.items.begin(), shard.items.end());
    // Parent-side durability probe: which of a shard's trees are on disk.
    const auto durable = [&](std::size_t shard_id) {
      std::vector<std::size_t> done;
      for (const std::size_t t : durable_trees())
        if (items[shard_id].count(t)) done.push_back(t);
      return done;
    };
    return util::supervise_shards(shards, options, launcher, durable);
  }

  /// Exec'd workers under the optional grace watchdog, then the
  /// degraded-transport fallback to the fork launcher.
  util::SupervisorReport run_socket(SocketDispatcher& dispatcher,
                                    const std::vector<std::size_t>& pending) {
    // Grace watchdog (remote_grace_seconds > 0): a derived cancel token
    // trips when the user cancels, or when the grace budget elapses with no
    // worker having ever completed a handshake — the transport is treated
    // as unreachable and the remaining trees re-run over the fork launcher
    // below. The watchdog retires permanently after the first handshake:
    // from then on connection losses follow the normal retry/requeue
    // ladder, not the fallback.
    util::SupervisorOptions options = sharded_.supervisor;
    util::SupervisorReport report;
    {
      std::jthread watchdog;
      if (sharded_.remote_grace_seconds > 0) {
        const util::CancelToken grace_cancel = util::CancelToken::create();
        options.cancel = grace_cancel;
        const util::CancelToken user_cancel = sharded_.supervisor.cancel;
        const double grace = sharded_.remote_grace_seconds;
        watchdog = std::jthread([&dispatcher, grace_cancel, user_cancel,
                                 grace](std::stop_token stop) {
          const auto start = std::chrono::steady_clock::now();
          while (!stop.stop_requested()) {
            if (user_cancel.cancel_requested()) {
              grace_cancel.request_cancel();
              return;
            }
            if (dispatcher.handshakes_completed() > 0) return;
            const double elapsed = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() - start)
                                       .count();
            if (elapsed >= grace) {
              grace_cancel.request_cancel();
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        });
      }
      report = run_phase(pending,
                         dispatcher.launcher(sharded_.worker_command, options),
                         options);
    }  // the watchdog stops and joins here, on every path
    if (sharded_.remote_grace_seconds > 0 &&
        !sharded_.supervisor.cancel.cancel_requested() &&
        (report.cancelled || dispatcher.handshakes_completed() == 0))
      fall_back_to_fork(dispatcher, report);
    return report;
  }

  /// Poison pills are demoted in the parent and the demotion *persisted*,
  /// so a later resume keeps the verdict instead of feeding the killer tree
  /// to a fresh worker. Abandoned or cancelled trees are demoted in memory
  /// only — a clean resume should recompute them.
  void demote(const util::SupervisorReport& report) {
    if (!report.poisoned_items.empty()) {
      std::ostringstream reason;
      reason << "poison pill: tree killed "
             << sharded_.supervisor.poison_threshold
             << " workers; demoted to root-only fallback";
      try {
        CheckpointWriter poison_writer(
            sharded_.run_dir + "/poison-p" + std::to_string(util::own_pid()) +
                kCheckpointExtension,
            fingerprint_);
        for (const std::size_t item : report.poisoned_items)
          if (demote_tree(item, reason.str())) {
            ++diagnostics_.shard_poison_trees;
            poison_writer.append(records_[item]);
          }
      } catch (const std::exception& e) {
        diagnostics_.shard_events.push_back(
            std::string("failed to persist poison demotions: ") + e.what());
        for (const std::size_t item : report.poisoned_items)
          if (demote_tree(item, reason.str()))
            ++diagnostics_.shard_poison_trees;
      }
    }
    for (const std::size_t item : report.abandoned_items) {
      std::ostringstream reason;
      reason << "abandoned after " << sharded_.supervisor.max_shard_attempts
             << " worker attempts";
      demote_tree(item, reason.str());
    }
    for (std::size_t t = 0; t < have_.size(); ++t)
      demote_tree(t, report.cancelled ? "cancelled before completion"
                                      : "not completed by any worker");
  }

  /// Per-tree diagnostics and the merge, both in tree order — the merge
  /// accumulation order is the bit-identity contract with run_rid.
  void merge(DetectionResult& out) const {
    std::vector<const TreeSolution*> views(records_.size());
    for (std::size_t t = 0; t < records_.size(); ++t) {
      const TreeCheckpointRecord& record = records_[t];
      TreeDiagnostics tree;
      tree.tree_index = t;
      tree.num_nodes = forest_.trees[t].size();
      tree.status = record.status;
      tree.seconds = record.seconds;
      tree.budget_hit = record.budget_hit;
      tree.fallback_root_only = record.fallback_root_only;
      tree.error = record.error;
      internal::record_tree(diagnostics_, std::move(tree));
      views[t] = &record.solution;
    }
    internal::merge_solutions(forest_, views, out);
  }

 private:
  /// The socket phase ended (grace-cancelled or attempts exhausted) without
  /// a single completed handshake, and trees remain: re-run the
  /// non-durable remainder over the fork launcher under the *user's* cancel
  /// token. The socket phase's poison/abandon verdicts are transport
  /// artifacts — no worker ever held those trees — so the fallback's
  /// verdicts replace them; its crash and retry counts merge for
  /// observability. Results stay bit-identical: records adopt first-wins
  /// and both launchers run the same per-tree loop.
  void fall_back_to_fork(SocketDispatcher& dispatcher,
                         util::SupervisorReport& report) {
    const std::vector<std::size_t> remaining = missing(durable_trees());
    if (remaining.empty()) return;
    sharded_metrics().transport_fallbacks.add(1);
    std::ostringstream event;
    event << "degraded transport: no socket worker completed a handshake"
          << " within the " << sharded_.remote_grace_seconds
          << "s grace budget; re-running " << remaining.size()
          << " trees over the fork transport";
    diagnostics_.shard_events.push_back(event.str());
    util::SupervisorReport fallback = run_phase(
        remaining, dispatcher.fork_launcher(forest_, sharded_.supervisor),
        sharded_.supervisor);
    report.cancelled = fallback.cancelled;
    report.crashes += fallback.crashes;
    report.retries += fallback.retries;
    report.poisoned_items = std::move(fallback.poisoned_items);
    report.abandoned_items = std::move(fallback.abandoned_items);
    for (std::string& fallback_event : fallback.events)
      report.events.push_back(std::move(fallback_event));
  }

  /// Demotes a tree no worker completed (poison pill, attempts exhausted,
  /// or cancellation) to the RID-Tree root-only ladder an in-process DP
  /// failure takes. False when the tree already has a record.
  bool demote_tree(std::size_t t, const std::string& reason) {
    if (t >= have_.size() || have_[t]) return false;
    TreeDiagnostics tree;
    tree.error = reason;
    TreeCheckpointRecord& record = records_[t];
    record.tree_index = t;
    internal::fall_back_to_root(forest_.trees[t], record.solution, tree);
    record.status = tree.status;
    record.fallback_root_only = tree.fallback_root_only;
    record.error = std::move(tree.error);
    have_[t] = true;
    return true;
  }

  const CascadeForest& forest_;
  const ShardedConfig& sharded_;
  RunDiagnostics& diagnostics_;
  const std::uint64_t fingerprint_;
  std::vector<bool> have_;
  std::vector<TreeCheckpointRecord> records_;
};

}  // namespace

std::vector<util::ShardWork> plan_shards(const CascadeForest& forest,
                                         std::size_t num_shards) {
  std::vector<std::size_t> trees(forest.trees.size());
  std::iota(trees.begin(), trees.end(), 0);
  return plan_over(forest, std::move(trees), num_shards);
}

DetectionResult run_rid_sharded_on_forest(const CascadeForest& forest,
                                          const RidConfig& config,
                                          const ShardedConfig& sharded) {
  validate_transport(config, sharded);
  const bool socket_transport = sharded.transport == ShardTransport::kSocket;
  if (!util::process_isolation_supported() ||
      (socket_transport && !util::net::supported())) {
    // No fork() on this platform: degrade to the in-process pipeline (same
    // answer — the whole point of the bit-identity contract).
    DetectionResult result = run_rid_on_forest(forest, config);
    result.diagnostics.shard_events.push_back(
        "process isolation unsupported on this platform - ran in-process");
    return result;
  }
  sharded_metrics().runs.add(1);

  trace::TraceSpan span("solve_forest_sharded");
  span.tag("trees", static_cast<std::int64_t>(forest.trees.size()));
  span.tag("shards", static_cast<std::int64_t>(sharded.num_shards));

  DetectionResult out;
  out.num_components = forest.num_components;
  out.num_trees = forest.trees.size();
  RunDiagnostics& diagnostics = out.diagnostics;

  // Resume: adopt every durable tree, then plan only the rest.
  ShardedRun run(forest, sharded, diagnostics);
  if (sharded.resume) run.adopt_run_dir(/*counts_as_resume=*/true);
  sharded_metrics().resumed.add(diagnostics.resumed_trees);
  const std::vector<std::size_t> pending = run.missing();
  diagnostics.shard_count = std::min(sharded.num_shards, pending.size());

  WorkerAssignment assignment =
      resolve_assignment(forest, config, sharded, run.fingerprint());
  util::SupervisorReport report;
  if (socket_transport) {
    DispatcherOptions dispatcher_options;
    dispatcher_options.auth_token = sharded.auth_token;
    dispatcher_options.graph_cache_dir = sharded.graph_cache_dir;
    SocketDispatcher dispatcher(
        sharded.worker_endpoint.empty()
            ? util::net::Endpoint::unix_path(sharded.run_dir + "/workers.sock")
            : util::net::Endpoint::parse(sharded.worker_endpoint),
        sharded.run_dir, std::move(assignment), dispatcher_options);
    report = run.run_socket(dispatcher, pending);
    for (std::string& event : dispatcher.take_events())
      diagnostics.shard_events.push_back(std::move(event));
  } else {
    SocketDispatcher dispatcher(sharded.run_dir, std::move(assignment));
    report = run.run_phase(
        pending, dispatcher.fork_launcher(forest, sharded.supervisor),
        sharded.supervisor);
    for (std::string& event : dispatcher.take_events())
      diagnostics.shard_events.push_back(std::move(event));
  }
  diagnostics.shard_retries = report.retries;
  diagnostics.shard_crashes = report.crashes;
  for (const std::string& event : report.events)
    diagnostics.shard_events.push_back(event);

  run.adopt_run_dir(/*counts_as_resume=*/false);
  run.demote(report);
  run.merge(out);

  diagnostics.total_seconds = span.seconds();
  internal::attach_stage_totals(diagnostics);
  util::log_debug("run_rid_sharded(beta=", config.beta, ", shards=",
                  diagnostics.shard_count, "): ", out.initiators.size(),
                  " initiators from ", forest.trees.size(), " trees (",
                  diagnostics.resumed_trees, " resumed, ", report.retries,
                  " retries, ", report.crashes, " crashes)");
  return out;
}

namespace {

template <typename Graph>
DetectionResult run_rid_sharded_impl(const Graph& diffusion,
                                     std::span<const graph::NodeState> states,
                                     const RidConfig& config,
                                     const ShardedConfig& sharded) {
  trace::TraceSpan span("run_rid_sharded");
  // Same front half as run_rid (extraction in the parent, once — forked
  // workers inherit the forest copy-on-write).
  internal::PreparedForest prepared =
      internal::prepare_forest(diffusion, states, config);

  // The solves only need the forest. On the columnar backend, drop the
  // graph's resident pages *before* the supervisor forks workers, so each
  // child's RSS is O(its shard's trees) instead of O(graph) — the pages
  // re-fault from the file if the parent touches them again.
  if constexpr (std::is_same_v<Graph, graph::ColumnarGraphView>)
    diffusion.advise_dontneed();

  DetectionResult result =
      run_rid_sharded_on_forest(prepared.forest, config, sharded);
  result.diagnostics.repairs = std::move(prepared.repairs);
  result.diagnostics.extraction_seconds =
      static_cast<double>(prepared.extraction_ns) * 1e-9;
  result.diagnostics.total_seconds = span.seconds();
  internal::attach_stage_totals(result.diagnostics);
  return result;
}

}  // namespace

DetectionResult run_rid_sharded(const graph::SignedGraph& diffusion,
                                std::span<const graph::NodeState> states,
                                const RidConfig& config,
                                const ShardedConfig& sharded) {
  return run_rid_sharded_impl(diffusion, states, config, sharded);
}

DetectionResult run_rid_sharded(const graph::ColumnarGraphView& diffusion,
                                std::span<const graph::NodeState> states,
                                const RidConfig& config,
                                const ShardedConfig& sharded) {
  return run_rid_sharded_impl(diffusion, states, config, sharded);
}

}  // namespace rid::core
