// ridnet_cli — end-to-end command-line front end for the library.
//
//   ridnet_cli generate  --profile=epinions --scale=0.05 --out=graph.txt
//   ridnet_cli simulate  --graph=graph.txt --n=50 --theta=0.5 ...
//                        --snapshot=snap.txt --truth=truth.txt
//   ridnet_cli detect    --graph=graph.txt --snapshot=snap.txt ...
//                        --method=rid --beta=2.0 --out=detected.txt
//   ridnet_cli evaluate  --graph=graph.txt --detected=detected.txt ...
//                        --truth=truth.txt
//   ridnet_cli pipeline  --profile=slashdot --scale=0.05 --n=50 --beta=2.0
//   ridnet_cli convert   --graph=graph.txt --out=graph.ridg ...
//                        [--snapshot=snap.txt] [--social]
//                        [--chunk-edges=N] [--expect-fingerprint=HEX]
//   ridnet_cli checkpoints --run-dir=ridnet-run [--verify] [--gc]
//   ridnet_cli serve     --run-dir=ridnet-serve [--endpoint=unix:PATH|tcp:P]
//                        [--resume] [--transport=socket] [--max-queued=8] ...
//   ridnet_cli submit    --connect=ridnet-serve/serve.sock --graph=g.ridg
//                        --beta=2.0 --shards=2 [--wait [--timeout=S]]
//   ridnet_cli query     --connect=ridnet-serve/serve.sock --job=1
//   ridnet_cli stats     --connect=ridnet-serve/serve.sock [--events]
//                        [--metrics-format=json|prom]
//   ridnet_cli worker    --connect=ENDPOINT --shard=N --attempt=N
//                        ($RID_AUTH_TOKEN)
//
// Graph files are the library's weighted signed edge-list format
// ("src dst sign weight"; see graph/graph_io.hpp) holding the *social*
// network; snapshots/truth/detections are "node state" files
// (core/snapshot_io.hpp). `generate` already applies Jaccard weighting, so
// `simulate`/`detect` load the file straight into the diffusion network
// (graph::load_diffusion_file: each row is stored reversed, and no social
// graph is built). A text `detect` reads its snapshot first and builds only
// the out-edges of the snapshot's active nodes, the only edges any
// --method reads.
//
// Columnar storage (graph/columnar.hpp, DESIGN.md §12/§15): `convert` writes
// the binary .ridg format — by default the *diffusion* reversal of the input
// (what detect consumes), with `--social` the graph as-is; `--snapshot`
// embeds the observed states so one file carries the whole detection input.
// Conversion streams (graph/columnar_stream.hpp): two passes over the text
// plus tmpfile chunk spills keep peak memory O(nodes + chunk) for
// arbitrarily many edges; `--chunk-edges=N` tunes the chunk. The output is
// byte-deterministic and byte-identical to the library's in-RAM writer
// (graph::write_columnar_file): converting the same input any way yields the
// same file, whose data fingerprint convert prints.
// `--expect-fingerprint=HEX` re-checks that print and exits 2 on mismatch
// (for scripted reproducibility gates). `detect` auto-detects .ridg inputs
// by magic and mmaps them zero-copy (method=rid only; baselines and --early
// need the in-RAM graph); `--snapshot` then overrides any embedded state
// column. Extraction reads only the infected nodes' out-edges, and on a
// .ridg larger than 128 MiB it drops the edge pages it maps as it goes;
// results are bit-identical to the text path either way.
//
// `checkpoints` inspects a --run-dir of sharded-run checkpoint files (path,
// version, forest fingerprint, valid record prefix, damage); `--verify`
// exits 3 if any file is damaged, `--gc` compacts every salvageable record
// into one compact.ckpt (first record per tree wins, exactly like --resume)
// and prunes superseded attempt/poison files.
//
// Robustness flags (detect/pipeline, method=rid):
//   --deadline=SECONDS    wall-clock budget for the per-tree solves
//   --max-tree-nodes=N    degrade trees larger than N nodes (deterministic)
//   --max-k=K             cap the initiator count explored per tree
//   --repair              sanitize malformed snapshots instead of rejecting
//
// Crash isolation (detect/pipeline, method=rid; see DESIGN.md §11):
//   --shards=N            solve the forest in N forked worker processes
//                         whose per-tree results are checkpointed into
//                         --run-dir as they stream back.
//                         The merged result is bit-identical to the
//                         in-process run. 0 (default) = in-process.
//   --run-dir=DIR         checkpoint/run directory (default ridnet-run)
//   --resume              adopt completed trees already checkpointed in
//                         --run-dir instead of recomputing them (default:
//                         a fresh run deletes stale *.ckpt files)
//   --shard-attempts=N    worker attempts per shard before its remaining
//                         trees degrade to the root-only fallback
//   --shard-heartbeat=S   kill a worker whose checkpoint stream makes no
//                         progress for S seconds
//   --shard-deadline=S    kill a worker attempt that outlives S seconds
//   --shard-mem-limit=MIB cap each worker's address space (setrlimit); a
//                         worker that blows it dies and is requeued like a
//                         crash
//   --shard-cpu-limit=S   cap each worker's CPU seconds (setrlimit)
//   --shard-poison-threshold=N
//                         demote a tree after N worker deaths implicate it
//                         (default 2). Raise it for chaos drills where
//                         injected transport faults kill attempts that
//                         contain perfectly healthy trees.
//   --transport=MODE      fork (default) or socket: fork+exec
//                         "<worker-command> worker" per shard and dispatch
//                         assignments, trees included, over a socket (any
//                         input; see DESIGN.md §13)
//   --worker-command=BIN  binary exec'd per socket worker (default: this
//                         ridnet_cli binary itself)
//   --worker-endpoint=EP  dispatcher endpoint (default: a unix socket in
//                         --run-dir)
//   --auth-token=SECRET   shared secret for the worker handshake's HMAC
//                         challenge (socket transport). Prefer exporting
//                         $RID_AUTH_TOKEN instead — argv is world-readable
//                         via ps; workers always receive the secret through
//                         the environment, never argv. Empty = workers are
//                         not challenged.
//   --remote-grace=S      fall back to the fork transport when no socket
//                         worker completes a handshake (and nothing turns
//                         durable) within S seconds; the result stays
//                         bit-identical and the switch is surfaced as a
//                         degraded-transport diagnostic. 0 (default) =
//                         never fall back
//   --failpoints=SPEC     arm deterministic fault injection, e.g.
//                         "tree_dp.compute=throw@2;checkpoint.append=abort"
//                         (also read from $RID_FAILPOINTS; see
//                         util/failpoint.hpp for the grammar)
//
// Signals: the first SIGINT/SIGTERM requests cooperative cancellation —
// in-flight trees degrade, workers are killed, and trace/metrics/
// diagnostics (and any checkpoints already streamed) are still written
// before exiting with code 5. A second signal exits immediately (128+sig).
//
// Observability flags (any subcommand; see DESIGN.md §9):
//   --trace=FILE          record pipeline spans, write Chrome trace-event
//                         JSON on exit (chrome://tracing / Perfetto).
//                         Requires an RID_TRACING=ON build; otherwise a
//                         warning is printed and no file is written.
//   --metrics=FILE        write the metrics registry snapshot (counters/
//                         gauges/histograms) on exit
//   --metrics-format=F    json (default) or prom: the Prometheus text
//                         exposition, scrapeable by a node_exporter-style
//                         textfile collector
//
// Exit codes (documented contract, also in README.md):
//   0  success, every tree solved exactly
//   1  internal error (bug or resource failure)
//   2  usage error (unknown subcommand/flags)
//   3  bad input (malformed graph/snapshot files, invalid flag values).
//      `convert` and a text `detect` read the snapshot before the graph,
//      so a missing or malformed snapshot is the error reported even when
//      the graph is bad too; a snapshot id past the graph's node count
//      names its snapshot line
//   4  completed but degraded (some trees fell back to RID-Tree answers;
//      results were still written, diagnostics on stderr say why)
//   5  interrupted (SIGINT/SIGTERM): partial results and observability
//      artifacts were flushed before exiting
//   6  try again later (submit rejected over the admission budget with a
//      retry-after hint; query/--wait on a still-pending job)
//   7  handshake rejected (worker subcommand only): the dispatcher refused
//      this worker with a typed reject frame — protocol version skew,
//      binary fingerprint skew, or a failed auth challenge. Deliberate and
//      terminal: retrying the same binary with the same credentials cannot
//      succeed
//
// Service mode (DESIGN.md §13): `serve` runs the long-lived daemon —
// submissions land in a crash-safe journal under --run-dir, run as sharded
// detections (multiplexed across jobs via --worker-slots), and leave
// results in <run-dir>/job-<id>/result.txt, byte-identical to what
// `detect --out` writes for the same input. `serve --resume` after a crash
// or restart re-queues every journal-incomplete job and keeps finished
// results. `submit`/`query` are the matching clients; `stats` fetches a
// live daemon snapshot (job table, queue/slot occupancy, uptime, metrics;
// `--events` dumps the in-daemon flight-recorder ring as JSONL); `worker`
// is the subprocess entry point the socket transport exec's — not for
// direct use. The serve daemon also keeps a crash-surviving flight
// recorder: its event ring is dumped to <run-dir>/flight.jsonl on exit
// (including SIGTERM) and, via an async-signal-safe path, on fatal
// signals (see DESIGN.md §14).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/baselines.hpp"
#include "core/checkpoint.hpp"
#include "core/serve.hpp"
#include "core/shard_transport.hpp"
#include "core/jordan_center.hpp"
#include "core/rid.hpp"
#include "core/rumor_centrality.hpp"
#include "core/temporal.hpp"
#include "core/snapshot_io.hpp"
#include "diffusion/mfc.hpp"
#include "gen/profiles.hpp"
#include "graph/columnar.hpp"
#include "graph/columnar_stream.hpp"
#include "graph/diffusion_network.hpp"
#include "graph/graph_io.hpp"
#include "graph/jaccard.hpp"
#include "graph/stats.hpp"
#include "metrics/classification.hpp"
#include "metrics/states.hpp"
#include "util/errors.hpp"
#include "util/failpoint.hpp"
#include "util/flags.hpp"
#include "util/flight_recorder.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace {

using namespace rid;

// Exit-code contract (see the file header and README.md).
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBadInput = 3;
constexpr int kExitDegraded = 4;
constexpr int kExitInterrupted = 5;
constexpr int kExitRetryLater = 6;

// Resolved in main(): the path socket-transport shard dispatch exec's as
// "<worker_command> worker ..." when --worker-command is not given.
std::string g_self_path;

// Signal handling: the first SIGINT/SIGTERM trips the cancel token every
// budget (and the shard supervisor) polls, so the run unwinds cooperatively
// and main still flushes artifacts; a second signal exits on the spot.
std::atomic<int> g_signal{0};

util::CancelToken& cli_cancel_token() {
  static util::CancelToken token = util::CancelToken::create();
  return token;
}

extern "C" void handle_cli_signal(int sig) {
  if (g_signal.exchange(sig) != 0) std::_Exit(128 + sig);
  // request_cancel is a relaxed atomic store — async-signal-safe.
  cli_cancel_token().request_cancel();
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_cli_signal);
  std::signal(SIGTERM, handle_cli_signal);
}

int usage() {
  std::fprintf(stderr,
               "usage: ridnet_cli <generate|simulate|detect|evaluate|"
               "pipeline|convert|checkpoints|serve|submit|query|stats|"
               "worker> [--flags]\n"
               "run with a subcommand and no flags for its defaults; see the "
               "header of examples/ridnet_cli.cpp for details\n");
  return kExitUsage;
}

gen::DatasetProfile profile_by_name(const std::string& name) {
  if (name == "epinions" || name == "Epinions") return gen::epinions_profile();
  if (name == "slashdot" || name == "Slashdot") return gen::slashdot_profile();
  throw std::invalid_argument("unknown profile: " + name +
                              " (use epinions or slashdot)");
}

graph::SignedGraph generate_graph(const util::Flags& flags) {
  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 42)));
  graph::SignedGraph social = gen::generate_dataset(
      profile_by_name(flags.get_string("profile", "epinions")),
      flags.get_double("scale", 0.05), rng);
  util::Rng wrng = rng.split();
  graph::apply_jaccard_weights(social, wrng,
                               {.zero_fill_max = flags.get_double("jc-fill", 0.1)});
  return social;
}

int cmd_generate(const util::Flags& flags) {
  const graph::SignedGraph social = generate_graph(flags);
  const std::string out = flags.get_string("out", "graph.txt");
  graph::save_weighted_file(social, out);
  std::cout << "wrote " << out << ": "
            << graph::to_string(graph::compute_stats(social)) << "\n";
  return 0;
}

diffusion::Cascade simulate_on(const graph::SignedGraph& diffusion,
                               diffusion::SeedSet& seeds,
                               const util::Flags& flags) {
  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("sim-seed", 7)));
  const auto n = diffusion.num_nodes();
  const auto want = std::min<std::size_t>(
      flags.get_count<std::size_t>("n", 50), n);
  const double theta = flags.get_double("theta", 0.5);
  const auto picks = rng.sample_without_replacement(n, want);
  seeds.nodes.assign(picks.begin(), picks.end());
  seeds.states.clear();
  for (std::size_t i = 0; i < want; ++i) {
    seeds.states.push_back(i < theta * static_cast<double>(want)
                               ? graph::NodeState::kPositive
                               : graph::NodeState::kNegative);
  }
  diffusion::MfcConfig mfc;
  mfc.alpha = flags.get_double("alpha", 3.0);
  mfc.allow_flipping = flags.get_bool("flipping", true);
  return diffusion::simulate_mfc(diffusion, seeds, mfc, rng);
}

int cmd_simulate(const util::Flags& flags) {
  const auto loaded =
      graph::load_diffusion_file(flags.get_string("graph", "graph.txt"));
  const graph::SignedGraph& diffusion = loaded.graph;
  diffusion::SeedSet seeds;
  const diffusion::Cascade cascade = simulate_on(diffusion, seeds, flags);

  const std::string snapshot_path = flags.get_string("snapshot", "snap.txt");
  core::save_snapshot_file(cascade.state, snapshot_path);
  std::cout << "wrote " << snapshot_path << " (" << cascade.num_infected()
            << " infected from " << seeds.nodes.size() << " seeds, "
            << cascade.num_flips << " flips)\n";

  const std::string truth_path = flags.get_string("truth", "truth.txt");
  std::vector<graph::NodeState> truth(diffusion.num_nodes(),
                                      graph::NodeState::kInactive);
  for (std::size_t i = 0; i < seeds.nodes.size(); ++i)
    truth[seeds.nodes[i]] = seeds.states[i];
  core::save_snapshot_file(truth, truth_path);
  std::cout << "wrote " << truth_path << "\n";
  return 0;
}

/// Prints the run diagnostics to stderr and maps them onto the exit code:
/// 0 when every tree solved exactly, kExitDegraded otherwise (results are
/// still written — callers decide whether a degraded answer is usable).
int finish_detection(const core::DetectionResult& result) {
  std::fprintf(stderr, "%s\n", result.diagnostics.summary().c_str());
  return result.diagnostics.all_ok() ? 0 : kExitDegraded;
}

core::RidConfig rid_config_from_flags(const util::Flags& flags) {
  core::RidConfig config;
  config.beta = flags.get_double("beta", 2.0);
  config.extraction.likelihood.alpha = flags.get_double("alpha", 3.0);
  config.num_threads = flags.get_count<std::size_t>("threads", 1);
  config.budget.deadline_seconds =
      flags.get_double("deadline", util::kUnlimitedSeconds);
  config.budget.max_tree_nodes =
      flags.get_count<std::uint32_t>("max-tree-nodes", 0);
  config.budget.max_k = flags.get_count<std::uint32_t>("max-k", 0);
  config.budget.cancel = cli_cancel_token();
  if (flags.get_bool("repair", false))
    config.repair_policy = core::RepairPolicy::kRepair;
  return config;
}

core::ShardedConfig sharded_config_from_flags(const util::Flags& flags,
                                              std::size_t shards) {
  core::ShardedConfig sharded;
  sharded.num_shards = shards;
  sharded.run_dir = flags.get_string("run-dir", "ridnet-run");
  sharded.resume = flags.get_bool("resume", false);
  sharded.supervisor.max_shard_attempts =
      flags.get_count<std::uint32_t>("shard-attempts", 5);
  sharded.supervisor.heartbeat_timeout_seconds =
      flags.get_double("shard-heartbeat", util::kUnlimitedSeconds);
  sharded.supervisor.shard_deadline_seconds =
      flags.get_double("shard-deadline", util::kUnlimitedSeconds);
  // MiB on the command line; the bound keeps the shift inside 64 bits.
  sharded.supervisor.mem_limit_bytes =
      flags.get_count<std::uint64_t>(
          "shard-mem-limit", 0, std::numeric_limits<std::uint64_t>::max() >> 20)
      << 20;
  sharded.supervisor.cpu_limit_seconds =
      flags.get_double("shard-cpu-limit", 0.0);
  sharded.supervisor.poison_threshold =
      flags.get_count<std::uint32_t>("shard-poison-threshold", 2);
  sharded.supervisor.cancel = cli_cancel_token();
  const std::string transport = flags.get_string("transport", "fork");
  if (transport == "socket") {
    sharded.transport = core::ShardTransport::kSocket;
    sharded.worker_command = flags.get_string("worker-command", g_self_path);
    sharded.worker_endpoint = flags.get_string("worker-endpoint", "");
    // Handshake shared secret: $RID_AUTH_TOKEN is the recommended channel
    // (argv is world-readable via ps); --auth-token overrides it for
    // drills. Workers always receive it via the environment, never argv.
    const char* env_token = std::getenv("RID_AUTH_TOKEN");
    sharded.auth_token =
        flags.get_string("auth-token", env_token ? env_token : "");
    sharded.remote_grace_seconds = flags.get_double("remote-grace", 0.0);
  } else if (transport != "fork") {
    throw std::invalid_argument("unknown transport: " + transport +
                                " (fork|socket)");
  }
  return sharded;
}

core::DetectionResult detect_on(const graph::SignedGraph& diffusion,
                                std::span<const graph::NodeState> snapshot,
                                const util::Flags& flags) {
  const std::string method = flags.get_string("method", "rid");
  if (method == "rid") {
    const core::RidConfig config = rid_config_from_flags(flags);
    // --early=<snapshot file>: two-snapshot temporal detection.
    const std::string early_path = flags.get_string("early", "");
    if (!early_path.empty()) {
      const auto early =
          core::load_snapshot_file(early_path, diffusion.num_nodes());
      return core::run_rid_with_early_snapshot(diffusion, early, snapshot,
                                               config);
    }
    // --shards=N: crash-isolated multi-process execution with checkpoints.
    const std::size_t shards = flags.get_count<std::size_t>("shards", 0);
    if (shards > 0)
      return core::run_rid_sharded(diffusion, snapshot, config,
                                   sharded_config_from_flags(flags, shards));
    return core::run_rid(diffusion, snapshot, config);
  }
  core::BaselineConfig base;
  base.extraction.likelihood.alpha = flags.get_double("alpha", 3.0);
  if (method == "rid-tree") return core::run_rid_tree(diffusion, snapshot, base);
  if (method == "rid-positive")
    return core::run_rid_positive(diffusion, snapshot, base);
  if (method == "rumor-centrality")
    return core::run_rumor_centrality(diffusion, snapshot, base);
  if (method == "jordan")
    return core::run_jordan_center(diffusion, snapshot, base);
  throw std::invalid_argument(
      "unknown method: " + method +
      " (rid|rid-tree|rid-positive|rumor-centrality|jordan)");
}

/// Zero-copy detection over a mmap-ed .ridg file. Only method=rid is
/// templated over the columnar backend; baselines and the temporal
/// (--early) path need the in-RAM SignedGraph, so they ask for the text
/// input instead of silently materializing one.
core::DetectionResult detect_on(const graph::ColumnarGraphView& diffusion,
                                std::span<const graph::NodeState> snapshot,
                                const util::Flags& flags) {
  const std::string method = flags.get_string("method", "rid");
  if (method != "rid")
    throw util::InputError("method '" + method +
                           "' needs a text graph; .ridg inputs support "
                           "--method=rid only");
  if (!flags.get_string("early", "").empty())
    throw util::InputError(
        "--early needs a text graph; pass the edge-list file instead of "
        "a .ridg input");
  const core::RidConfig config = rid_config_from_flags(flags);
  const std::size_t shards = flags.get_count<std::size_t>("shards", 0);
  if (shards > 0)
    return core::run_rid_sharded(diffusion, snapshot, config,
                                 sharded_config_from_flags(flags, shards));
  return core::run_rid(diffusion, snapshot, config);
}

int write_detection(const core::DetectionResult& result,
                    graph::NodeId num_nodes, const util::Flags& flags) {
  std::vector<graph::NodeState> detected(num_nodes,
                                         graph::NodeState::kInactive);
  for (std::size_t i = 0; i < result.initiators.size(); ++i) {
    detected[result.initiators[i]] =
        graph::is_opinion(result.states[i]) ? result.states[i]
                                            : graph::NodeState::kUnknown;
  }
  const std::string out = flags.get_string("out", "detected.txt");
  core::save_snapshot_file(detected, out);
  std::cout << "wrote " << out << " (" << result.initiators.size()
            << " initiators from " << result.num_trees << " trees, "
            << result.num_components << " components)\n";
  return finish_detection(result);
}

int cmd_detect(const util::Flags& flags) {
  const std::string graph_path = flags.get_string("graph", "graph.txt");
  if (graph::is_ridg_file(graph_path)) {
    const auto view = graph::ColumnarGraphView::open(graph_path);
    if ((view.flags() & graph::kRidgFlagDiffusion) == 0)
      throw util::InputError(
          graph_path +
          ": holds the social graph (converted with --social); detect "
          "needs the diffusion reversal — reconvert without --social");
    // An explicit --snapshot always wins; otherwise the embedded state
    // column (convert --snapshot=...) makes the .ridg self-contained.
    std::vector<graph::NodeState> snapshot;
    if (!flags.has("snapshot") && view.has_states()) {
      const auto states = view.states();
      snapshot.assign(states.begin(), states.end());
    } else {
      snapshot = core::load_snapshot_file(
          flags.get_string("snapshot", "snap.txt"), view.num_nodes());
    }
    const core::DetectionResult result = detect_on(view, snapshot, flags);
    return write_detection(result, view.num_nodes(), flags);
  }
  // The snapshot is parsed first, as in convert, and the graph load builds
  // only its active nodes' out-edges, since no detector reads any other.
  // Ids are range-checked once the node count is known.
  const auto entries = core::load_snapshot_entries_file(
      flags.get_string("snapshot", "snap.txt"));
  std::vector<std::uint64_t> active;
  for (const core::SnapshotEntry& entry : entries)
    if (graph::is_active(entry.state)) active.push_back(entry.node);
  const auto loaded = graph::load_diffusion_file(graph_path, std::move(active));
  const graph::SignedGraph& diffusion = loaded.graph;
  const auto snapshot =
      core::apply_snapshot_entries(entries, diffusion.num_nodes());
  const core::DetectionResult result = detect_on(diffusion, snapshot, flags);
  return write_detection(result, diffusion.num_nodes(), flags);
}

struct LabeledStates {
  std::vector<graph::NodeId> ids;
  std::vector<graph::NodeState> states;
};

LabeledStates active_entries(std::span<const graph::NodeState> states) {
  LabeledStates out;
  for (std::size_t v = 0; v < states.size(); ++v) {
    if (graph::is_active(states[v])) {
      out.ids.push_back(static_cast<graph::NodeId>(v));
      out.states.push_back(states[v]);
    }
  }
  return out;
}

int cmd_evaluate(const util::Flags& flags) {
  const auto loaded =
      graph::load_weighted_file(flags.get_string("graph", "graph.txt"));
  const auto n = loaded.graph.num_nodes();
  const auto detected_states =
      core::load_snapshot_file(flags.get_string("detected", "detected.txt"), n);
  const auto truth_states =
      core::load_snapshot_file(flags.get_string("truth", "truth.txt"), n);
  const LabeledStates detected = active_entries(detected_states);
  const LabeledStates truth = active_entries(truth_states);

  const auto identity = metrics::score_identities(detected.ids, truth.ids);
  std::printf("identities: detected=%zu actual=%zu precision=%.4f "
              "recall=%.4f F1=%.4f\n",
              identity.detected, identity.actual, identity.precision,
              identity.recall, identity.f1);

  // State metrics over the correctly identified initiators.
  const auto both = metrics::intersect_ids(detected.ids, truth.ids);
  std::vector<graph::NodeState> predicted;
  std::vector<graph::NodeState> actual;
  for (const graph::NodeId v : both) {
    predicted.push_back(detected_states[v]);
    actual.push_back(truth_states[v]);
  }
  const auto state_scores = metrics::score_states(predicted, actual);
  std::printf("states (over %zu hits): accuracy=%.4f MAE=%.4f R2=%.4f\n",
              state_scores.count, state_scores.accuracy, state_scores.mae,
              state_scores.r2);
  return 0;
}

int cmd_pipeline(const util::Flags& flags) {
  const graph::SignedGraph social = generate_graph(flags);
  std::cout << "generated: " << graph::to_string(graph::compute_stats(social))
            << "\n";
  const graph::SignedGraph diffusion = graph::make_diffusion_network(social);
  diffusion::SeedSet seeds;
  const diffusion::Cascade cascade = simulate_on(diffusion, seeds, flags);
  std::cout << "simulated: " << cascade.num_infected() << " infected from "
            << seeds.nodes.size() << " seeds\n";
  const core::DetectionResult result =
      detect_on(diffusion, cascade.state, flags);
  const auto identity =
      metrics::score_identities(result.initiators, seeds.nodes);
  std::printf("%s: detected=%zu precision=%.4f recall=%.4f F1=%.4f\n",
              flags.get_string("method", "rid").c_str(),
              result.initiators.size(), identity.precision, identity.recall,
              identity.f1);
  return finish_detection(result);
}

int cmd_convert(const util::Flags& flags) {
  const std::string in_path = flags.get_string("graph", "graph.txt");
  const std::string out_path = flags.get_string("out", "graph.ridg");
  // Store the diffusion reversal by default: that is the graph detect runs
  // on, and reversing at convert time is what lets detect mmap the file
  // without materializing anything.
  const bool social = flags.get_bool("social", false);

  // Parse the snapshot rows before touching the graph: a malformed snapshot
  // fails with its line-numbered error before conversion spends any work.
  // Range checking happens once the node count is known.
  const std::string snapshot_path = flags.get_string("snapshot", "");
  std::vector<core::SnapshotEntry> snapshot_entries;
  if (!snapshot_path.empty())
    snapshot_entries = core::load_snapshot_entries_file(snapshot_path);

  // Two passes over the text plus chunk spills: peak RSS is
  // O(nodes + chunk) no matter how many edges the input holds.
  graph::TextEdgeSource source(in_path);
  graph::StreamConvertOptions options;
  options.social = social;
  options.chunk_edges = flags.get_count<std::size_t>("chunk-edges", 1 << 20);
  options.make_states =
      [&](graph::NodeId num_nodes) -> std::vector<graph::NodeState> {
    if (snapshot_path.empty()) return {};
    return core::apply_snapshot_entries(snapshot_entries, num_nodes);
  };
  const graph::StreamConvertResult result =
      graph::stream_convert_to_columnar(source, out_path, options);

  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(result.fingerprint));
  std::cout << "wrote " << out_path << " (" << result.num_nodes << " nodes, "
            << result.num_edges << " edges, "
            << (social ? "social" : "diffusion")
            << (snapshot_path.empty() ? "" : ", embedded snapshot")
            << ", fingerprint " << fp << ")\n";

  const std::string expect = flags.get_string("expect-fingerprint", "");
  if (!expect.empty()) {
    char* end = nullptr;
    const std::uint64_t want = std::strtoull(expect.c_str(), &end, 16);
    if (end == expect.c_str() || *end != '\0' || want != result.fingerprint) {
      std::fprintf(stderr,
                   "ridnet_cli convert: fingerprint mismatch: wrote %s, "
                   "expected %s\n",
                   fp, expect.c_str());
      return kExitUsage;
    }
  }
  return 0;
}

int cmd_checkpoints(const util::Flags& flags) {
  const std::string run_dir = flags.get_string("run-dir", "ridnet-run");
  if (!std::filesystem::is_directory(run_dir))
    throw util::InputError(run_dir + ": not a directory");
  if (flags.get_bool("gc", false)) {
    const core::CompactionResult gc = core::compact_checkpoint_dir(run_dir);
    for (const std::string& note : gc.errors)
      std::fprintf(stderr, "ridnet_cli checkpoints: %s\n", note.c_str());
    std::cout << "compacted " << run_dir << ": " << gc.files_before
              << " files -> "
              << (gc.output_file.empty() ? "(no records)" : gc.output_file)
              << " (" << gc.records_kept << " records kept, "
              << gc.duplicates_dropped << " duplicates dropped, "
              << gc.files_removed << " files removed)\n";
    return 0;
  }
  // Deterministic listing order regardless of directory iteration order.
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(run_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".ckpt")
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  std::size_t damaged = 0;
  for (const std::string& path : paths) {
    const core::CheckpointFileInfo info = core::inspect_checkpoint_file(path);
    if (info.damaged) {
      ++damaged;
      std::printf("%s  DAMAGED (%s)\n", path.c_str(), info.error.c_str());
    } else {
      std::printf("%s  v%u fingerprint=%016llx records=%zu\n", path.c_str(),
                  info.version,
                  static_cast<unsigned long long>(info.fingerprint),
                  info.records);
    }
  }
  std::printf("%zu checkpoint file(s), %zu damaged\n", paths.size(), damaged);
  if (flags.get_bool("verify", false) && damaged > 0) return kExitBadInput;
  return 0;
}

// Socket-transport worker entry point: exec'd by the shard dispatcher, not
// meant for direct use. run_socket_worker owns the whole lifecycle and
// returns the process exit code (its failures must look like worker
// crashes to the supervisor, never like CLI usage errors).
int cmd_worker(const util::Flags& flags) {
  // The shared secret only ever arrives via the environment (the launcher
  // exports RID_AUTH_TOKEN between fork and exec) — a --auth-token flag
  // here would leak it through /proc/<pid>/cmdline. run_socket_worker
  // reads the variable itself.
  return core::run_socket_worker(
      flags.get_string("connect", ""),
      flags.get_count<std::size_t>("shard", 0),
      flags.get_count<std::uint32_t>("attempt", 1));
}

int cmd_serve(const util::Flags& flags) {
  core::ServeOptions options;
  options.run_dir = flags.get_string("run-dir", "ridnet-serve");
  options.endpoint = flags.get_string("endpoint", "");
  options.resume = flags.get_bool("resume", false);
  options.max_queued_jobs = flags.get_count<std::size_t>("max-queued", 8);
  options.max_pending_nodes =
      flags.get_count<std::uint64_t>("max-pending-nodes", 0);
  options.max_concurrent_jobs =
      flags.get_count<std::size_t>("max-concurrent", 2);
  options.worker_slots = flags.get_count<std::size_t>("worker-slots", 0);
  options.base_config = rid_config_from_flags(flags);
  const core::ShardedConfig sharded = sharded_config_from_flags(flags, 0);
  options.supervisor = sharded.supervisor;
  options.transport = sharded.transport;
  options.worker_command = sharded.worker_command;
  options.auth_token = sharded.auth_token;
  options.remote_grace_seconds = sharded.remote_grace_seconds;
  options.cancel = cli_cancel_token();
  options.on_listening = [](const std::string& endpoint) {
    std::cout << "serving on " << endpoint << std::endl;  // flush: readiness
  };
  // The daemon's flight recorder outlives the daemon: a fatal signal dumps
  // the event ring via the async-signal-safe path, and every orderly exit
  // (including the cooperative SIGTERM unwind) rewrites the same file.
  const std::string flight_path = options.run_dir + "/flight.jsonl";
  util::flight::install_fatal_dump(flight_path);
  const core::ServeReport report = core::run_serve(options);
  util::flight::dump_jsonl_file(flight_path);
  for (const std::string& event : report.events)
    std::fprintf(stderr, "ridnet_cli serve: %s\n", event.c_str());
  std::cout << "serve: accepted=" << report.jobs_accepted
            << " rejected=" << report.jobs_rejected
            << " completed=" << report.jobs_completed
            << " recovered=" << report.jobs_recovered << "\n";
  return 0;  // a stopping signal still maps to kExitInterrupted in main
}

/// Polls a submitted job until it finishes. Transient connection failures
/// (the daemon restarting mid-drill) are retried until the timeout.
int wait_for_job(const std::string& endpoint, std::uint64_t job_id,
                 double timeout_seconds) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    if (g_signal.load() != 0) return kExitInterrupted;
    core::JobQueryResult result;
    bool reachable = true;
    try {
      result = core::query_job(endpoint, job_id);
    } catch (const util::InputError&) {
      reachable = false;
    }
    if (reachable) {
      if (result.phase == core::JobPhase::kDone) {
        std::cout << "job " << job_id << ": " << result.message << "\n"
                  << result.result_path << "\n";
        return result.ok ? 0
                         : (result.degraded ? kExitDegraded : kExitInternal);
      }
      if (result.phase == core::JobPhase::kUnknown) {
        std::fprintf(stderr, "ridnet_cli submit: job %llu is unknown\n",
                     static_cast<unsigned long long>(job_id));
        return kExitBadInput;
      }
    }
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (timeout_seconds > 0 && waited >= timeout_seconds) {
      std::fprintf(stderr,
                   "ridnet_cli submit: job %llu still pending after %.1fs\n",
                   static_cast<unsigned long long>(job_id), waited);
      return kExitRetryLater;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

int cmd_submit(const util::Flags& flags) {
  const std::string endpoint =
      flags.get_string("connect", "ridnet-serve/serve.sock");
  core::JobSpec spec;
  spec.graph_path = flags.get_string("graph", "graph.ridg");
  spec.beta = flags.get_double("beta", 2.0);
  spec.num_shards = flags.get_count<std::size_t>("shards", 2);
  const core::SubmitOutcome outcome = core::submit_job(endpoint, spec);
  if (!outcome.accepted) {
    if (outcome.permanent) {
      std::fprintf(stderr, "ridnet_cli submit: rejected: %s\n",
                   outcome.reason.c_str());
      return kExitBadInput;
    }
    std::fprintf(stderr,
                 "ridnet_cli submit: rejected, retry after %.1fs: %s\n",
                 outcome.retry_after_seconds, outcome.reason.c_str());
    return kExitRetryLater;
  }
  std::cout << "accepted job " << outcome.job_id << " (" << outcome.job_dir
            << ")\n";
  if (!flags.get_bool("wait", false)) return 0;
  return wait_for_job(endpoint, outcome.job_id,
                      flags.get_double("timeout", 0.0));
}

int cmd_query(const util::Flags& flags) {
  const std::string endpoint =
      flags.get_string("connect", "ridnet-serve/serve.sock");
  const auto job_id = static_cast<std::uint64_t>(flags.get_int("job", 0));
  const core::JobQueryResult result = core::query_job(endpoint, job_id);
  std::cout << result.message << "\n";
  if (result.phase == core::JobPhase::kDone) {
    if (result.has_stats) {
      std::printf("wall=%.3fs cpu=%.3fs rss_peak=%llu KiB\n",
                  result.wall_seconds, result.cpu_seconds,
                  static_cast<unsigned long long>(result.rss_peak_kb));
    }
    std::cout << result.result_path << "\n";
    return result.ok ? 0 : (result.degraded ? kExitDegraded : kExitInternal);
  }
  return result.phase == core::JobPhase::kPending ? kExitRetryLater
                                                  : kExitBadInput;
}

// Live daemon introspection: prints the kStats snapshot as one JSON object
// (machine-parseable — the CI drill pipes it straight into python), or,
// with --events, the daemon's flight-recorder ring as JSONL.
int cmd_stats(const util::Flags& flags) {
  const std::string endpoint =
      flags.get_string("connect", "ridnet-serve/serve.sock");
  const std::string format = flags.get_string("metrics-format", "json");
  if (format != "json" && format != "prom") {
    std::fprintf(stderr,
                 "ridnet_cli stats: unknown --metrics-format=%s "
                 "(use json or prom)\n",
                 format.c_str());
    return kExitUsage;
  }
  const bool events = flags.get_bool("events", false);
  const core::DaemonStats stats =
      core::query_stats(endpoint, events, format == "prom");
  if (events) {
    std::cout << stats.events_jsonl;  // JSONL, already newline-terminated
  } else {
    std::cout << stats.stats_json << "\n";
  }
  return 0;
}

/// Runs `command`. A command that returns (whatever its exit code) also
/// names each flag it never read, so a misspelt or retired flag does not
/// pass silently; the warning never changes the exit code.
int dispatch(const std::string& command, const rid::util::Flags& flags) {
  using Command = int (*)(const rid::util::Flags&);
  static const std::pair<const char*, Command> kCommands[] = {
      {"generate", cmd_generate}, {"simulate", cmd_simulate},
      {"detect", cmd_detect},     {"evaluate", cmd_evaluate},
      {"pipeline", cmd_pipeline}, {"convert", cmd_convert},
      {"checkpoints", cmd_checkpoints}, {"serve", cmd_serve},
      {"submit", cmd_submit},     {"query", cmd_query},
      {"stats", cmd_stats},       {"worker", cmd_worker}};
  const auto* it = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const auto& entry) { return command == entry.first; });
  if (it == std::end(kCommands)) return usage();
  try {
    const int code = it->second(flags);
    for (const std::string& name : flags.unread())
      std::fprintf(stderr, "ridnet_cli %s: ignoring unknown flag --%s\n",
                   command.c_str(), name.c_str());
    return code;
  } catch (const rid::util::InputError& error) {
    std::fprintf(stderr, "ridnet_cli %s: %s\n", command.c_str(), error.what());
    return kExitBadInput;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "ridnet_cli %s: %s\n", command.c_str(), error.what());
    return kExitBadInput;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ridnet_cli %s: %s\n", command.c_str(), error.what());
    return kExitInternal;
  }
}

/// Written after the subcommand so the artifacts cover the full run,
/// including degraded (exit 4) and failed attempts. Never changes the
/// subcommand's exit code.
void write_observability_artifacts(const std::string& trace_path,
                                   const std::string& metrics_path,
                                   const std::string& metrics_format) {
  namespace trace = rid::util::trace;
  if (!trace_path.empty() && trace::compiled()) {
    trace::stop();
    if (trace::write_chrome_trace_file(trace_path)) {
      std::fprintf(stderr, "wrote trace %s (%zu spans)\n", trace_path.c_str(),
                   trace::snapshot().spans.size());
    } else {
      std::fprintf(stderr, "ridnet_cli: cannot write trace file %s\n",
                   trace_path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    const bool ok =
        metrics_format == "prom"
            ? rid::util::metrics::write_metrics_prometheus_file(metrics_path)
            : rid::util::metrics::write_metrics_json_file(metrics_path);
    if (ok) {
      std::fprintf(stderr, "wrote metrics %s (%zu series, %s)\n",
                   metrics_path.c_str(),
                   rid::util::metrics::global().snapshot().num_series(),
                   metrics_format.c_str());
    } else {
      std::fprintf(stderr, "ridnet_cli: cannot write metrics file %s\n",
                   metrics_path.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  {
    // The socket transport re-execs this binary as its worker; prefer the
    // kernel's answer over argv[0] (which may be a bare name from $PATH).
    std::error_code ec;
    const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
    g_self_path = ec ? std::string(argv[0]) : self.string();
  }
  const auto flags = rid::util::Flags::parse(argc - 1, argv + 1);
  install_signal_handlers();
  // Fault injection: $RID_FAILPOINTS first, then --failpoints on top.
  try {
    rid::util::failpoint::arm_from_env();
    const std::string failpoints = flags.get_string("failpoints", "");
    if (!failpoints.empty()) rid::util::failpoint::arm(failpoints);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ridnet_cli: bad failpoint spec: %s\n", error.what());
    return kExitUsage;
  }
  const std::string trace_path = flags.get_string("trace", "");
  const std::string metrics_path = flags.get_string("metrics", "");
  const std::string metrics_format = flags.get_string("metrics-format", "json");
  if (metrics_format != "json" && metrics_format != "prom") {
    std::fprintf(stderr,
                 "ridnet_cli: unknown --metrics-format=%s (use json or prom)\n",
                 metrics_format.c_str());
    return kExitUsage;
  }
  if (!trace_path.empty()) {
    if (rid::util::trace::compiled()) {
      rid::util::trace::start();
    } else {
      std::fprintf(stderr,
                   "ridnet_cli: --trace ignored (built with RID_TRACING=OFF; "
                   "no trace file will be written)\n");
    }
  }
  int code = dispatch(command, flags);
  // Artifacts flush even on an interrupted run — that is the whole point of
  // the cooperative first-signal path.
  write_observability_artifacts(trace_path, metrics_path, metrics_format);
  if (g_signal.load() != 0) {
    std::fprintf(stderr, "ridnet_cli: interrupted by signal %d\n",
                 g_signal.load());
    code = kExitInterrupted;
  }
  return code;
}
