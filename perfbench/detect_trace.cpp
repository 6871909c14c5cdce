// detect_trace — the traced twin of `ridnet_cli detect` used by
// perfbench/run.py --trace 1.
//
// It makes the public library calls cmd_detect makes, in the same order and
// with the same configuration, and times each one (steady_clock plus
// getrusage deltas). run_rid and run_rid_sharded are replaced by the public
// calls they make themselves (extract_cascade_forest, advise_dontneed,
// run_rid_on_forest / run_rid_sharded_on_forest), so every layer gets its
// own span without any instrumentation inside src/. The --out bytes must
// equal the CLI's; run.py checks them against the same reference.
//
// After the result write, outside the timed pipeline, a serial solve_tree
// pass over every tree measures the DP layer on its own. Its cost (plus the
// report write) is reported as extra_ns so the caller can take it out of
// the process wall clock.
//
//   detect_trace --graph=G [--snapshot=S] [--threads=N]
//                [--shards=N --run-dir=DIR] --out=FILE --report=FILE.json
//
// Only the flags the benchmark's workloads pass are read; everything else
// keeps the CLI's defaults (beta 2.0, alpha 3.0, arc gather auto, fork
// transport).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/rid.hpp"
#include "core/snapshot_io.hpp"
#include "graph/columnar.hpp"
#include "graph/diffusion_network.hpp"
#include "graph/graph_io.hpp"
#include "util/errors.hpp"
#include "util/flags.hpp"

namespace {

using namespace rid;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::int64_t tv_us(const timeval& tv) {
  return static_cast<std::int64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
}

struct Call {
  std::string name;
  std::uint64_t ns = 0;
  std::int64_t user_us = 0;
  std::int64_t sys_us = 0;
  std::int64_t minflt = 0;
};

/// Times calls in order; each record is one public library call.
class CallLog {
 public:
  template <typename Fn>
  auto time(const char* name, Fn&& fn) {
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    const auto start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(name, before, start);
    } else {
      auto value = fn();
      record(name, before, start);
      return value;
    }
  }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  void record(const char* name, const rusage& before, Clock::time_point start) {
    const auto end = Clock::now();
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    calls_.push_back({name, ns_between(start, end),
                      tv_us(after.ru_utime) - tv_us(before.ru_utime),
                      tv_us(after.ru_stime) - tv_us(before.ru_stime),
                      after.ru_minflt - before.ru_minflt});
  }

  std::vector<Call> calls_;
};

struct ShardUsage {
  std::int64_t child_cpu_us = 0;
  std::int64_t child_maxrss_kb = 0;
  std::uint64_t ckpt_bytes = 0;
};

core::RidConfig rid_config(const util::Flags& flags,
                           const util::CancelToken& cancel) {
  // Mirrors rid_config_from_flags in examples/ridnet_cli.cpp for the flags
  // the workloads pass.
  core::RidConfig config;
  config.beta = flags.get_double("beta", 2.0);
  config.extraction.likelihood.alpha = flags.get_double("alpha", 3.0);
  config.num_threads = static_cast<std::size_t>(flags.get_int("threads", 1));
  config.budget.cancel = cancel;
  return config;
}

core::ShardedConfig sharded_config(const util::Flags& flags, int shards,
                                   const util::CancelToken& cancel) {
  // Mirrors sharded_config_from_flags: fork transport, and the supervisor
  // fields the CLI fills from flags keep their defaults, which equal the
  // CLI's flag defaults.
  core::ShardedConfig sharded;
  sharded.num_shards = static_cast<std::size_t>(shards);
  sharded.run_dir = flags.get_string("run-dir", "ridnet-run");
  sharded.resume = false;
  sharded.supervisor.cancel = cancel;
  return sharded;
}

std::uint64_t checkpoint_bytes(const std::string& run_dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(run_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".ckpt")
      bytes += entry.file_size();
  }
  return bytes;
}

/// extract -> [advise_dontneed] -> solve, the body of run_rid and
/// run_rid_sharded for the CLI's configuration (kReject, no candidates).
template <typename Graph>
core::DetectionResult detect(CallLog& log, const Graph& diffusion,
                             std::span<const graph::NodeState> snapshot,
                             const core::RidConfig& config,
                             const util::Flags& flags,
                             const util::CancelToken& cancel,
                             core::CascadeForest& forest, ShardUsage& usage) {
  core::ExtractionConfig extraction = config.extraction;
  if (extraction.num_threads == 0) extraction.num_threads = config.num_threads;
  forest = log.time("extract", [&] {
    return core::extract_cascade_forest(diffusion, snapshot, extraction);
  });
  const int shards = static_cast<int>(flags.get_int("shards", 0));
  if (shards <= 0)
    return log.time("solve", [&] { return core::run_rid_on_forest(forest, config); });

  if constexpr (std::is_same_v<Graph, graph::ColumnarGraphView>)
    log.time("graph.dontneed", [&] { diffusion.advise_dontneed(); });
  const core::ShardedConfig sharded = sharded_config(flags, shards, cancel);
  rusage before{};
  getrusage(RUSAGE_CHILDREN, &before);
  core::DetectionResult result = log.time("shard", [&] {
    return core::run_rid_sharded_on_forest(forest, config, sharded);
  });
  rusage after{};
  getrusage(RUSAGE_CHILDREN, &after);
  usage.child_cpu_us = tv_us(after.ru_utime) + tv_us(after.ru_stime) -
                       tv_us(before.ru_utime) - tv_us(before.ru_stime);
  usage.child_maxrss_kb = after.ru_maxrss;
  usage.ckpt_bytes = checkpoint_bytes(sharded.run_dir);
  return result;
}

struct DpPass {
  std::uint64_t tree_ns_sum = 0;
  std::uint64_t giant_ns = 0;
  std::size_t giant_nodes = 0;
  std::uint32_t giant_k = 0;
  std::size_t tiny_trees = 0;
  std::size_t initiators = 0;
};

/// Serial per-tree solves with the options run_rid_on_forest uses at one
/// intra-tree thread (the value it resolves to whenever trees >= threads).
DpPass dp_pass(const core::CascadeForest& forest, const core::RidConfig& config) {
  DpPass out;
  core::TreeDpOptions options = config.dp;
  options.num_threads = 1;
  std::size_t giant = 0;
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    const core::CascadeTree& tree = forest.trees[t];
    const auto start = Clock::now();
    const core::TreeSolution solution =
        core::solve_tree(tree, config.beta, options);
    const std::uint64_t ns = ns_between(start, Clock::now());
    out.tree_ns_sum += ns;
    out.initiators += solution.initiators.size();
    if (tree.size() <= 3) ++out.tiny_trees;
    if (t == 0 || tree.size() > forest.trees[giant].size()) {
      giant = t;
      out.giant_ns = ns;
      out.giant_nodes = tree.size();
      out.giant_k = solution.k;
    }
  }
  return out;
}

std::size_t count_infected(std::span<const graph::NodeState> states) {
  return static_cast<std::size_t>(
      std::count_if(states.begin(), states.end(), graph::is_active));
}

int run(const util::Flags& flags, Clock::time_point main_start) {
  const std::string graph_path = flags.get_string("graph", "graph.txt");
  const std::string out_path = flags.get_string("out", "detected.txt");
  const std::string report_path = flags.get_string("report", "");
  if (report_path.empty()) {
    std::fprintf(stderr, "detect_trace: --report=FILE is required\n");
    return 2;
  }
  const util::CancelToken cancel = util::CancelToken::create();
  CallLog log;
  ShardUsage usage;
  core::CascadeForest forest;
  core::DetectionResult result;
  std::vector<graph::NodeState> snapshot;
  graph::NodeId num_nodes = 0;

  // --- the timed pipeline, in cmd_detect's order -------------------------
  const bool ridg = log.time("graph.sniff",
                             [&] { return graph::is_ridg_file(graph_path); });
  // Declared here so the graphs live as long as they do in cmd_detect.
  graph::ColumnarGraphView view;
  graph::LoadedGraph loaded;
  graph::SignedGraph diffusion;
  const core::RidConfig config = rid_config(flags, cancel);
  if (ridg) {
    view = log.time("graph.open_ridg",
                    [&] { return graph::ColumnarGraphView::open(graph_path); });
    if ((view.flags() & graph::kRidgFlagDiffusion) == 0)
      throw util::InputError(graph_path + ": holds the social graph");
    if (flags.has("snapshot") || !view.has_states())
      throw util::InputError(graph_path + ": needs an embedded snapshot");
    log.time("snapshot.load", [&] {
      const auto states = view.states();
      snapshot.assign(states.begin(), states.end());
    });
    num_nodes = view.num_nodes();
    result = detect(log, view, snapshot, config, flags, cancel, forest, usage);
  } else {
    loaded = log.time("graph.load_text",
                      [&] { return graph::load_weighted_file(graph_path); });
    diffusion = log.time("graph.reverse", [&] {
      return graph::make_diffusion_network(loaded.graph);
    });
    snapshot = log.time("snapshot.load", [&] {
      return core::load_snapshot_file(flags.get_string("snapshot", "snap.txt"),
                                      diffusion.num_nodes());
    });
    num_nodes = diffusion.num_nodes();
    result =
        detect(log, diffusion, snapshot, config, flags, cancel, forest, usage);
  }
  std::vector<graph::NodeState> detected(num_nodes,
                                         graph::NodeState::kInactive);
  for (std::size_t i = 0; i < result.initiators.size(); ++i) {
    detected[result.initiators[i]] = graph::is_opinion(result.states[i])
                                         ? result.states[i]
                                         : graph::NodeState::kUnknown;
  }
  log.time("snapshot.write",
           [&] { core::save_snapshot_file(detected, out_path); });
  const std::uint64_t main_to_write_ns = ns_between(main_start, Clock::now());
  std::cout << "wrote " << out_path << " (" << result.initiators.size()
            << " initiators from " << result.num_trees << " trees, "
            << result.num_components << " components)\n";
  std::fprintf(stderr, "%s\n", result.diagnostics.summary().c_str());

  // --- untimed: DP layer pass and the report -----------------------------
  const auto extra_start = Clock::now();
  const DpPass dp = dp_pass(forest, config);
  const std::uintmax_t text_bytes =
      ridg ? 0 : std::filesystem::file_size(graph_path);
  std::size_t forest_nodes = 0;
  for (const core::CascadeTree& tree : forest.trees) forest_nodes += tree.size();

  std::ofstream report(report_path);
  report << "{\"ridg\": " << (ridg ? "true" : "false")
         << ", \"threads\": " << config.num_threads
         << ", \"text_bytes\": " << text_bytes
         << ", \"main_to_write_ns\": " << main_to_write_ns << ", \"calls\": [";
  for (std::size_t i = 0; i < log.calls().size(); ++i) {
    const Call& call = log.calls()[i];
    report << (i ? ", " : "") << "{\"name\": \"" << call.name
           << "\", \"ns\": " << call.ns << ", \"user_us\": " << call.user_us
           << ", \"sys_us\": " << call.sys_us << ", \"minflt\": " << call.minflt
           << "}";
  }
  report << "], \"shard\": {\"child_cpu_us\": " << usage.child_cpu_us
         << ", \"child_maxrss_kb\": " << usage.child_maxrss_kb
         << ", \"ckpt_bytes\": " << usage.ckpt_bytes << "}"
         << ", \"counts\": {\"infected\": " << count_infected(snapshot)
         << ", \"forest_nodes\": " << forest_nodes
         << ", \"components\": " << forest.num_components
         << ", \"trees\": " << forest.trees.size()
         << ", \"candidate_arcs\": " << forest.num_candidate_arcs
         << ", \"initiators\": " << result.initiators.size()
         << ", \"dp_initiators\": " << dp.initiators
         << ", \"giant_nodes\": " << dp.giant_nodes
         << ", \"giant_k\": " << dp.giant_k
         << ", \"tiny_trees\": " << dp.tiny_trees << "}"
         << ", \"dp\": {\"tree_ns_sum\": " << dp.tree_ns_sum
         << ", \"giant_ns\": " << dp.giant_ns << "}";
  const std::uint64_t extra_ns = ns_between(extra_start, Clock::now());
  report << ", \"extra_ns\": " << extra_ns << "}\n";
  report.close();
  if (!report) {
    std::fprintf(stderr, "detect_trace: cannot write %s\n", report_path.c_str());
    return 1;
  }
  return result.diagnostics.all_ok() ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  const auto main_start = Clock::now();
  const auto flags = rid::util::Flags::parse(argc, argv);
  try {
    return run(flags, main_start);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "detect_trace: %s\n", error.what());
    return 3;
  }
}
