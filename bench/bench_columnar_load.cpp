// Columnar .ridg load path vs text parse, and the sharded out-of-core RSS
// story (DESIGN.md §12).
//
// Three claims are measured on the same deterministic synthetic diffusion
// network (>= 1M edges in full mode):
//
//   1. Load time: ColumnarGraphView::open mmaps the file and verifies only
//      the 64-byte header, so "load" is O(1) page-table work; the text path
//      (what a text detect runs: the snapshot parse, then
//      load_diffusion_file with its active ids) re-parses every edge and
//      builds the edges among the active nodes. The report records both and
//      their ratio — the acceptance bar is >= 10x in full mode
//      (scripts/check_bench.py).
//   2. Bit-identity: run_rid over the mmap-ed view (with its embedded
//      snapshot) must equal run_rid over the in-RAM SignedGraph bit-for-bit
//      — the zero-copy backend is a pure representation change.
//   3. Worker RSS: run_rid_sharded on the columnar backend drops the
//      mapping's pages (MADV_DONTNEED) before forking, so each worker's
//      peak RSS (shard.rss_peak_kb, measured by the supervisor via wait4)
//      is O(its shard's trees) instead of O(graph). The in-RAM baseline
//      inherits the whole SignedGraph copy-on-write.
//
// Forked children inherit every resident page of their parent, so any heap
// the benchmark itself retains would count identically toward both
// backends' worker RSS and bury the difference. Each heavy stage therefore
// runs in its own forked child reporting a small POD through a pipe: one
// setup child generates the graph, writes both files, times the loads and
// proves run_rid bit-identity; then one probe child per backend runs
// run_rid_sharded holding nothing but that backend's working set.
//
// Writes a machine-readable BENCH_columnar_load.json next to
// BENCH_tree_dp.json; scripts/check_bench.py validates the shape and gates
// the speedup / RSS claims.
//
//   ./bench_columnar_load [--smoke] [--json=BENCH_columnar_load.json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define RIDNET_BENCH_HAS_FORK 1
#endif

#include "core/rid.hpp"
#include "core/snapshot_io.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/columnar.hpp"
#include "graph/diffusion_network.hpp"
#include "graph/graph_io.hpp"
#include "util/flags.hpp"
#include "util/fnv.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace rid;
using graph::NodeId;

namespace fs = std::filesystem;

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool identical(const core::DetectionResult& a, const core::DetectionResult& b) {
  return a.num_components == b.num_components && a.num_trees == b.num_trees &&
         a.initiators == b.initiators && a.states == b.states &&
         double_bits(a.total_opt) == double_bits(b.total_opt) &&
         double_bits(a.total_objective) == double_bits(b.total_objective);
}

/// Order- and bit-sensitive digest of everything `identical` compares, so a
/// forked stage can prove equality across a process boundary in 8 bytes.
std::uint64_t result_digest(const core::DetectionResult& r) {
  std::uint64_t h = util::kFnv64Basis;
  const auto mix = [&h](const void* data, std::size_t size) {
    h = util::fnv1a64(data, size, h);
  };
  const std::uint64_t counts[2] = {r.num_components, r.num_trees};
  mix(counts, sizeof(counts));
  mix(r.initiators.data(), r.initiators.size() * sizeof(NodeId));
  mix(r.states.data(), r.states.size() * sizeof(graph::NodeState));
  const std::uint64_t totals[2] = {double_bits(r.total_opt),
                                   double_bits(r.total_objective)};
  mix(totals, sizeof(totals));
  return h;
}

/// Runs `fn` in a forked child and reads its trivially-copyable result back
/// through a pipe; the child's entire heap dies with it. Falls back to
/// calling `fn` inline when fork is unavailable or fails.
template <typename T, typename Fn>
T run_isolated(Fn&& fn) {
#ifdef RIDNET_BENCH_HAS_FORK
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) return fn();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return fn();
  }
  if (pid == 0) {
    close(fds[0]);
    const T value = fn();
    const ssize_t unused = write(fds[1], &value, sizeof(T));
    static_cast<void>(unused);
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  T value{};
  const ssize_t got = read(fds[0], &value, sizeof(T));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof(T))) return T{};
  return value;
#else
  return fn();
#endif
}

struct Scenario {
  graph::SignedGraph diffusion;
  std::vector<graph::NodeState> states;
};

/// Deterministic diffusion network + MFC snapshot: ER topology, 80%
/// positive edges. Weak weights and many well-spread seeds keep each
/// cascade local, so the snapshot fragments into many small trees and
/// sharded workers' RSS is dominated by what they inherit (the graph
/// backend under test) rather than by one giant tree's DP table — with
/// dense infection all seeds merge into a single component whose multi-
/// initiator DP dwarfs the graph.
Scenario make_scenario(NodeId nodes, std::size_t edges) {
  Scenario s;
  util::Rng rng(2026);
  const auto el = gen::erdos_renyi(nodes, edges, rng);
  graph::SignedGraph social =
      gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
  for (graph::EdgeId e = 0; e < social.num_edges(); ++e)
    social.set_edge_weight(e, rng.uniform(0.01, 0.08));
  s.diffusion = graph::make_diffusion_network(social);
  diffusion::SeedSet seeds;
  const NodeId stride = std::max<NodeId>(1, nodes / 400);
  for (NodeId v = 0; v < nodes; v += stride) {
    seeds.nodes.push_back(v);
    seeds.states.push_back((v / stride) % 2 ? graph::NodeState::kNegative
                                            : graph::NodeState::kPositive);
  }
  const diffusion::Cascade cascade =
      diffusion::simulate_mfc(s.diffusion, seeds, diffusion::MfcConfig{}, rng);
  s.states = cascade.state;
  return s;
}

core::RidConfig rid_config() {
  core::RidConfig config;
  config.num_threads = 4;
  // The dense synthetic infection merges into a giant cascade tree whose DP
  // table would otherwise dwarf the graph in every worker's RSS; a modest
  // reach cap (the bench_tree_dp large-tree setting) keeps the DP footprint
  // flat so the backend working set is what the RSS columns measure. Both
  // backends run the same config, so bit-identity is unaffected.
  config.dp.max_reach = 12;
  return config;
}

/// One JSON row (trivially copyable: crosses the stage-child pipes).
struct Row {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::uintmax_t text_bytes = 0;
  std::uintmax_t ridg_bytes = 0;
  double text_load_ms = 0.0;
  double ridg_open_ms = 0.0;
  double speedup = 0.0;
  bool match = false;     // run_rid bit-identity, in-RAM backend vs mmap
  bool sharded = false;   // RSS comparison ran (requires fork())
  double rss_inram_kb = 0.0;  // peak worker ru_maxrss, SignedGraph backend
  double rss_ridg_kb = 0.0;   // peak worker ru_maxrss, columnar backend
};

/// Setup-stage result: the timing/identity Row plus the reference digest
/// the sharded probes must reproduce.
struct Setup {
  Row row;
  std::uint64_t digest = 0;
  bool ok = false;
};

/// Generates the scenario, writes the text and .ridg twins, times both load
/// paths, and proves single-process run_rid bit-identity.
Setup run_setup(NodeId nodes, std::size_t edges, const std::string& text_path,
                const std::string& ridg_path) {
  Setup setup;
  setup.row.nodes = nodes;
  const Scenario s = make_scenario(nodes, edges);
  // The text holds the social orientation, as a text detect's input does;
  // its load reverses it back into the diffusion network.
  graph::save_weighted_file(s.diffusion.reversed(), text_path);
  graph::write_columnar_file(s.diffusion, s.states, ridg_path,
                             graph::kRidgFlagDiffusion);
  setup.row.edges = s.diffusion.num_edges();
  setup.row.text_bytes = fs::file_size(text_path);
  setup.row.ridg_bytes = fs::file_size(ridg_path);

  // Text route: one timed run of what a text detect runs before solving
  // (it dominates the run anyway), the snapshot parse and the load of the
  // edges among its active nodes. The file numbers nodes by first
  // appearance and compacts away isolated ones, so one untimed full load
  // first maps the generator's states to the file's ids. Columnar open:
  // median of five — a single open is page-table work measured in
  // microseconds, below one-shot timer noise. Identity is judged against
  // the generator's SignedGraph.
  {
    const std::string snap_path = text_path + ".snap";
    {
      const graph::LoadedGraph full = graph::load_diffusion_file(text_path);
      std::vector<graph::NodeState> states(full.graph.num_nodes());
      for (NodeId v = 0; v < states.size(); ++v)
        states[v] = s.states[full.original_label[v]];
      core::save_snapshot_file(states, snap_path);
    }
    util::Timer text_timer;
    std::vector<std::uint64_t> active;
    for (const core::SnapshotEntry& entry :
         core::load_snapshot_entries_file(snap_path))
      if (graph::is_active(entry.state)) active.push_back(entry.node);
    const graph::LoadedGraph loaded =
        graph::load_diffusion_file(text_path, std::move(active));
    setup.row.text_load_ms = text_timer.seconds() * 1e3;
    static_cast<void>(loaded);
  }
  std::vector<double> open_ms;
  for (int rep = 0; rep < 5; ++rep) {
    util::Timer open_timer;
    const graph::ColumnarGraphView probe =
        graph::ColumnarGraphView::open(ridg_path);
    open_ms.push_back(open_timer.seconds() * 1e3);
    static_cast<void>(probe);
  }
  std::sort(open_ms.begin(), open_ms.end());
  setup.row.ridg_open_ms = open_ms[open_ms.size() / 2];
  setup.row.speedup = setup.row.text_load_ms / setup.row.ridg_open_ms;

  const graph::ColumnarGraphView view = graph::ColumnarGraphView::open(ridg_path);
  const core::DetectionResult from_inram =
      core::run_rid(s.diffusion, s.states, rid_config());
  const core::DetectionResult from_view =
      core::run_rid(view, view.states(), rid_config());
  setup.row.match = identical(from_inram, from_view);
  setup.digest = result_digest(from_inram);
  setup.ok = true;
  return setup;
}

/// Probe-stage result.
struct ShardProbe {
  double rss_peak_kb = 0.0;   // max worker ru_maxrss (shard.rss_peak_kb)
  std::uint64_t digest = 0;   // result_digest of the merged DetectionResult
  bool ok = false;
};

/// Runs run_rid_sharded over `ridg_path` holding nothing but the chosen
/// backend's working set: the columnar probe keeps the mapping (the
/// pipeline MADV_DONTNEEDs it pre-fork); the in-RAM probe materializes a
/// SignedGraph and closes the mapping before solving, so its workers
/// inherit the graph copy-on-write — the production resume shape.
ShardProbe run_shard_probe(bool columnar, const std::string& ridg_path,
                           const std::string& run_dir) {
  ShardProbe probe;
  try {
    util::metrics::Gauge& gauge =
        util::metrics::global().gauge("shard.rss_peak_kb");
    gauge.reset();
    core::ShardedConfig sharded;
    sharded.num_shards = 4;
    sharded.resume = false;
    sharded.run_dir = run_dir;
    core::DetectionResult result;
    if (columnar) {
      const graph::ColumnarGraphView view =
          graph::ColumnarGraphView::open(ridg_path);
      result =
          core::run_rid_sharded(view, view.states(), rid_config(), sharded);
    } else {
      graph::SignedGraph in_ram;
      std::vector<graph::NodeState> states;
      {
        const graph::ColumnarGraphView view =
            graph::ColumnarGraphView::open(ridg_path);
        in_ram = graph::materialize(view);
        states.assign(view.states().begin(), view.states().end());
      }
      result = core::run_rid_sharded(in_ram, states, rid_config(), sharded);
    }
    probe.rss_peak_kb = gauge.value();
    probe.digest = result_digest(result);
    probe.ok = true;
  } catch (...) {
    probe.ok = false;
  }
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);

  // Full mode crosses the 1M-edge bar the acceptance criteria name; the
  // smaller row shows the speedup is not a single-size artifact.
  struct Size {
    NodeId nodes;
    std::size_t edges;
  };
  const std::vector<Size> sizes = smoke
                                      ? std::vector<Size>{{8000, 24000}}
                                      : std::vector<Size>{{40000, 240000},
                                                          {200000, 1200000}};

  const fs::path dir = fs::temp_directory_path() / "bench_columnar_load";
  fs::remove_all(dir);
  fs::create_directories(dir);

  util::AsciiTable table({"nodes", "edges", "text ms", "ridg ms", "speedup",
                          "rss inram KiB", "rss ridg KiB"});
  table.set_title(".ridg mmap open vs text parse; sharded worker peak RSS");

  std::vector<Row> rows;
  for (const Size& size : sizes) {
    const std::string text_path = (dir / "graph.tsv").string();
    const std::string ridg_path = (dir / "graph.ridg").string();

    const Setup setup = run_isolated<Setup>([&] {
      return run_setup(size.nodes, size.edges, text_path, ridg_path);
    });
    if (!setup.ok) {
      std::cerr << "FATAL: setup stage failed at " << size.nodes << " nodes\n";
      return 1;
    }
    Row row = setup.row;
    if (!row.match) {
      std::cerr << "FATAL: columnar run_rid diverged from the in-RAM backend "
                << "at " << size.nodes << " nodes\n";
      return 1;
    }

#ifdef RIDNET_BENCH_HAS_FORK
    {
      const std::string inram_dir = (dir / "run_inram").string();
      const std::string ridg_dir = (dir / "run_ridg").string();
      const ShardProbe inram = run_isolated<ShardProbe>([&] {
        return run_shard_probe(/*columnar=*/false, ridg_path, inram_dir);
      });
      const ShardProbe ridg = run_isolated<ShardProbe>([&] {
        return run_shard_probe(/*columnar=*/true, ridg_path, ridg_dir);
      });
      if (inram.ok && ridg.ok) {
        row.sharded = true;
        row.rss_inram_kb = inram.rss_peak_kb;
        row.rss_ridg_kb = ridg.rss_peak_kb;
        if (inram.digest != ridg.digest || inram.digest != setup.digest) {
          std::cerr << "FATAL: sharded results diverged at " << size.nodes
                    << " nodes\n";
          return 1;
        }
      }
      fs::remove_all(inram_dir);
      fs::remove_all(ridg_dir);
    }
#endif

    rows.push_back(row);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.0fx", row.speedup);
    table.row(row.nodes, row.edges, row.text_load_ms, row.ridg_open_ms,
              speedup, row.rss_inram_kb, row.rss_ridg_kb);
  }
  table.render(std::cout);
  fs::remove_all(dir);

  const std::string json_path =
      flags.get_string("json", "BENCH_columnar_load.json");
  std::ofstream out(json_path);
  out << "{\n  \"benchmark\": \"columnar_load\",\n  \"unit\": \"ms/load\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"nodes\": %zu, \"edges\": %zu, \"text_bytes\": %llu, "
        "\"ridg_bytes\": %llu, \"text_load_ms\": %.3f, \"ridg_open_ms\": "
        "%.4f, \"speedup\": %.1f, \"match\": %s, \"sharded\": %s, "
        "\"rss_inram_kb\": %.0f, \"rss_ridg_kb\": %.0f}%s\n",
        r.nodes, r.edges, static_cast<unsigned long long>(r.text_bytes),
        static_cast<unsigned long long>(r.ridg_bytes), r.text_load_ms,
        r.ridg_open_ms, r.speedup, r.match ? "true" : "false",
        r.sharded ? "true" : "false", r.rss_inram_kb, r.rss_ridg_kb,
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
