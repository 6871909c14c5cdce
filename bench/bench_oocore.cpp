// Out-of-core pipeline bench: streaming text→.ridg conversion and
// detection over graphs that never fit in the converter's RAM budget
// (DESIGN.md §15).
//
// Three claims are measured on deterministic synthetic edge streams:
//
//   1. Conversion is bounded-memory: stream_convert_to_columnar writes a
//      multi-GB .ridg while its peak RSS stays flat (O(nodes + chunk)) as
//      the edge count — and hence the output file — grows by >= 10x. The
//      full report's largest file is >= 4x the enforced RSS ceiling, so
//      the in-RAM writer could not have produced it under the same cap.
//   2. Byte-identity: the streamed file is cmp-identical (and fingerprint-
//      identical) to the in-RAM writer's output for the same edge stream —
//      checked on the smallest row, where materializing is still possible.
//   3. Detection stays out-of-core: run_rid over the mmap-ed view reads
//      only the infected nodes' out-edges and drops the edge pages it maps
//      on a file above core::kResidentCapBytes, so peak RSS stays under
//      the same ceiling — for the sparse embedded snapshot and for a dense
//      in-memory one infecting 5% of the nodes — and on the smallest row
//      its result is bit-identical to run_rid over the in-RAM graph.
//
// Every heavy stage runs in a forked child; the parent reads a POD result
// through a pipe and the child's peak RSS from wait4's rusage, so each
// probe's ru_maxrss reflects only that stage's working set.
//
// Writes BENCH_oocore.json; scripts/check_bench.py validates the shape and
// gates the RSS ceiling / growth / identity claims.
//
//   ./bench_oocore [--smoke] [--json=BENCH_oocore.json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#define RIDNET_BENCH_HAS_FORK 1
#endif

#include "core/rid.hpp"
#include "graph/columnar.hpp"
#include "graph/columnar_stream.hpp"
#include "graph/diffusion_network.hpp"
#include "graph/graph_io.hpp"
#include "util/flags.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace rid;
using graph::NodeId;

namespace fs = std::filesystem;

/// The RSS ceiling (KiB) every probe must stay under, and which the largest
/// full-mode .ridg must exceed by >= 4x. Mirrored in BENCH_oocore.json and
/// enforced by scripts/check_bench.py.
constexpr double kRssCapKb = 400000.0;

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Order- and bit-sensitive digest of a DetectionResult (same fields
/// bench_columnar_load's `identical` compares).
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

/// Runs `fn` in a forked child; the POD result crosses a pipe and the
/// child's peak RSS (ru_maxrss KiB) comes from wait4. Without fork the
/// stage runs inline and rss_kb stays 0 (the JSON marks it unmeasured).
template <typename T, typename Fn>
T run_probe(Fn&& fn, double& rss_kb) {
  rss_kb = 0.0;
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
  struct rusage usage {};
  wait4(pid, &status, 0, &usage);
#ifdef __APPLE__
  rss_kb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // bytes on macOS
#else
  rss_kb = static_cast<double>(usage.ru_maxrss);  // KiB on Linux
#endif
  if (got != static_cast<ssize_t>(sizeof(T))) return T{};
  return value;
#else
  return fn();
#endif
}

/// Deterministic random edge stream, regenerated from the seed on rewind —
/// the stream itself is never resident. ~80% positive signs, uniform
/// weights; duplicates and self-loops exercise the normalization sweep.
class SyntheticEdgeSource final : public graph::EdgeSource {
 public:
  SyntheticEdgeSource(NodeId nodes, std::uint64_t edges, std::uint64_t seed)
      : nodes_(nodes), edges_(edges), seed_(seed), rng_(seed) {}

  void rewind() override {
    rng_ = util::Rng(seed_);
    produced_ = 0;
  }

  bool next(graph::ParsedEdge& edge) override {
    if (produced_ == edges_) return false;
    ++produced_;
    edge.src = rng_.next_below(nodes_);
    edge.dst = rng_.next_below(nodes_);
    edge.sign = rng_.bernoulli(0.8) ? 1 : -1;
    edge.weight = rng_.uniform(0.01, 0.99);
    return true;
  }

 private:
  NodeId nodes_;
  std::uint64_t edges_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::uint64_t produced_ = 0;
};

/// Alternating +/- observations on every `stride`-th node.
std::vector<graph::NodeState> snapshot_every(NodeId nodes, NodeId stride) {
  std::vector<graph::NodeState> states(nodes, graph::NodeState::kInactive);
  bool positive = true;
  for (NodeId v = 0; v < nodes; v += stride) {
    states[v] = positive ? graph::NodeState::kPositive
                         : graph::NodeState::kNegative;
    positive = !positive;
  }
  return states;
}

/// Sparse embedded snapshot: ~2000 observations, so detection cost is the
/// out-of-core reading of the file, not giant DPs.
std::vector<graph::NodeState> make_snapshot(NodeId nodes) {
  return snapshot_every(nodes, std::max<NodeId>(1, nodes / 2000));
}

/// The dense probe's in-memory snapshot observes every 20th node (5%), so
/// the RSS cap is also tested where the infected neighbourhood is large.
constexpr NodeId kDenseStride = 20;

graph::StreamConvertOptions convert_options() {
  graph::StreamConvertOptions options;
  options.social = false;
  options.make_states = make_snapshot;
  return options;
}

struct ConvertProbe {
  bool ok = false;
  std::size_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t fingerprint = 0;
  double seconds = 0.0;
};

ConvertProbe run_convert(NodeId nodes, std::uint64_t edges,
                         const std::string& ridg_path) {
  ConvertProbe probe;
  try {
    SyntheticEdgeSource source(nodes, edges, 2026);
    util::Timer timer;
    const graph::StreamConvertResult result =
        graph::stream_convert_to_columnar(source, ridg_path,
                                          convert_options());
    probe.seconds = timer.seconds();
    probe.nodes = result.num_nodes;
    probe.edges = result.num_edges;
    probe.fingerprint = result.fingerprint;
    probe.ok = true;
  } catch (...) {
    probe.ok = false;
  }
  return probe;
}

struct DetectProbe {
  bool ok = false;
  std::uint64_t digest = 0;
  std::size_t infected = 0;
  double seconds = 0.0;
};

/// run_rid over the mapped file, on its embedded snapshot or (dense) on
/// snapshot_every(nodes, kDenseStride).
DetectProbe run_detect(const std::string& ridg_path, bool dense) {
  DetectProbe probe;
  try {
    const graph::ColumnarGraphView view =
        graph::ColumnarGraphView::open(ridg_path);
    std::vector<graph::NodeState> dense_states;
    std::span<const graph::NodeState> states = view.states();
    if (dense) {
      dense_states = snapshot_every(view.num_nodes(), kDenseStride);
      states = dense_states;
    }
    probe.infected = static_cast<std::size_t>(
        std::count_if(states.begin(), states.end(), graph::is_active));
    util::Timer timer;
    const core::DetectionResult result =
        core::run_rid(view, states, core::RidConfig{});
    probe.seconds = timer.seconds();
    probe.digest = result_digest(result);
    probe.ok = true;
  } catch (...) {
    probe.ok = false;
  }
  return probe;
}

struct OracleProbe {
  bool ok = false;
  bool bytes_match = false;
  bool fingerprint_match = false;
  std::uint64_t digest = 0;  // run_rid over the in-RAM diffusion graph
};

/// Materializes the same edge stream with graph_io semantics, writes it
/// with the in-RAM writer, cmp's the two files, and runs run_rid on the
/// in-RAM graph for the backend-identity check. Only run on the smallest
/// row — this is the path whose memory the streaming converter exists to
/// avoid.
OracleProbe run_oracle(NodeId nodes, std::uint64_t edges,
                       const std::string& streamed_path,
                       const std::string& oracle_path) {
  OracleProbe probe;
  try {
    SyntheticEdgeSource source(nodes, edges, 2026);
    graph::LoadedGraph loaded = graph::load_edge_source(source);
    const graph::SignedGraph diffusion =
        graph::make_diffusion_network(loaded.graph);
    const std::vector<graph::NodeState> states =
        make_snapshot(diffusion.num_nodes());
    graph::write_columnar_file(diffusion, states, oracle_path,
                               graph::kRidgFlagDiffusion);
    probe.digest =
        result_digest(core::run_rid(diffusion, states, core::RidConfig{}));

    probe.fingerprint_match =
        graph::ColumnarGraphView::open(streamed_path).fingerprint() ==
        graph::ColumnarGraphView::open(oracle_path).fingerprint();

    std::ifstream a(streamed_path, std::ios::binary);
    std::ifstream b(oracle_path, std::ios::binary);
    std::vector<char> buf_a(1 << 20), buf_b(1 << 20);
    probe.bytes_match = a.is_open() && b.is_open();
    while (probe.bytes_match) {
      a.read(buf_a.data(), static_cast<std::streamsize>(buf_a.size()));
      b.read(buf_b.data(), static_cast<std::streamsize>(buf_b.size()));
      if (a.gcount() != b.gcount() ||
          std::memcmp(buf_a.data(), buf_b.data(),
                      static_cast<std::size_t>(a.gcount())) != 0) {
        probe.bytes_match = false;
        break;
      }
      if (a.gcount() == 0) break;
    }
    probe.ok = true;
  } catch (...) {
    probe.ok = false;
  }
  return probe;
}

/// One JSON row.
struct Row {
  std::size_t nodes = 0;
  std::uint64_t edges_in = 0;  // generated rows (pre-normalization)
  std::uint64_t edges = 0;     // kept edges
  std::uintmax_t ridg_bytes = 0;
  double convert_s = 0.0;
  double edges_per_s = 0.0;
  double convert_rss_kb = 0.0;
  double detect_s = 0.0;
  double detect_rss_kb = 0.0;
  std::size_t dense_infected = 0;
  double dense_detect_s = 0.0;
  double dense_detect_rss_kb = 0.0;
  bool measured = false;       // fork/wait4 RSS available
  bool oracle = false;         // in-RAM byte-identity checked on this row
  bool backend_match = false;  // view digest == in-RAM graph digest
};

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);

  // Full mode: fixed node count, edge count growing 12x, so the output file
  // (~21 bytes/edge) spans ~0.2 GB -> ~2.5 GB while the converter's
  // working set (nodes + one chunk) stays put. The largest file is >= 4x
  // the kRssCapKb ceiling.
  struct Size {
    NodeId nodes;
    std::uint64_t edges;
  };
  const std::vector<Size> sizes =
      smoke ? std::vector<Size>{{20000, 120000}}
            : std::vector<Size>{{400000, 10000000},
                                {400000, 40000000},
                                {400000, 120000000}};

  const fs::path dir = fs::temp_directory_path() / "bench_oocore";
  fs::remove_all(dir);
  fs::create_directories(dir);

  util::AsciiTable table({"nodes", "edges", "ridg MiB", "convert s",
                          "Medges/s", "conv RSS MiB", "detect s",
                          "det RSS MiB", "dense s", "dense RSS MiB"});
  table.set_title("streaming convert + out-of-core detect; RSS cap " +
                  std::to_string(static_cast<int>(kRssCapKb / 1024)) + " MiB");

  std::vector<Row> rows;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const Size& size = sizes[si];
    const std::string ridg_path = (dir / "graph.ridg").string();

    Row row;
    row.edges_in = size.edges;

    const ConvertProbe convert = run_probe<ConvertProbe>(
        [&] { return run_convert(size.nodes, size.edges, ridg_path); },
        row.convert_rss_kb);
    if (!convert.ok) {
      std::cerr << "FATAL: streaming conversion failed at " << size.edges
                << " edges\n";
      return 1;
    }
    row.nodes = convert.nodes;
    row.edges = convert.edges;
    row.ridg_bytes = fs::file_size(ridg_path);
    row.convert_s = convert.seconds;
    row.edges_per_s = static_cast<double>(size.edges) / convert.seconds;
    row.measured = row.convert_rss_kb > 0.0;

    const DetectProbe detect = run_probe<DetectProbe>(
        [&] { return run_detect(ridg_path, false); }, row.detect_rss_kb);
    const DetectProbe dense = run_probe<DetectProbe>(
        [&] { return run_detect(ridg_path, true); }, row.dense_detect_rss_kb);
    if (!detect.ok || !dense.ok) {
      std::cerr << "FATAL: detection over " << ridg_path << " failed\n";
      return 1;
    }
    row.detect_s = detect.seconds;
    row.dense_infected = dense.infected;
    row.dense_detect_s = dense.seconds;

    // Identity checks on the smallest row only: the oracle materializes the
    // whole graph, the exact cost the out-of-core paths avoid at scale.
    if (si == 0) {
      const std::string oracle_path = (dir / "oracle.ridg").string();
      double ignored = 0.0;
      const OracleProbe oracle = run_probe<OracleProbe>(
          [&] {
            return run_oracle(size.nodes, size.edges, ridg_path, oracle_path);
          },
          ignored);
      if (!oracle.ok || !oracle.bytes_match || !oracle.fingerprint_match) {
        std::cerr << "FATAL: streamed .ridg is not byte-identical to the "
                  << "in-RAM writer's output\n";
        return 1;
      }
      row.oracle = true;
      fs::remove(oracle_path);
      if (oracle.digest != detect.digest) {
        std::cerr << "FATAL: run_rid over the .ridg view diverged from "
                  << "run_rid over the in-RAM graph\n";
        return 1;
      }
      row.backend_match = true;
    }

    rows.push_back(row);
    table.row(row.nodes, row.edges,
              static_cast<double>(row.ridg_bytes) / (1024.0 * 1024.0),
              row.convert_s, row.edges_per_s / 1e6,
              row.convert_rss_kb / 1024.0, row.detect_s,
              row.detect_rss_kb / 1024.0, row.dense_detect_s,
              row.dense_detect_rss_kb / 1024.0);
  }
  table.render(std::cout);
  fs::remove_all(dir);

  const std::string json_path = flags.get_string("json", "BENCH_oocore.json");
  std::ofstream out(json_path);
  out << "{\n  \"benchmark\": \"oocore\",\n  \"unit\": \"edges/s\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"rss_cap_kb\": " << static_cast<long long>(kRssCapKb)
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"nodes\": %zu, \"edges_in\": %llu, \"edges\": %llu, "
        "\"ridg_bytes\": %llu, \"convert_s\": %.3f, \"edges_per_s\": %.0f, "
        "\"convert_rss_kb\": %.0f, \"detect_s\": %.3f, \"detect_rss_kb\": "
        "%.0f, \"dense_infected\": %zu, \"dense_detect_s\": %.3f, "
        "\"dense_detect_rss_kb\": %.0f, \"measured\": %s, \"oracle\": %s, "
        "\"backend_match\": %s}%s\n",
        r.nodes, static_cast<unsigned long long>(r.edges_in),
        static_cast<unsigned long long>(r.edges),
        static_cast<unsigned long long>(r.ridg_bytes), r.convert_s,
        r.edges_per_s, r.convert_rss_kb, r.detect_s, r.detect_rss_kb,
        r.dense_infected, r.dense_detect_s, r.dense_detect_rss_kb,
        r.measured ? "true" : "false", r.oracle ? "true" : "false",
        r.backend_match ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
