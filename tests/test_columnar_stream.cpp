// Streaming text→.ridg conversion (graph/columnar_stream.hpp): byte- and
// fingerprint-identity with the in-RAM writer across orientations, snapshot
// embedding, chunk sizes and degenerate inputs; error-message parity with
// load_weighted_file on a malformed-input corpus; bounded-address-space
// conversion where the in-RAM path cannot fit, and an in-RAM write that
// needs no file-sized buffer; columnar-vs-in-RAM forest
// bit-identity across thread counts, also on a file large enough that
// extraction drops its edge pages; and the extraction span's tags.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define RIDNET_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RIDNET_ASAN 1
#endif
#endif

#include "algo/components.hpp"
#include "core/cascade_extraction.hpp"
#include "core/isomit.hpp"
#include "core/snapshot_io.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/columnar.hpp"
#include "graph/columnar_stream.hpp"
#include "graph/diffusion_network.hpp"
#include "graph/graph_io.hpp"
#include "util/errors.hpp"
#include "util/fnv.hpp"
#include "util/proc_supervisor.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace rid::graph {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("stream_" + name + "_" + info->test_suite_name() + "_" + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void dump(const fs::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Messy weighted edge list: duplicate (src, dst) rows, self-loops, sparse
/// labels, comments and blank lines — everything the normalization sweep
/// must reproduce from the builder's semantics. With > 4096 surviving edges
/// the clamped minimum chunk still splits into multiple scatter buckets.
std::string messy_edge_list(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  std::string text = "# messy corpus\n% both comment styles\n\n";
  for (std::size_t i = 0; i < rows; ++i) {
    // Sparse labels (stride 7) force the compaction map to matter; a small
    // node universe makes duplicates and self-loops common.
    const std::uint64_t src = 7 * rng.next_below(700);
    const std::uint64_t dst = 7 * rng.next_below(700);
    const int sign = rng.bernoulli(0.75) ? 1 : -1;
    text += std::to_string(src) + (i % 3 ? " " : "\t") + std::to_string(dst) +
            " " + std::to_string(sign) + " " +
            std::to_string(rng.uniform(0.0, 1.0)) + "\n";
    if (i % 97 == 0) text += "\n# interior comment\n";
  }
  return text;
}

/// In-RAM reference: load_weighted_file → optional diffusion reversal →
/// write_columnar_file. The streaming converter's output must match this
/// byte for byte.
void write_reference(const fs::path& text, const fs::path& out, bool social,
                     const std::vector<NodeState>& states) {
  LoadedGraph loaded = load_weighted_file(text.string());
  const SignedGraph converted =
      social ? std::move(loaded.graph) : make_diffusion_network(loaded.graph);
  write_columnar_file(converted, states, out.string(),
                      social ? 0u : kRidgFlagDiffusion);
}

TEST(ColumnarStream, ByteIdenticalToInRamWriterAcrossChunkSizes) {
  const fs::path dir = test_dir("bytes");
  const fs::path text = dir / "graph.txt";
  dump(text, messy_edge_list(9000, 17));

  for (const bool social : {false, true}) {
    const fs::path ref_path = dir / "ref.ridg";
    write_reference(text, ref_path, social, {});
    const std::string ref = slurp(ref_path);
    const std::uint64_t ref_fp =
        ColumnarGraphView::open(ref_path.string()).fingerprint();

    // chunk_edges=1 clamps to the 4096 floor (several buckets over this
    // corpus); the default runs single-bucket. Both must emit `ref`.
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{1} << 20}) {
      const fs::path out = dir / "streamed.ridg";
      TextEdgeSource source(text.string());
      StreamConvertOptions options;
      options.social = social;
      options.chunk_edges = chunk;
      const StreamConvertResult result =
          stream_convert_to_columnar(source, out.string(), options);
      EXPECT_EQ(slurp(out), ref)
          << "social=" << social << " chunk=" << chunk;
      EXPECT_EQ(result.fingerprint, ref_fp);
      const auto view = ColumnarGraphView::open(
          out.string(), ColumnarGraphView::OpenOptions{.verify_data = true});
      EXPECT_EQ(view.num_nodes(), result.num_nodes);
      EXPECT_EQ(view.num_edges(), result.num_edges);
    }
  }
}

TEST(ColumnarStream, EmbedsSnapshotIdenticallyToInRamWriter) {
  const fs::path dir = test_dir("snapshot");
  const fs::path text = dir / "graph.txt";
  dump(text, messy_edge_list(3000, 23));

  // Node count is only known post-conversion; build the snapshot against
  // the reference graph, then feed the same entries through make_states.
  const LoadedGraph loaded = load_weighted_file(text.string());
  const NodeId n = loaded.graph.num_nodes();
  ASSERT_GT(n, 10u);
  std::string snap_text;
  for (NodeId v = 0; v < n; v += 5)
    snap_text += std::to_string(v) + (v % 2 ? " -1\n" : " +1\n");
  const fs::path snap = dir / "snap.txt";
  dump(snap, snap_text);

  const auto entries = core::load_snapshot_entries_file(snap.string());
  const auto states = core::load_snapshot_file(snap.string(), n);
  EXPECT_EQ(core::apply_snapshot_entries(entries, n), states);

  const fs::path ref_path = dir / "ref.ridg";
  write_reference(text, ref_path, /*social=*/false, states);

  const fs::path out = dir / "streamed.ridg";
  TextEdgeSource source(text.string());
  StreamConvertOptions options;
  options.make_states = [&entries](NodeId num_nodes) {
    return core::apply_snapshot_entries(entries, num_nodes);
  };
  stream_convert_to_columnar(source, out.string(), options);
  EXPECT_EQ(slurp(out), slurp(ref_path));

  const auto view = ColumnarGraphView::open(out.string());
  ASSERT_TRUE(view.has_states());
  const auto embedded = view.states();
  EXPECT_TRUE(std::equal(states.begin(), states.end(), embedded.begin(),
                         embedded.end()));

  // Out-of-range snapshot entries still fail exactly like load_snapshot.
  try {
    const std::vector<core::SnapshotEntry> bad = {
        {.node = n + std::uint64_t{5}, .state = NodeState::kPositive,
         .line_no = 3}};
    core::apply_snapshot_entries(bad, n);
    FAIL() << "expected InputError";
  } catch (const util::InputError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(ColumnarStream, DegenerateInputsMatchInRamWriter) {
  const fs::path dir = test_dir("degenerate");
  const std::vector<std::string> corpora = {
      "",                             // empty file
      "# comments only\n\n% more\n",  // no edges
      "5 5 1 0.5\n9 9 -1 0.25\n",     // self-loops only: nodes, no edges
      "3 4 1 0.5\n3 4 -1 0.75\n",     // duplicate kept-first
  };
  for (std::size_t i = 0; i < corpora.size(); ++i) {
    const fs::path text = dir / ("in" + std::to_string(i) + ".txt");
    dump(text, corpora[i]);
    const fs::path ref_path = dir / "ref.ridg";
    write_reference(text, ref_path, /*social=*/false, {});
    const fs::path out = dir / "streamed.ridg";
    TextEdgeSource source(text.string());
    StreamConvertOptions options;
      stream_convert_to_columnar(source, out.string(), options);
    EXPECT_EQ(slurp(out), slurp(ref_path)) << "corpus " << i;
  }
}

TEST(ColumnarStream, MalformedInputsFailWithLoadWeightedFileErrors) {
  const fs::path dir = test_dir("malformed");
  // First line valid so the reported line number proves itself.
  const std::vector<std::string> corpora = {
      "1 2 1 0.5\n3 4\n",            // missing columns
      "1 2 1 0.5\n1 2 5 0.5\n",      // bad sign
      "1 2 1 0.5\n1 2 1 1.5\n",      // weight out of range
      "1 2 1 0.5\na b 1 0.5\n",      // garbage numbers
      "1 2 1 0.5\n1 2 1 -0.5\n",     // negative weight
  };
  for (std::size_t i = 0; i < corpora.size(); ++i) {
    const fs::path text = dir / ("bad" + std::to_string(i) + ".txt");
    dump(text, corpora[i]);

    std::string want;
    try {
      load_weighted_file(text.string());
      FAIL() << "corpus " << i << " did not throw";
    } catch (const util::InputError& e) {
      want = e.what();
    }
    EXPECT_NE(want.find("line 2"), std::string::npos) << want;

    try {
      TextEdgeSource source(text.string());
      StreamConvertOptions options;
      stream_convert_to_columnar(source, (dir / "out.ridg").string(),
                                 options);
      FAIL() << "corpus " << i << " did not throw in the streaming path";
    } catch (const util::InputError& e) {
      EXPECT_STREQ(e.what(), want.c_str()) << "corpus " << i;
    }
  }

  EXPECT_THROW(TextEdgeSource("/nonexistent/graph.txt"), util::InputError);
}

TEST(ColumnarStream, LoadEdgeSourceMatchesLoadWeightedFile) {
  const fs::path dir = test_dir("load");
  const fs::path text = dir / "graph.txt";
  dump(text, messy_edge_list(2000, 31));
  const LoadedGraph direct = load_weighted_file(text.string());
  TextEdgeSource source(text.string());
  const LoadedGraph via_source = load_edge_source(source);
  EXPECT_EQ(via_source.original_label, direct.original_label);
  ASSERT_EQ(via_source.graph.num_edges(), direct.graph.num_edges());
  for (EdgeId e = 0; e < direct.graph.num_edges(); ++e) {
    EXPECT_EQ(via_source.graph.edge_src(e), direct.graph.edge_src(e));
    EXPECT_EQ(via_source.graph.edge_dst(e), direct.graph.edge_dst(e));
    EXPECT_EQ(via_source.graph.edge_sign(e), direct.graph.edge_sign(e));
    EXPECT_EQ(via_source.graph.edge_weight(e), direct.graph.edge_weight(e));
  }
}

#if defined(__unix__) || defined(__APPLE__)
/// Forks a child, caps its address space at its current VmSize + headroom,
/// and runs `fn`; returns true when the child finished without tripping the
/// cap. The streaming converter must fit where the in-RAM path cannot.
template <typename Fn>
bool runs_under_address_cap(std::size_t headroom_bytes, Fn&& fn) {
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    std::size_t vm_pages = 0;
    if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(statm, "%zu", &vm_pages) != 1) vm_pages = 0;
      std::fclose(statm);
    }
    // No /proc (macOS): fall back to a generous absolute cap.
    const rlim_t cap =
        vm_pages > 0
            ? static_cast<rlim_t>(vm_pages * 4096 + headroom_bytes)
            : static_cast<rlim_t>(std::size_t{1} << 30);
    struct rlimit limit {cap, cap};
    setrlimit(RLIMIT_AS, &limit);
    try {
      fn();
    } catch (...) {
      _exit(1);
    }
    _exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(ColumnarStream, ConvertsUnderAddressSpaceCapWhereInRamCannot) {
#ifdef RIDNET_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan's shadow mappings";
#endif
  if (!util::process_isolation_supported())
    GTEST_SKIP() << "no fork() on this platform";

  const fs::path dir = test_dir("rlimit");
  const fs::path text = dir / "big.txt";
  // ~1.5M rows (~37 MB of text): the in-RAM path needs the parsed edge
  // list, the built CSR *and* its diffusion reversal resident at once; the
  // streaming path holds O(nodes + chunk).
  {
    util::Rng rng(47);
    std::ofstream out(text);
    for (std::size_t i = 0; i < 1500000; ++i) {
      out << rng.next_below(50000) << ' ' << rng.next_below(50000) << ' '
          << (rng.bernoulli(0.8) ? 1 : -1) << " 0.5\n";
    }
  }
  constexpr std::size_t kHeadroom = std::size_t{64} << 20;

  const bool streamed_fits =
      runs_under_address_cap(kHeadroom, [&] {
        TextEdgeSource source(text.string());
        StreamConvertOptions options;
              options.chunk_edges = std::size_t{1} << 16;
        stream_convert_to_columnar(source, (dir / "s.ridg").string(),
                                   options);
      });
  EXPECT_TRUE(streamed_fits)
      << "streaming conversion blew the address-space cap";

  const bool in_ram_fits = runs_under_address_cap(kHeadroom, [&] {
    write_reference(text, dir / "r.ridg", /*social=*/false, {});
  });
  EXPECT_FALSE(in_ram_fits)
      << "in-RAM conversion fit under the cap — the bound proves nothing; "
         "grow the input";

  // The capped child really produced the right bytes.
  const fs::path ref = dir / "ref.ridg";
  write_reference(text, ref, /*social=*/false, {});
  EXPECT_EQ(slurp(dir / "s.ridg"), slurp(ref));
}

TEST(ColumnarStream, WriteColumnarFileNeedsNoFileSizedBuffer) {
#ifdef RIDNET_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan's shadow mappings";
#endif
  if (!util::process_isolation_supported())
    GTEST_SKIP() << "no fork() on this platform";

  // 800k edges at 21 bytes each: a .ridg above 16 MiB. The graph is built
  // before the fork, so the cap leaves the writer itself 8 MiB.
  constexpr NodeId kNodes = 100000;
  SignedGraphBuilder builder(kNodes);
  util::Rng rng(53);
  for (std::size_t i = 0; i < 800000; ++i)
    builder.add_edge(static_cast<NodeId>(rng.next_below(kNodes)),
                     static_cast<NodeId>(rng.next_below(kNodes)),
                     rng.bernoulli(0.8) ? Sign::kPositive : Sign::kNegative,
                     rng.uniform(0.0, 1.0));
  const SignedGraph graph = builder.build();
  ASSERT_GE(RidgLayout::compute(graph.num_nodes(), graph.num_edges())
                .file_size,
            std::size_t{16} << 20);

  const fs::path dir = test_dir("rlimit_writer");
  EXPECT_TRUE(runs_under_address_cap(std::size_t{8} << 20, [&] {
    write_columnar_file(graph, {}, (dir / "capped.ridg").string(),
                        kRidgFlagDiffusion);
  })) << "write_columnar_file needed more than 8 MiB of address space";
  write_columnar_file(graph, {}, (dir / "ref.ridg").string(),
                      kRidgFlagDiffusion);
  EXPECT_EQ(slurp(dir / "capped.ridg"), slurp(dir / "ref.ridg"));
}
#endif  // __unix__ || __APPLE__

/// Deterministic diffusion scenario with several non-trivial components.
struct Scenario {
  SignedGraph graph;
  std::vector<NodeState> states;
};

const Scenario& scenario() {
  static const Scenario instance = [] {
    Scenario s;
    util::Rng rng(13);
    const auto el = gen::erdos_renyi(400, 1000, rng);
    SignedGraph social =
        gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
    for (EdgeId e = 0; e < social.num_edges(); ++e)
      social.set_edge_weight(e, rng.uniform(0.02, 0.3));
    s.graph = make_diffusion_network(social);
    diffusion::SeedSet seeds;
    for (NodeId v = 0; v < 16; ++v) {
      seeds.nodes.push_back(v * 24);
      seeds.states.push_back(v % 2 ? NodeState::kNegative
                                   : NodeState::kPositive);
    }
    const diffusion::Cascade cascade = diffusion::simulate_mfc(
        s.graph, seeds, diffusion::MfcConfig{}, rng);
    s.states = cascade.state;
    return s;
  }();
  return instance;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void expect_identical_forests(const core::CascadeForest& got,
                              const core::CascadeForest& want) {
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.num_candidate_arcs, want.num_candidate_arcs);
  ASSERT_EQ(got.trees.size(), want.trees.size());
  for (std::size_t t = 0; t < want.trees.size(); ++t) {
    const core::CascadeTree& a = got.trees[t];
    const core::CascadeTree& b = want.trees[t];
    EXPECT_EQ(a.global, b.global) << "tree " << t;
    EXPECT_EQ(a.parent, b.parent) << "tree " << t;
    EXPECT_EQ(a.parent_edge, b.parent_edge) << "tree " << t;
    EXPECT_EQ(a.state, b.state) << "tree " << t;
    EXPECT_EQ(a.root, b.root) << "tree " << t;
    ASSERT_EQ(a.in_g.size(), b.in_g.size()) << "tree " << t;
    for (std::size_t i = 0; i < b.in_g.size(); ++i)
      EXPECT_EQ(double_bits(a.in_g[i]), double_bits(b.in_g[i]))
          << "tree " << t << " in_g[" << i << "]";
    ASSERT_EQ(a.side_q.size(), b.side_q.size()) << "tree " << t;
    for (std::size_t i = 0; i < b.side_q.size(); ++i)
      EXPECT_EQ(double_bits(a.side_q[i]), double_bits(b.side_q[i]))
          << "tree " << t << " side_q[" << i << "]";
  }
}

TEST(ColumnarStream, ColumnarForestMatchesInRamForest) {
  const fs::path dir = test_dir("forest");
  const fs::path ridg = dir / "g.ridg";
  write_columnar_file(scenario().graph, scenario().states, ridg.string(),
                      kRidgFlagDiffusion);
  const auto view = ColumnarGraphView::open(ridg.string());

  const core::CascadeForest want =
      core::extract_cascade_forest(scenario().graph, scenario().states, {});
  ASSERT_GT(want.trees.size(), 1u);
  EXPECT_EQ(want.num_components,
            algo::weakly_connected_components(
                scenario().graph, core::infected_nodes(scenario().states))
                .count);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::ExtractionConfig c;
    c.num_threads = threads;
    expect_identical_forests(
        core::extract_cascade_forest(view, scenario().states, c), want);
    expect_identical_forests(
        core::extract_cascade_forest(scenario().graph, scenario().states, c),
        want);
  }
}

/// Writes `g` plus isolated nodes up to `num_nodes` as a .ridg one section
/// at a time, so the file can exceed core::kResidentCapBytes while the
/// test holds neither it nor a num_nodes-sized graph in memory.
void write_padded_ridg(const SignedGraph& g, std::span<const NodeState> states,
                       NodeId num_nodes, const fs::path& path) {
  const std::uint64_t m = g.num_edges();
  const RidgLayout layout = RidgLayout::compute(num_nodes, m);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::string header(kRidgHeaderSize, '\0');
  out.write(header.data(), kRidgHeaderSize);  // stamped after the body
  std::uint64_t fingerprint = util::kFnv64Basis;
  std::size_t at = kRidgHeaderSize;
  const auto put = [&](const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
    fingerprint = util::fnv1a64(data, bytes, fingerprint);
    at += bytes;
  };
  const auto put_repeated = [&](auto value, std::size_t count) {
    const std::vector<decltype(value)> block(std::size_t{1} << 16, value);
    for (std::size_t k = 0; k < count; k += block.size())
      put(block.data(),
          std::min(block.size(), count - k) * sizeof(decltype(value)));
  };
  const auto put_column = [&](std::size_t offset, auto column) {
    put_repeated('\0', offset - at);
    put(column.data(), column.size_bytes());
  };
  const auto put_offsets = [&](std::size_t offset,
                               std::span<const EdgeId> offsets) {
    const std::vector<std::uint64_t> wide(offsets.begin(), offsets.end());
    put_column(offset, std::span(wide));
    put_repeated(m, num_nodes - g.num_nodes());
  };
  put_offsets(layout.out_offsets, g.csr_out_offsets());
  put_column(layout.dst, g.csr_dsts());
  put_column(layout.src, g.csr_srcs());
  put_column(layout.sign, g.csr_signs());
  put_column(layout.weight, g.csr_weights());
  put_offsets(layout.in_offsets, g.csr_in_offsets());
  put_column(layout.in_edge, g.csr_in_edges());
  put_column(layout.state, states);
  put_repeated(NodeState::kInactive, num_nodes - g.num_nodes());

  std::memcpy(header.data(), kRidgMagic, sizeof(kRidgMagic));
  const std::uint32_t words[2] = {kRidgFormatVersion,
                                  kRidgFlagDiffusion | kRidgFlagHasStates};
  const std::uint64_t counts[3] = {num_nodes, m, fingerprint};
  std::memcpy(header.data() + 8, words, sizeof(words));
  std::memcpy(header.data() + 16, counts, sizeof(counts));
  const std::uint64_t checksum = util::fnv1a64(header.data(), 40);
  std::memcpy(header.data() + 40, &checksum, 8);
  out.seekp(0);
  out.write(header.data(), kRidgHeaderSize);
}

// Only a .ridg above core::kResidentCapBytes runs the page reclaimer. About
// 8.1M nodes (17 bytes each in the two offset columns and the state
// column) get there; the edges live among the first 2,000, where the
// snapshot infects every other node. At 64 probes per drop, many drops
// land while component tasks run. The isolated nodes change nothing, so
// the in-RAM reference is the 2,000-node graph.
TEST(ColumnarStream, ForestAboveTheResidentCapMatchesInRam) {
  constexpr NodeId kNodes = 8'100'000;
  constexpr NodeId kCore = 2'000;
  util::Rng rng(29);
  SignedGraphBuilder builder(kCore);
  for (int i = 0; i < 6'000; ++i)
    builder.add_edge(static_cast<NodeId>(rng.next_below(kCore)),
                     static_cast<NodeId>(rng.next_below(kCore)),
                     rng.bernoulli(0.8) ? Sign::kPositive : Sign::kNegative,
                     rng.uniform(0.02, 0.3));
  const SignedGraph g = builder.build();
  const NodeState cycle[] = {NodeState::kPositive, NodeState::kNegative,
                             NodeState::kUnknown};
  std::vector<NodeState> states(kCore, NodeState::kInactive);
  for (NodeId v = 0; v < kCore; v += 2) states[v] = cycle[v % 3];

  const fs::path ridg = test_dir("reclaim") / "big.ridg";
  write_padded_ridg(g, states, kNodes, ridg);
  {
    const auto view =
        ColumnarGraphView::open(ridg.string(), {.verify_data = true});
    ASSERT_GT(view.file_bytes(), core::kResidentCapBytes);
    const core::CascadeForest want =
        core::extract_cascade_forest(g, states, {});
    ASSERT_GT(want.trees.size(), 1u);
    for (const std::size_t threads : {1u, 4u}) {
      core::ExtractionConfig c;
      c.num_threads = threads;
      expect_identical_forests(
          core::extract_cascade_forest(view, view.states(), c), want);
    }
  }
  fs::remove(ridg);
}

TEST(ColumnarStream, ExtractForestSpanCarriesFourCountTags) {
  namespace trace = util::trace;
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  const fs::path dir = test_dir("span");
  const fs::path ridg = dir / "g.ridg";
  write_columnar_file(scenario().graph, scenario().states, ridg.string(),
                      kRidgFlagDiffusion);
  const auto view = ColumnarGraphView::open(ridg.string());
  const auto infected = static_cast<std::int64_t>(
      core::infected_nodes(scenario().states).size());

  trace::start();
  const core::CascadeForest forest =
      core::extract_cascade_forest(view, scenario().states, {});
  trace::stop();

  std::size_t spans = 0;
  for (const trace::SpanRecord& span : trace::snapshot().spans) {
    if (std::string(span.name) != "extract_forest") continue;
    ++spans;
    std::map<std::string, std::int64_t> counts;
    for (std::uint8_t i = 0; i < span.num_tags; ++i) {
      const trace::TagValue& tag = span.tags[i];
      EXPECT_EQ(tag.sval, nullptr) << "string tag " << tag.key;
      counts[tag.key] = tag.ival;
    }
    EXPECT_EQ(counts, (std::map<std::string, std::int64_t>{
                          {"arcs", static_cast<std::int64_t>(
                                       forest.num_candidate_arcs)},
                          {"components", static_cast<std::int64_t>(
                                             forest.num_components)},
                          {"infected", infected},
                          {"trees", static_cast<std::int64_t>(
                                        forest.trees.size())}}));
  }
  EXPECT_EQ(spans, 1u);
}

}  // namespace
}  // namespace rid::graph
