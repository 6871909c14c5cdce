// Columnar .ridg storage (graph/columnar.hpp): golden header bytes,
// write-twice determinism, the corruption matrix (truncation, bad magic/
// version/checksum/fingerprint, structural damage under restamped
// checksums, seeded bit flips), zero-copy view accessor equivalence with
// SignedGraph, materialize round trips, MfcEngine backend equality, and —
// the tentpole contract — bit-identical run_rid/run_rid_sharded results
// between the in-RAM and mmap-ed backends across thread and shard counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/cascade_extraction.hpp"
#include "core/rid.hpp"
#include "diffusion/mfc.hpp"
#include "diffusion/mfc_engine.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/columnar.hpp"
#include "graph/diffusion_network.hpp"
#include "util/errors.hpp"
#include "util/fnv.hpp"
#include "util/proc_supervisor.hpp"
#include "util/rng.hpp"

namespace rid::graph {
namespace {

namespace fs = std::filesystem;
using core::DetectionResult;
using core::RidConfig;

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

fs::path test_dir(const std::string& name) {
  // Suffix with the running test's name: ctest runs each gtest case as its
  // own process, so fixture tests sharing a bare `name` would clobber each
  // other's directory when scheduled concurrently.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("ridg_" + name + "_" + info->test_suite_name() + "_" + info->name());
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

/// Recomputes the data fingerprint and the header checksum of an edited
/// .ridg image, so only the structural checks can reject the edit.
void restamp(std::string& bytes) {
  const std::uint64_t fingerprint = util::fnv1a64(
      bytes.data() + kRidgHeaderSize, bytes.size() - kRidgHeaderSize);
  std::memcpy(bytes.data() + 32, &fingerprint, 8);
  const std::uint64_t checksum = util::fnv1a64(bytes.data(), 40);
  std::memcpy(bytes.data() + 40, &checksum, 8);
}

/// Deterministic diffusion graph + infected snapshot with several cascade
/// trees (mirrors the sharded-rid scenario so shard counts stay meaningful).
struct Scenario {
  SignedGraph graph;  // diffusion orientation
  std::vector<NodeState> states;
};

const Scenario& scenario() {
  static const Scenario instance = [] {
    Scenario s;
    util::Rng rng(11);
    const auto el = gen::erdos_renyi(300, 700, rng);
    SignedGraph social =
        gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
    for (EdgeId e = 0; e < social.num_edges(); ++e)
      social.set_edge_weight(e, rng.uniform(0.02, 0.3));
    s.graph = make_diffusion_network(social);
    diffusion::SeedSet seeds;
    for (NodeId v = 0; v < 14; ++v) {
      seeds.nodes.push_back(v * 20);
      seeds.states.push_back(v % 2 ? NodeState::kNegative
                                   : NodeState::kPositive);
    }
    const diffusion::Cascade cascade =
        diffusion::simulate_mfc(s.graph, seeds, diffusion::MfcConfig{}, rng);
    s.states = cascade.state;
    return s;
  }();
  return instance;
}

/// Writes the scenario graph (with its snapshot embedded) once per test.
fs::path write_scenario(const fs::path& dir) {
  const fs::path path = dir / "scenario.ridg";
  write_columnar_file(scenario().graph, scenario().states, path.string(),
                      kRidgFlagDiffusion);
  return path;
}

void expect_identical(const DetectionResult& got, const DetectionResult& want) {
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.num_trees, want.num_trees);
  EXPECT_EQ(got.initiators, want.initiators);
  EXPECT_EQ(got.states, want.states);
  EXPECT_EQ(double_bits(got.total_opt), double_bits(want.total_opt));
  EXPECT_EQ(double_bits(got.total_objective),
            double_bits(want.total_objective));
}

// --- format bytes ---------------------------------------------------------

TEST(RidgFormat, GoldenHeaderAndLayoutBytes) {
  // Tiny hand-checked graph: 3 nodes, 2 edges. Any byte change here is a
  // format break and must come with a version bump (and a check_ridg.py
  // update).
  SignedGraphBuilder b(3);
  b.add_edge(0, 1, Sign::kPositive, 0.5);
  b.add_edge(1, 2, Sign::kNegative, 0.25);
  const SignedGraph g = b.build();
  const fs::path dir = test_dir("golden");
  const fs::path path = dir / "tiny.ridg";
  const std::vector<NodeState> states = {NodeState::kPositive,
                                         NodeState::kNegative,
                                         NodeState::kInactive};
  write_columnar_file(g, states, path.string(), kRidgFlagDiffusion);

  const std::string bytes = slurp(path);
  const RidgLayout layout = RidgLayout::compute(3, 2);
  ASSERT_EQ(bytes.size(), layout.file_size);

  // Header fields.
  EXPECT_EQ(bytes.substr(0, 8), std::string("RIDGRPH1"));
  const auto u32_at = [&](std::size_t off) {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + off, 4);
    return v;  // test host is little-endian (open() enforces it)
  };
  const auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, 8);
    return v;
  };
  EXPECT_EQ(u32_at(8), kRidgFormatVersion);
  EXPECT_EQ(u32_at(12), kRidgFlagDiffusion | kRidgFlagHasStates);
  EXPECT_EQ(u64_at(16), 3u);
  EXPECT_EQ(u64_at(24), 2u);
  for (std::size_t off = 48; off < 64; ++off)
    EXPECT_EQ(bytes[off], '\0') << "pad byte " << off;

  // Section contents at the computed offsets.
  EXPECT_EQ(u64_at(layout.out_offsets), 0u);       // out_offsets[0]
  EXPECT_EQ(u64_at(layout.out_offsets + 8), 1u);   // node 0 has 1 out-edge
  EXPECT_EQ(u64_at(layout.out_offsets + 16), 2u);
  EXPECT_EQ(u64_at(layout.out_offsets + 24), 2u);
  EXPECT_EQ(u32_at(layout.dst), 1u);
  EXPECT_EQ(u32_at(layout.dst + 4), 2u);
  EXPECT_EQ(u32_at(layout.src), 0u);
  EXPECT_EQ(u32_at(layout.src + 4), 1u);
  EXPECT_EQ(static_cast<std::int8_t>(bytes[layout.sign]), 1);
  EXPECT_EQ(static_cast<std::int8_t>(bytes[layout.sign + 1]), -1);
  double w0 = 0.0;
  std::memcpy(&w0, bytes.data() + layout.weight, 8);
  EXPECT_EQ(double_bits(w0), double_bits(0.5));
  EXPECT_EQ(static_cast<std::int8_t>(bytes[layout.state]),
            static_cast<std::int8_t>(NodeState::kPositive));

  // The two FNV-1a64 checksums round-trip through open().
  const auto view = ColumnarGraphView::open(path.string(),
                                            {.verify_data = true});
  EXPECT_EQ(view.fingerprint(), u64_at(32));
}

TEST(RidgFormat, WriteTwiceIsByteIdentical) {
  const fs::path dir = test_dir("determinism");
  const fs::path a = dir / "a.ridg";
  const fs::path b = dir / "b.ridg";
  write_columnar_file(scenario().graph, scenario().states, a.string(),
                      kRidgFlagDiffusion);
  write_columnar_file(scenario().graph, scenario().states, b.string(),
                      kRidgFlagDiffusion);
  EXPECT_EQ(slurp(a), slurp(b));
}

TEST(RidgFormat, UnfinishedWriterRemovesItsTempFile) {
  const fs::path path = test_dir("unfinished") / "g.ridg";
  const std::string tmp = path.string() + ".tmp";
  {
    RidgWriter out(path.string(), 3, 2, kRidgFlagDiffusion);
    EXPECT_TRUE(fs::exists(tmp));
    const std::uint64_t zero = 0;
    out.append(&zero, sizeof(zero));
    // A section start behind the bytes already written is a caller bug.
    EXPECT_THROW(out.pad_to(out.layout().out_offsets), util::InputError);
  }
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_FALSE(fs::exists(path));
}

TEST(RidgFormat, SniffAndEmptyGraph) {
  const fs::path dir = test_dir("sniff");
  const fs::path path = dir / "empty.ridg";
  write_columnar_file(SignedGraphBuilder(0).build(), {}, path.string());
  EXPECT_TRUE(is_ridg_file(path.string()));
  EXPECT_FALSE(is_ridg_file((dir / "missing.ridg").string()));
  const fs::path text = dir / "graph.txt";
  dump(text, "0 1 + 0.5\n");
  EXPECT_FALSE(is_ridg_file(text.string()));

  const auto view = ColumnarGraphView::open(path.string());
  EXPECT_EQ(view.num_nodes(), 0u);
  EXPECT_EQ(view.num_edges(), 0u);
  EXPECT_FALSE(view.has_states());
}

// --- corruption matrix ----------------------------------------------------

class RidgCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir("corruption");
    path_ = write_scenario(dir_);
    bytes_ = slurp(path_);
  }

  /// Writes a mutated copy and expects open() to reject it.
  void expect_rejected(const std::string& mutated, const char* what) {
    const fs::path bad = dir_ / "bad.ridg";
    dump(bad, mutated);
    EXPECT_THROW(ColumnarGraphView::open(bad.string(), {.verify_data = true}),
                 util::InputError)
        << what;
  }

  /// The first infected node with an out-edge: the extraction walk reads
  /// its range and its edges' destinations.
  static NodeId walked_node() {
    const Scenario& s = scenario();
    for (NodeId v = 0; v < s.graph.num_nodes(); ++v)
      if (is_active(s.states[v]) && s.graph.out_degree(v) > 0) return v;
    return kInvalidNode;
  }

  /// Opens a mutated copy with only the header checked, as detect does,
  /// and expects extraction to throw InputError at 1 and 4 threads.
  void expect_walk_rejects(const std::string& mutated) {
    const fs::path bad = dir_ / "bad.ridg";
    dump(bad, mutated);
    const auto view = ColumnarGraphView::open(bad.string());
    for (const std::size_t threads : {1, 4}) {
      core::ExtractionConfig config;
      config.num_threads = threads;
      try {
        core::extract_cascade_forest(view, view.states(), config);
        ADD_FAILURE() << "extraction accepted the damaged file";
      } catch (const util::InputError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("node " + std::to_string(walked_node())),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("scripts/check_ridg.py"), std::string::npos)
            << what;
      }
    }
  }

  fs::path dir_;
  fs::path path_;
  std::string bytes_;
};

TEST_F(RidgCorruption, TruncatedFile) {
  expect_rejected(bytes_.substr(0, 32), "header shorter than 64 bytes");
  expect_rejected(bytes_.substr(0, bytes_.size() - 1), "one byte short");
  expect_rejected(bytes_.substr(0, bytes_.size() / 2), "half the file");
  expect_rejected(bytes_ + std::string(8, '\0'), "trailing garbage");
}

TEST_F(RidgCorruption, BadMagic) {
  std::string m = bytes_;
  m[0] = 'X';
  expect_rejected(m, "magic");
}

TEST_F(RidgCorruption, BadVersion) {
  std::string m = bytes_;
  m[8] = 99;  // version u32 LSB
  expect_rejected(m, "version");
}

TEST_F(RidgCorruption, BadHeaderChecksum) {
  std::string m = bytes_;
  m[16] ^= 1;  // num_nodes no longer matches the header checksum
  expect_rejected(m, "header checksum");
}

TEST_F(RidgCorruption, BadDataFingerprint) {
  std::string m = bytes_;
  m[m.size() - 1] ^= 1;  // flip a state byte; header stays valid
  expect_rejected(m, "data fingerprint");
  // Without verify_data the cheap header checks still pass — fingerprint
  // verification is the opt-in deep check.
  const fs::path lax = dir_ / "lax.ridg";
  std::string m2 = bytes_;
  // Flip a low weight-mantissa bit: structurally valid, fingerprint wrong.
  const RidgLayout layout =
      RidgLayout::compute(scenario().graph.num_nodes(),
                          scenario().graph.num_edges());
  m2[layout.weight] ^= 1;
  dump(lax, m2);
  EXPECT_NO_THROW(ColumnarGraphView::open(lax.string()));
  EXPECT_THROW(ColumnarGraphView::open(lax.string(), {.verify_data = true}),
               util::InputError);
}

TEST_F(RidgCorruption, StructuralValidation) {
  const RidgLayout layout =
      RidgLayout::compute(scenario().graph.num_nodes(),
                          scenario().graph.num_edges());
  // Out-of-range dst id (caught by verify_data even with a recomputed
  // fingerprint — rewrite both so only the structural check can fire).
  std::string m = bytes_;
  const std::uint32_t bogus = 0x7fffffffu;
  std::memcpy(m.data() + layout.dst, &bogus, 4);
  restamp(m);
  expect_rejected(m, "dst id out of range");
}

// detect opens a .ridg without verify_data, so the extraction walk checks
// what it indexes with: a destination past the nodes used to crash it.
TEST_F(RidgCorruption, WalkRejectsADestinationPastTheNodes) {
  const NodeId u = walked_node();
  ASSERT_NE(u, kInvalidNode);
  const SignedGraph& g = scenario().graph;
  const RidgLayout layout = RidgLayout::compute(g.num_nodes(), g.num_edges());
  std::string m = bytes_;
  const std::uint32_t bogus = 0x7ffffff0u;
  std::memcpy(m.data() + layout.dst + 4 * g.out_edge_ids(u).front(), &bogus, 4);
  expect_walk_rejects(m);
}

TEST_F(RidgCorruption, WalkRejectsAnOutEdgeRangePastTheEdges) {
  const NodeId u = walked_node();
  ASSERT_NE(u, kInvalidNode);
  const SignedGraph& g = scenario().graph;
  const RidgLayout layout = RidgLayout::compute(g.num_nodes(), g.num_edges());
  std::string m = bytes_;
  const std::uint64_t past = g.num_edges() + 5;
  std::memcpy(m.data() + layout.out_offsets + 8 * (u + 1), &past, 8);
  expect_walk_rejects(m);
}

// What scripts/check_ridg.py rejects beyond ids and signs: a weight outside
// [0, 1] (NaN included) and an edge outside its source's CSR run. Each edit
// is restamped, so the structural pass is what must reject it.
TEST_F(RidgCorruption, VerifyDataRejectsBadWeightsAndMisplacedEdges) {
  const SignedGraph& g = scenario().graph;
  const RidgLayout layout = RidgLayout::compute(g.num_nodes(), g.num_edges());
  const auto set_weight = [&](EdgeId e, double w) {
    std::string m = bytes_;
    std::memcpy(m.data() + layout.weight + 8 * e, &w, 8);
    return m;
  };
  // Edge 0 belongs to the run of its source and of no other node.
  const NodeId moved = (g.edge_src(0) + 1) % g.num_nodes();
  std::string misplaced = bytes_;
  std::memcpy(misplaced.data() + layout.src, &moved, 4);
  const struct {
    const char* what;
    std::string bytes;
  } cases[] = {
      {"weight 1.5", set_weight(3, 1.5)},
      {"NaN weight", set_weight(g.num_edges() - 1,
                                std::numeric_limits<double>::quiet_NaN())},
      {"src outside its run", misplaced},
  };
  for (const auto& c : cases) {
    std::string m = c.bytes;
    restamp(m);
    expect_rejected(m, c.what);
  }
}

// Every strict prefix and 4,000 seeded rounds of 1-4 restamped bit flips of
// a small .ridg with states: open(verify_data) either returns or throws
// InputError, and whatever it accepts materializes and extracts.
TEST_F(RidgCorruption, DamagedFilesOpenOrThrowInputError) {
  util::Rng rng(20261018);
  SignedGraphBuilder builder(12);
  for (int i = 0; i < 30; ++i)
    builder.add_edge(static_cast<NodeId>(rng.next_below(12)),
                     static_cast<NodeId>(rng.next_below(12)),
                     rng.bernoulli(0.7) ? Sign::kPositive : Sign::kNegative,
                     rng.uniform(0.0, 1.0));
  const NodeState cycle[] = {NodeState::kPositive, NodeState::kInactive,
                             NodeState::kNegative, NodeState::kUnknown};
  std::vector<NodeState> states(12);
  for (NodeId v = 0; v < 12; ++v) states[v] = cycle[v % 4];
  const fs::path small = dir_ / "small.ridg";
  write_columnar_file(builder.build(), states, small.string(),
                      kRidgFlagDiffusion);
  const std::string body = slurp(small);

  const fs::path bad = dir_ / "bad.ridg";
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    dump(bad, body.substr(0, cut));
    EXPECT_THROW(ColumnarGraphView::open(bad.string(), {.verify_data = true}),
                 util::InputError)
        << "prefix of " << cut << " bytes";
  }
  std::size_t opened = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string damaged = body;
    const std::int64_t flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.next_below(damaged.size() * 8);
      damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
    }
    restamp(damaged);
    dump(bad, damaged);
    try {
      const auto view =
          ColumnarGraphView::open(bad.string(), {.verify_data = true});
      materialize(view);
      core::extract_cascade_forest(view, view.states(), {});
      ++opened;
    } catch (const util::InputError&) {
      ++rejected;
    }
  }
  EXPECT_GT(opened, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- view equivalence -----------------------------------------------------

TEST(ColumnarView, AccessorsMatchSignedGraph) {
  const fs::path dir = test_dir("accessors");
  const auto view = ColumnarGraphView::open(write_scenario(dir).string(),
                                            {.verify_data = true});
  const SignedGraph& g = scenario().graph;
  ASSERT_EQ(view.num_nodes(), g.num_nodes());
  ASSERT_EQ(view.num_edges(), g.num_edges());
  EXPECT_TRUE(view.has_states());
  EXPECT_EQ(view.flags() & kRidgFlagDiffusion, kRidgFlagDiffusion);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(view.edge_src(e), g.edge_src(e));
    ASSERT_EQ(view.edge_dst(e), g.edge_dst(e));
    ASSERT_EQ(view.edge_sign(e), g.edge_sign(e));
    ASSERT_EQ(double_bits(view.edge_weight(e)),
              double_bits(g.edge_weight(e)));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(view.out_degree(u), g.out_degree(u));
    ASSERT_EQ(view.in_degree(u), g.in_degree(u));
    const auto got = view.out_edge_ids(u);
    const auto want = g.out_edge_ids(u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]);
    const auto gin = view.in_edge_ids(u);
    const auto win = g.in_edge_ids(u);
    ASSERT_TRUE(std::equal(gin.begin(), gin.end(), win.begin(), win.end()));
  }
  const auto states = view.states();
  ASSERT_EQ(states.size(), scenario().states.size());
  for (std::size_t v = 0; v < states.size(); ++v)
    ASSERT_EQ(states[v], scenario().states[v]);
}

TEST(ColumnarView, MaterializeRoundTrips) {
  const fs::path dir = test_dir("materialize");
  const fs::path path = write_scenario(dir);
  const auto view = ColumnarGraphView::open(path.string());
  const SignedGraph rebuilt = materialize(view);
  // Writing the materialized graph reproduces the file byte for byte.
  const fs::path again = dir / "again.ridg";
  write_columnar_file(rebuilt, scenario().states, again.string(),
                      kRidgFlagDiffusion);
  EXPECT_EQ(slurp(path), slurp(again));
}

TEST(ColumnarView, MfcEngineBackendEquality) {
  const fs::path dir = test_dir("mfc");
  const auto view = ColumnarGraphView::open(write_scenario(dir).string());
  const diffusion::MfcConfig config;
  const diffusion::MfcEngine ram(scenario().graph, config);
  const diffusion::MfcEngine mapped(view, config);
  EXPECT_THROW(mapped.graph(), std::logic_error);

  diffusion::SeedSet seeds;
  seeds.nodes = {0, 20, 40};
  seeds.states = {NodeState::kPositive, NodeState::kNegative,
                  NodeState::kPositive};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    diffusion::MfcWorkspace ws_a;
    diffusion::MfcWorkspace ws_b;
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const auto a = ram.run_cascade(seeds, ws_a, rng_a);
    const auto b = mapped.run_cascade(seeds, ws_b, rng_b);
    ASSERT_EQ(a.infected, b.infected);
    ASSERT_EQ(a.state, b.state);
    ASSERT_EQ(a.activator, b.activator);
    ASSERT_EQ(a.num_attempts, b.num_attempts);
  }
}

// --- detection bit-identity -----------------------------------------------

TEST(ColumnarDetection, RunRidBitIdenticalAcrossBackendsAndThreads) {
  const fs::path dir = test_dir("run_rid");
  const auto view = ColumnarGraphView::open(write_scenario(dir).string());
  RidConfig config;
  config.beta = 0.1;
  const DetectionResult want =
      core::run_rid(scenario().graph, scenario().states, config);
  ASSERT_GT(want.num_trees, 1u);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    RidConfig c = config;
    c.num_threads = threads;
    const DetectionResult got = core::run_rid(view, scenario().states, c);
    expect_identical(got, want);
  }
}

TEST(ColumnarDetection, ShardedRunMatchesInProcess) {
  if (!util::process_isolation_supported())
    GTEST_SKIP() << "no fork() on this platform";
  const fs::path dir = test_dir("sharded");
  const auto view = ColumnarGraphView::open(write_scenario(dir).string());
  RidConfig config;
  config.beta = 0.1;
  const DetectionResult want =
      core::run_rid(scenario().graph, scenario().states, config);
  for (const std::size_t shards : {1u, 3u}) {
    core::ShardedConfig sharded;
    sharded.num_shards = shards;
    sharded.run_dir = (dir / ("run" + std::to_string(shards))).string();
    const DetectionResult got =
        core::run_rid_sharded(view, scenario().states, config, sharded);
    expect_identical(got, want);
  }
}

}  // namespace
}  // namespace rid::graph
