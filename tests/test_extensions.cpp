// Tests for the extension modules: Jordan center, snapshot I/O, the thread
// pool, and parallel RID determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "core/jordan_center.hpp"
#include "core/rid.hpp"
#include "core/snapshot_io.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "oracles/snapshot_parser.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace rid {
namespace {

using graph::NodeId;
using graph::NodeState;
using graph::Sign;
using graph::SignedGraph;
using graph::SignedGraphBuilder;

core::CascadeTree tree_from_parents(std::vector<NodeId> parent) {
  core::CascadeTree tree;
  const auto n = static_cast<NodeId>(parent.size());
  tree.parent = std::move(parent);
  tree.in_g.assign(n, 0.5);
  tree.in_g[0] = 1.0;
  tree.global.resize(n);
  for (NodeId v = 0; v < n; ++v) tree.global[v] = v;
  tree.parent_edge.assign(n, graph::kInvalidEdge);
  tree.state.assign(n, NodeState::kPositive);
  tree.root = 0;
  return tree;
}

// --- Jordan center -----------------------------------------------------------

TEST(JordanCenter, PathCenters) {
  // Path of 5: unique center at index 2.
  const auto tree5 = tree_from_parents({graph::kInvalidNode, 0, 1, 2, 3});
  EXPECT_EQ(core::jordan_centers(tree5), (std::vector<NodeId>{2}));
  // Path of 4: the center is the middle edge -> two nodes.
  const auto tree4 = tree_from_parents({graph::kInvalidNode, 0, 1, 2});
  EXPECT_EQ(core::jordan_centers(tree4), (std::vector<NodeId>{1, 2}));
}

TEST(JordanCenter, StarCenterIsHub) {
  const auto star = tree_from_parents({graph::kInvalidNode, 0, 0, 0, 0});
  EXPECT_EQ(core::jordan_centers(star), (std::vector<NodeId>{0}));
}

TEST(JordanCenter, SingleNode) {
  const auto one = tree_from_parents({graph::kInvalidNode});
  EXPECT_EQ(core::jordan_centers(one), (std::vector<NodeId>{0}));
}

TEST(JordanCenter, MatchesBruteForceEccentricity) {
  util::Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(30));
    std::vector<NodeId> parent(n);
    parent[0] = graph::kInvalidNode;
    for (NodeId v = 1; v < n; ++v)
      parent[v] = static_cast<NodeId>(rng.next_below(v));
    const auto tree = tree_from_parents(parent);

    // Brute force: all-pairs BFS over the undirected tree.
    std::vector<std::vector<NodeId>> adj(n);
    for (NodeId v = 1; v < n; ++v) {
      adj[v].push_back(parent[v]);
      adj[parent[v]].push_back(v);
    }
    std::vector<std::uint32_t> ecc(n, 0);
    for (NodeId s = 0; s < n; ++s) {
      std::vector<std::uint32_t> dist(n, 0xffffffffu);
      std::vector<NodeId> queue{s};
      dist[s] = 0;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (const NodeId w : adj[queue[head]]) {
          if (dist[w] == 0xffffffffu) {
            dist[w] = dist[queue[head]] + 1;
            queue.push_back(w);
          }
        }
      }
      for (NodeId v = 0; v < n; ++v) ecc[s] = std::max(ecc[s], dist[v]);
    }
    const std::uint32_t best = *std::min_element(ecc.begin(), ecc.end());

    const auto centers = core::jordan_centers(tree);
    ASSERT_FALSE(centers.empty());
    for (const NodeId c : centers)
      EXPECT_EQ(ecc[c], best) << "trial " << trial;
  }
}

TEST(JordanCenter, PipelineReportsOneCenterPerTree) {
  SignedGraphBuilder builder(8);
  builder.add_edge(0, 1, Sign::kPositive, 0.5)
      .add_edge(1, 2, Sign::kPositive, 0.5)
      .add_edge(5, 6, Sign::kPositive, 0.5);
  const SignedGraph g = builder.build();
  std::vector<NodeState> states(8, NodeState::kInactive);
  for (const NodeId v : {0u, 1u, 2u, 5u, 6u}) states[v] = NodeState::kPositive;
  const core::DetectionResult result =
      core::run_jordan_center(g, states, core::BaselineConfig{});
  EXPECT_EQ(result.initiators.size(), result.num_trees);
  EXPECT_EQ(result.num_trees, 2u);
  // Path 0-1-2 has center 1.
  EXPECT_TRUE(std::binary_search(result.initiators.begin(),
                                 result.initiators.end(), 1u));
}

// --- snapshot I/O --------------------------------------------------------------

TEST(SnapshotIo, RoundTrip) {
  std::vector<NodeState> states{NodeState::kPositive, NodeState::kInactive,
                                NodeState::kNegative, NodeState::kUnknown,
                                NodeState::kInactive};
  std::stringstream buffer;
  core::save_snapshot(states, buffer);
  const auto loaded = core::load_snapshot(buffer, 5);
  EXPECT_EQ(loaded, states);
}

TEST(SnapshotIo, OmittedNodesAreInactive) {
  std::istringstream in("0 +1\n3 -1\n");
  const auto states = core::load_snapshot(in, 5);
  EXPECT_EQ(states[0], NodeState::kPositive);
  EXPECT_EQ(states[1], NodeState::kInactive);
  EXPECT_EQ(states[3], NodeState::kNegative);
  EXPECT_EQ(states[4], NodeState::kInactive);
}

TEST(SnapshotIo, AcceptsAlternateSpellingsAndComments) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "0 1\n"
      "1 ?\n"
      "2 0\n");
  const auto states = core::load_snapshot(in, 3);
  EXPECT_EQ(states[0], NodeState::kPositive);
  EXPECT_EQ(states[1], NodeState::kUnknown);
  EXPECT_EQ(states[2], NodeState::kInactive);
}

TEST(SnapshotIo, RejectsMalformedInput) {
  {
    std::istringstream in("0\n");
    EXPECT_THROW(core::load_snapshot(in, 3), std::runtime_error);
  }
  {
    std::istringstream in("abc +1\n");
    EXPECT_THROW(core::load_snapshot(in, 3), std::runtime_error);
  }
  {
    std::istringstream in("7 +1\n");
    EXPECT_THROW(core::load_snapshot(in, 3), std::runtime_error);
  }
  {
    std::istringstream in("0 maybe\n");
    EXPECT_THROW(core::load_snapshot(in, 3), std::runtime_error);
  }
}

TEST(SnapshotIo, MissingFileThrows) {
  EXPECT_THROW(core::load_snapshot_file("/nonexistent/snapshot.txt", 3),
               std::runtime_error);
}

/// What a snapshot parser makes of `text`: its entries or its InputError
/// text. Any other exception escapes and fails the test.
struct SnapshotOutcome {
  std::vector<core::SnapshotEntry> entries;
  std::string error;
};

template <typename Parser>
SnapshotOutcome snapshot_outcome(Parser parse, const std::string& text) {
  SnapshotOutcome out;
  std::istringstream in(text);
  try {
    out.entries = parse(in);
  } catch (const util::InputError& e) {
    out.error = e.what();
  }
  return out;
}

/// parse_snapshot_entries and the istringstream oracle agree on `text`:
/// the same entries (node, state, line) or the same InputError text. True
/// when it parses.
bool expect_parsers_agree(const std::string& text) {
  const SnapshotOutcome got =
      snapshot_outcome(core::parse_snapshot_entries, text);
  const SnapshotOutcome want =
      snapshot_outcome(core::istringstream_parse_snapshot_entries, text);
  const std::string where = "text '" + text + "'";
  EXPECT_EQ(got.error, want.error) << where;
  EXPECT_EQ(got.entries.size(), want.entries.size()) << where;
  for (std::size_t i = 0; i < std::min(got.entries.size(), want.entries.size());
       ++i) {
    EXPECT_EQ(got.entries[i].node, want.entries[i].node) << where;
    EXPECT_EQ(got.entries[i].state, want.entries[i].state) << where;
    EXPECT_EQ(got.entries[i].line_no, want.entries[i].line_no) << where;
  }
  return want.error.empty();
}

/// One seeded snapshot line: ids with leading zeros, at and past 2^64 and
/// junk; every state spelling and junk; every C-locale space (tabs, \r,
/// \v, \f) as separator; comments, blank lines and extra columns.
std::string random_snapshot_line(util::Rng& rng) {
  const auto pick = [&](std::initializer_list<const char*> options) {
    return std::string(options.begin()[rng.next_below(options.size())]);
  };
  const auto space = [&] {
    return pick({" ", "\t", "\r", "\v", "\f", "  ", " \t", "\v\f "});
  };
  switch (rng.next_below(10)) {
    case 0:
      return rng.bernoulli(0.5) ? "" : space();
    case 1:
      return pick({"#", "# node state", "%1 +1", "\t# 3 -1", "#3"});
    default:
      break;
  }
  std::string id = std::to_string(rng.next_below(100000));
  if (rng.bernoulli(0.3))
    id = pick({"0", "007", "00000000000000000000042", "18446744073709551615",
               "18446744073709551616", "99999999999999999999", "-1", "+5",
               "0x10", "1.0", "abc", "5#", "1\xff"});
  std::string line = rng.bernoulli(0.2) ? space() : "";
  line += id;
  if (rng.bernoulli(0.95)) {
    line += space();
    line += rng.bernoulli(0.7)
                ? pick({"+1", "-1", "1", "?", "0"})
                : pick({"+0", "-0", "01", "+?", "??", "2", "-", "+", "1x",
                        "?1", "+1#", "#", "--1", "inactive"});
  }
  if (rng.bernoulli(0.2)) line += space() + pick({"extra", "+1", "# note"});
  if (rng.bernoulli(0.2)) line += space();
  return line;
}

TEST(SnapshotIo, ParserMatchesTheIstringstreamOracle) {
  util::Rng rng(20261027);
  std::size_t parsed = 0;
  std::size_t refused = 0;
  std::string text;
  for (int i = 0; i < 40000 && !HasFailure(); ++i) {
    const std::string line = random_snapshot_line(rng);
    ++(expect_parsers_agree(line) ? parsed : refused);
    expect_parsers_agree(line + "\n");
    // Files of up to eight lines, with and without a final newline.
    text += line;
    if (rng.bernoulli(0.15)) {
      expect_parsers_agree(text);
      text.clear();
    } else {
      text += "\n";
    }
  }
  EXPECT_GT(parsed, 10000u);
  EXPECT_GT(refused, 5000u);

  // Past the parser's 64 KiB block: rows straddle block boundaries, a
  // 100 KB comment line doubles the block, and a bad last row is named by
  // its line number.
  std::string big;
  for (std::uint64_t i = 0; big.size() < 300000; ++i) {
    big += std::to_string(i) + (i % 3 ? " " : "\t") + (i % 2 ? "+1" : "?");
    big += i == 5000 ? "\n#" + std::string(100000, 'c') + "\n" : "\n";
  }
  EXPECT_TRUE(expect_parsers_agree(big));
  EXPECT_FALSE(expect_parsers_agree(big + "7 bad\n"));
}

/// Every strict prefix of a small snapshot and 4,000 seeded rounds of 1-4
/// byte flips: each input parses or throws InputError, as the oracle does.
TEST(SnapshotIo, DamagedSnapshotsParseOrThrowInputError) {
  const std::string body =
      "# node state\n0 +1\n\n3\t-1\r\n% skip\n17 ?\n 42 1 extra\n"
      "18446744073709551615 0\n007 -1";
  util::Rng rng(20261028);
  std::size_t parsed = 0;
  std::size_t refused = 0;
  for (std::size_t cut = 0; cut < body.size(); ++cut)
    expect_parsers_agree(body.substr(0, cut));
  for (int round = 0; round < 4000 && !HasFailure(); ++round) {
    std::string damaged = body;
    const std::int64_t flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f)
      damaged[rng.next_below(damaged.size())] ^=
          static_cast<char>(rng.uniform_int(1, 255));
    ++(expect_parsers_agree(damaged) ? parsed : refused);
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(SnapshotIo, TracedParseTagsItsEntries) {
  namespace trace = util::trace;
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  trace::start();
  std::istringstream in("# node state\n0 +1\n\n3 -1\n5 0\n");
  EXPECT_EQ(core::parse_snapshot_entries(in).size(), 3u);
  trace::stop();
  std::size_t spans = 0;
  for (const trace::SpanRecord& span : trace::snapshot().spans) {
    if (std::string_view(span.name) != "load_snapshot") continue;
    ++spans;
    ASSERT_EQ(span.num_tags, 1u);
    EXPECT_STREQ(span.tags[0].key, "entries");
    EXPECT_EQ(span.tags[0].ival, 3);
  }
  EXPECT_EQ(spans, 1u);
}

// --- thread pool ----------------------------------------------------------------

TEST(ThreadPool, RunsAllSubmittedTasks) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelForEach, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  util::parallel_for_each(500, 8,
                          [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForEach, InlineWhenSingleThreaded) {
  std::vector<int> order;
  util::parallel_for_each(5, 1, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForEach, PropagatesExceptions) {
  EXPECT_THROW(
      util::parallel_for_each(50, 4,
                              [&](std::size_t i) {
                                if (i == 17)
                                  throw std::runtime_error("boom");
                              }),
      std::runtime_error);
}

TEST(ParallelForEach, EmptyRangeIsNoop) {
  bool called = false;
  util::parallel_for_each(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// --- parallel RID determinism -----------------------------------------------------

TEST(ParallelRid, SameResultAsSerial) {
  util::Rng rng(71);
  const auto el = gen::erdos_renyi(300, 2100, rng);
  SignedGraph g =
      gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.02, 0.3));
  diffusion::SeedSet seeds;
  for (NodeId v = 0; v < 12; ++v) {
    seeds.nodes.push_back(v * 25);
    seeds.states.push_back(v % 2 ? NodeState::kNegative
                                 : NodeState::kPositive);
  }
  const diffusion::Cascade cascade =
      diffusion::simulate_mfc(g, seeds, diffusion::MfcConfig{}, rng);

  core::RidConfig serial;
  serial.beta = 0.5;
  serial.num_threads = 1;
  core::RidConfig parallel = serial;
  parallel.num_threads = 4;
  const auto a = core::run_rid(g, cascade.state, serial);
  const auto b = core::run_rid(g, cascade.state, parallel);
  EXPECT_EQ(a.initiators, b.initiators);
  EXPECT_EQ(a.states, b.states);
  EXPECT_DOUBLE_EQ(a.total_objective, b.total_objective);
}

}  // namespace
}  // namespace rid
