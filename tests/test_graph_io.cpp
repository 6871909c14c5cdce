#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "graph/columnar.hpp"
#include "graph/diffusion_network.hpp"
#include "util/errors.hpp"
#include "util/trace.hpp"

namespace rid::graph {
namespace {

TEST(GraphIo, LoadSnapBasic) {
  std::istringstream in(
      "# Directed signed network\n"
      "# FromNodeId ToNodeId Sign\n"
      "10 20 1\n"
      "20 30 -1\n"
      "30 10 1\n");
  const LoadedGraph loaded = load_snap(in);
  EXPECT_EQ(loaded.graph.num_nodes(), 3u);
  EXPECT_EQ(loaded.graph.num_edges(), 3u);
  // Labels compacted in order of appearance.
  ASSERT_EQ(loaded.original_label.size(), 3u);
  EXPECT_EQ(loaded.original_label[0], 10u);
  EXPECT_EQ(loaded.original_label[1], 20u);
  EXPECT_EQ(loaded.original_label[2], 30u);
  const EdgeId e = loaded.graph.find_edge(1, 2);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(loaded.graph.edge_sign(e), Sign::kNegative);
  EXPECT_DOUBLE_EQ(loaded.graph.edge_weight(e), 1.0);
}

TEST(GraphIo, LoadSnapHandlesTabsBlanksAndPercentComments) {
  std::istringstream in(
      "% alt comment style\n"
      "\n"
      "1\t2\t-1\n"
      "   \n"
      "2 3 1\n");
  const LoadedGraph loaded = load_snap(in);
  EXPECT_EQ(loaded.graph.num_edges(), 2u);
}

TEST(GraphIo, LoadSnapRejectsBadSign) {
  std::istringstream in("1 2 5\n");
  EXPECT_THROW(load_snap(in), std::runtime_error);
}

TEST(GraphIo, LoadSnapRejectsMissingColumns) {
  std::istringstream in("1 2\n");
  EXPECT_THROW(load_snap(in), std::runtime_error);
}

TEST(GraphIo, LoadSnapRejectsGarbageNumbers) {
  std::istringstream in("a b 1\n");
  EXPECT_THROW(load_snap(in), std::runtime_error);
}

TEST(GraphIo, LoadWeighted) {
  std::istringstream in(
      "# src dst sign weight\n"
      "0 1 1 0.25\n"
      "1 0 -1 0.75\n");
  const LoadedGraph loaded = load_weighted(in);
  EXPECT_EQ(loaded.graph.num_edges(), 2u);
  const EdgeId e = loaded.graph.find_edge(0, 1);
  EXPECT_DOUBLE_EQ(loaded.graph.edge_weight(e), 0.25);
}

TEST(GraphIo, LoadWeightedRejectsOutOfRangeWeight) {
  std::istringstream in("0 1 1 1.5\n");
  EXPECT_THROW(load_weighted(in), std::runtime_error);
}

TEST(GraphIo, SaveThenLoadRoundTrips) {
  SignedGraphBuilder builder(4);
  builder.add_edge(0, 1, Sign::kPositive, 0.5)
      .add_edge(1, 2, Sign::kNegative, 0.125)
      .add_edge(2, 3, Sign::kPositive, 1.0)
      .add_edge(3, 0, Sign::kNegative, 0.0625);
  const SignedGraph g = builder.build();

  std::stringstream buffer;
  save_weighted(g, buffer);
  const LoadedGraph loaded = load_weighted(buffer);
  EXPECT_EQ(loaded.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.graph.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeId le = loaded.graph.find_edge(g.edge_src(e), g.edge_dst(e));
    ASSERT_NE(le, kInvalidEdge);
    EXPECT_EQ(loaded.graph.edge_sign(le), g.edge_sign(e));
    EXPECT_DOUBLE_EQ(loaded.graph.edge_weight(le), g.edge_weight(e));
  }
}

TEST(GraphIo, SaveWeightedPreservesFullDoublePrecision) {
  // Weights that are not representable in the default 6-digit ostream
  // precision: the save format must round-trip them bit-for-bit.
  // Subnormal weights are written as such ("1e-310", "5e-324") and must
  // load back too.
  SignedGraphBuilder builder(5);
  builder.add_edge(0, 1, Sign::kPositive, 1.0 / 3.0)
      .add_edge(1, 2, Sign::kNegative, 0.1)
      .add_edge(2, 3, Sign::kPositive, 0.12345678901234567)
      .add_edge(3, 0, Sign::kNegative, 1e-12)
      .add_edge(3, 4, Sign::kPositive, 1e-310)
      .add_edge(4, 0, Sign::kNegative,
                std::numeric_limits<double>::denorm_min());
  const SignedGraph g = builder.build();

  std::stringstream first;
  save_weighted(g, first);
  const LoadedGraph once = load_weighted(first);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeId le = once.graph.find_edge(g.edge_src(e), g.edge_dst(e));
    ASSERT_NE(le, kInvalidEdge);
    // Exact, not near: shortest round-trip formatting.
    EXPECT_EQ(once.graph.edge_weight(le), g.edge_weight(e));
  }

  // load -> save is a fixed point: saving the loaded graph reproduces the
  // file byte for byte.
  std::stringstream second;
  save_weighted(once.graph, second);
  EXPECT_EQ(first.str(), second.str());
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The InputError text load_weighted throws for `text`, or "" if it loads.
std::string load_error(const std::string& text) {
  std::istringstream in(text);
  try {
    load_weighted(in);
  } catch (const util::InputError& e) {
    return e.what();
  }
  return "";
}

TEST(GraphIo, WeightSpellingsLoadToStrtodBits) {
  // Every spelling strtod (std::stod's parser) accepts in range loads to the
  // bits strtod gives it: signs, hex floats with either prefix case, bare
  // leading or trailing points, exponent case.
  const struct {
    const char* spelling;
    double want;
  } table[] = {
      {"+0.5", 0.5},   {"0x1p-1", 0.5}, {"0X1P-1", 0.5}, {"-0", -0.0},
      {"-0x0p+0", -0.0}, {".5", 0.5},   {"+.25", 0.25},  {"1.", 1.0},
      {"1E-2", 0.01},  {"1e-310", 1e-310},
  };
  for (const auto& row : table) {
    SCOPED_TRACE(row.spelling);
    std::istringstream in(std::string("0 1 1 ") + row.spelling + "\n");
    const LoadedGraph loaded = load_weighted(in);
    ASSERT_EQ(loaded.graph.num_edges(), 1u);
    EXPECT_EQ(bits(loaded.graph.edge_weight(0)), bits(row.want));
    EXPECT_EQ(bits(loaded.graph.edge_weight(0)),
              bits(std::strtod(row.spelling, nullptr)));
  }

  // What failed before still fails, with the same text. 1e-400 underflows
  // to zero; nan and inf parse but are out of range.
  EXPECT_EQ(load_error("0 1 1 1e-400\n"),
            "graph_io: line 1: expected a number, got '1e-400'");
  EXPECT_EQ(load_error("0 1 1 1e400\n"),
            "graph_io: line 1: expected a number, got '1e400'");
  EXPECT_EQ(load_error("0 1 1 nan\n"),
            "graph_io: line 1: weight outside [0, 1]");
  EXPECT_EQ(load_error("0 1 1 inf\n"),
            "graph_io: line 1: weight outside [0, 1]");
  EXPECT_EQ(load_error("0 1 1 0.5trailing\n"),
            "graph_io: line 1: expected a number, got '0.5trailing'");
  // Signs and prefixes from_chars would take on its own are still refused.
  for (const char* bad : {"+-0.5", "-+0.5", "++0.5", "0x-1p-1", "0x+1p-1",
                          "0xinf", "0x1p+-1", "0x", "+", "."}) {
    EXPECT_EQ(load_error(std::string("0 1 1 ") + bad + "\n"),
              std::string("graph_io: line 1: expected a number, got '") + bad +
                  "'");
  }
}

/// Comments in both styles, CRLF and LF endings, tabs and spaces, blank and
/// whitespace-only lines, self-loops (one of them the only row of label 5),
/// duplicate pairs, an extra column, sparse labels up to 2^64 - 1, no final
/// newline, and every weight spelling WeightSpellingsLoadToStrtodBits
/// covers. The CI streaming-convert drill writes the same list with printf.
constexpr char kMessyEdgeList[] =
    "# messy weighted edge list\r\n"
    "% both comment styles, CRLF and LF, tabs and spaces\n"
    "\r\n"
    "18446744073709551615\t7 1 +0.5\r\n"
    "7  18446744073709551615\t-1\t0x1p-1\n"
    "42 42 1 0X1P-1\n"
    "7 42 -1 -0\r\n"
    "7 42 1 -0x0p+0\n"
    "   1000000000000 7 1 .5  \n"
    "42\t1000000000000\t1\t+.25\r\n"
    "\t\n"
    "18446744073709551615 42 -1 1.\n"
    "0 18446744073709551614 1 1E-2\n"
    "18446744073709551614 0 -1 0.125 extra columns\n"
    "# interior comment\n"
    "18446744073709551615 7 -1 0.75\r\n"
    "5 5 -1 1\n"
    "1000000000000 0 1 0.5";

TEST(GraphIo, MessyEdgeListMatchesGoldenBytes) {
  std::istringstream in(kMessyEdgeList);
  const LoadedGraph loaded = load_weighted(in);
  EXPECT_EQ(loaded.original_label,
            (std::vector<std::uint64_t>{18446744073709551615ull, 7, 42,
                                        1000000000000ull, 0,
                                        18446744073709551614ull, 5}));
  const SignedGraph diffusion = make_diffusion_network(loaded.graph);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "messy_golden.ridg")
          .string();
  write_columnar_file(diffusion, {}, path, kRidgFlagDiffusion);
  // Captured by running this body against the loader, builder and
  // reversal that preceded the counting-sort build and the transpose.
  EXPECT_EQ(ColumnarGraphView::open(path).fingerprint(), 0xb9ad60843b29cef5ull);
  std::filesystem::remove(path);
}

TEST(GraphIo, TracedLoadAndReverseRecordOneSpanPerIngestStage) {
  namespace trace = util::trace;
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  trace::start();
  std::istringstream in(kMessyEdgeList);
  const LoadedGraph loaded = load_weighted(in);
  const SignedGraph diffusion = make_diffusion_network(loaded.graph);
  trace::stop();

  std::vector<std::string> names;
  for (const trace::SpanRecord& span : trace::snapshot().spans) {
    names.emplace_back(span.name);
    if (names.back() != "load_text") continue;
    ASSERT_EQ(span.num_tags, 2u);
    EXPECT_STREQ(span.tags[0].key, "rows");
    EXPECT_EQ(span.tags[0].ival, 13);
    EXPECT_STREQ(span.tags[1].key, "nodes");
    EXPECT_EQ(span.tags[1].ival, 7);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"csr_build", "load_text", "reverse"}));
  EXPECT_EQ(diffusion.num_edges(), 9u);
}

TEST(GraphIo, DuplicateFileEdgesAreDeduped) {
  std::istringstream in(
      "1 2 1\n"
      "1 2 -1\n"
      "1 1 1\n");
  const LoadedGraph loaded = load_snap(in);
  // Self-loop dropped, duplicate keeps the first sign.
  EXPECT_EQ(loaded.graph.num_edges(), 1u);
  EXPECT_EQ(loaded.graph.edge_sign(0), Sign::kPositive);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_snap_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

TEST(GraphIo, EmptyInputYieldsEmptyGraph) {
  std::istringstream in("# nothing\n");
  const LoadedGraph loaded = load_snap(in);
  EXPECT_EQ(loaded.graph.num_nodes(), 0u);
  EXPECT_EQ(loaded.graph.num_edges(), 0u);
}

}  // namespace
}  // namespace rid::graph
