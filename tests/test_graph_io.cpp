#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/columnar.hpp"
#include "graph/columnar_stream.hpp"
#include "graph/diffusion_network.hpp"
#include "graph/label_compactor.hpp"
#include "oracles/edge_line_parser.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
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

// --- one-pass rows and the diffusion loader --------------------------------

/// One seeded line for the differential parser test. Columns mix the rows
/// the one-pass parser takes with every way the tokenizing fallback accepts
/// or refuses a column: separator runs, leading zeros, labels at and past
/// 2^64 - 1, signs with '+', leading zeros and junk, each weight spelling of
/// WeightSpellingsLoadToStrtodBits, shortest round-trip and exponent
/// decimals, out-of-range, overflowing and underflowing weights, junk
/// suffixes, 1-5 columns, comments and blank lines.
std::string random_line(util::Rng& rng) {
  const auto pick = [&](std::initializer_list<const char*> options) {
    return std::string(options.begin()[rng.next_below(options.size())]);
  };
  const auto separator = [&] {
    return pick({" ", "\t", "\r", "  ", " \t", "\t\r ", "\t\t"});
  };
  const auto label = [&] {
    if (rng.bernoulli(0.8)) return std::to_string(rng.next_below(100000));
    if (rng.bernoulli(0.5)) return std::to_string(rng.next_u64());
    return pick({"0", "007", "0000000000000000000000042",
                 "18446744073709551615", "18446744073709551616",
                 "99999999999999999999", "-1", "+5", "1x", "0x10", "1.0",
                 "#3", "%"});
  };
  const auto sign = [&] {
    if (rng.bernoulli(0.8)) return pick({"1", "-1"});
    return pick({"01", "+1", "0", "2", "1x", "-01", "-2", "1.0", "--1",
                 "2147483648", "-"});
  };
  const auto weight = [&] {
    char buf[64];
    const double d = rng.next_double();
    if (rng.bernoulli(0.6))
      return std::string(buf, std::to_chars(buf, buf + sizeof(buf), d).ptr);
    if (rng.bernoulli(0.2)) {
      std::string sci(buf, std::to_chars(buf, buf + sizeof(buf), d,
                                         std::chars_format::scientific)
                               .ptr);
      if (rng.bernoulli(0.5)) sci[sci.find('e')] = 'E';
      return sci;
    }
    return pick({"+0.5", "0x1p-1", "0X1P-1", "-0", "-0x0p+0", ".5", "+.25",
                 "1.", "1E-2", "1e-310", "1e-400", "1e400", "1e309",
                 "1e-330", "nan", "inf", "-inf", "NaN", "infinity",
                 "0.5trailing", "+-0.5", "-+0.5", "++0.5", "0x-1p-1",
                 "0x+1p-1", "0xinf", "0x1p+-1", "0x", "+", ".", "1.5", "2",
                 "1.0000000000000002", "1", "0", "0.0", "1.0", "1e0", "5e-1",
                 "0.5x", "0.5e", "0.5e+", "\v0.5", "\f0.25", "\n0.5", "0.5\v",
                 "00.5", "4.9406564584124654e-324", "2.2250738585072014e-308",
                 "0.999999999999999999999", "0.5#"});
  };
  switch (rng.next_below(20)) {
    case 0:
      return rng.bernoulli(0.5) ? "" : separator();
    case 1:
      return pick({"#", "% comment", "# 1 2 1 0.5", "\t# indented 1 2",
                   "%1 2 1 0.5"});
    default:
      break;
  }
  std::string line = rng.bernoulli(0.2) ? separator() : "";
  const std::string columns[] = {label(), label(), sign(), weight(),
                                 pick({"extra", "0.5", "#", "x y"})};
  const std::uint64_t count =
      rng.bernoulli(0.9) ? 3 + rng.next_below(3) : 1 + rng.next_below(2);
  for (std::uint64_t c = 0; c < count; ++c)
    line += (c > 0 ? separator() : "") + columns[c];
  if (rng.bernoulli(0.2)) line += separator();
  return line;
}

/// What a parser makes of one line: skipped, accepted with `edge`, or the
/// InputError text.
struct RowOutcome {
  bool accepted = false;
  ParsedEdge edge;
  std::string error;
};

template <typename Parser>
RowOutcome parse_outcome(Parser parser, const std::string& line,
                         bool weighted) {
  RowOutcome out;
  try {
    out.accepted = parser(line, 7, weighted, out.edge);
  } catch (const util::InputError& e) {
    out.error = e.what();
  }
  return out;
}

TEST(GraphIo, OnePassRowsMatchTheTokenizingParser) {
  util::Rng rng(20261018);
  std::size_t accepted = 0;
  std::size_t skipped = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::string line = random_line(rng);
    for (const bool weighted : {true, false}) {
      const RowOutcome got = parse_outcome(parse_edge_line, line, weighted);
      const RowOutcome want =
          parse_outcome(tokenizing_parse_edge_line, line, weighted);
      ASSERT_EQ(got.error, want.error) << "line '" << line << "'";
      ASSERT_EQ(got.accepted, want.accepted) << "line '" << line << "'";
      if (!want.error.empty()) {
        ++refused;
      } else if (!want.accepted) {
        ++skipped;
      } else {
        ++accepted;
        ASSERT_EQ(got.edge.src, want.edge.src) << "line '" << line << "'";
        ASSERT_EQ(got.edge.dst, want.edge.dst) << "line '" << line << "'";
        ASSERT_EQ(got.edge.sign, want.edge.sign) << "line '" << line << "'";
        ASSERT_EQ(bits(got.edge.weight), bits(want.edge.weight))
            << "line '" << line << "'";
      }
    }
  }
  EXPECT_GT(accepted, 50000u);
  EXPECT_GT(skipped, 10000u);
  EXPECT_GT(refused, 50000u);
}

/// The running test's temporary directory; ctest runs each test in its own
/// process, so tests never share one.
std::filesystem::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("graph_io_") + info->name());
  std::filesystem::create_directories(dir);
  return dir;
}

std::string temp_file(const std::string& name, const std::string& body) {
  const std::string path = (test_dir() / name).string();
  std::ofstream(path, std::ios::binary) << body;
  return path;
}

/// The text route as it was before block reads and the diffusion loader,
/// rebuilt from independent parts: std::getline lines, the tokenizing
/// parser, assemble_edges, then the reversal.
LoadedGraph getline_route(const std::string& path) {
  std::ifstream in(path);
  std::vector<ParsedEdge> rows;
  std::string line;
  std::size_t line_no = 0;
  ParsedEdge e;
  while (std::getline(in, line))
    if (tokenizing_parse_edge_line(line, ++line_no, true, e)) rows.push_back(e);
  LoadedGraph social = assemble_edges(rows);
  return {make_diffusion_network(social.graph),
          std::move(social.original_label)};
}

/// `kept`, a load of the same file filtered to `ids`, has the full load's
/// node count and labels; each listed node's out-edge run (destination,
/// sign and weight, in order) is the full load's, every other run is empty.
void expect_kept_runs(const LoadedGraph& full, const LoadedGraph& kept,
                      const std::vector<std::uint64_t>& ids) {
  const NodeId n = full.graph.num_nodes();
  ASSERT_EQ(kept.graph.num_nodes(), n);
  EXPECT_EQ(kept.original_label, full.original_label);
  std::vector<bool> listed(n);
  for (const std::uint64_t id : ids)
    if (id < n) listed[id] = true;
  for (NodeId u = 0; u < n; ++u) {
    const EdgeIdRange got = kept.graph.out_edge_ids(u);
    if (!listed[u]) {
      EXPECT_TRUE(got.empty()) << "unlisted node " << u;
      continue;
    }
    const EdgeIdRange want = full.graph.out_edge_ids(u);
    ASSERT_EQ(got.size(), want.size()) << "node " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(kept.graph.edge_dst(got[i]), full.graph.edge_dst(want[i]));
      EXPECT_EQ(kept.graph.edge_sign(got[i]), full.graph.edge_sign(want[i]));
      EXPECT_EQ(bits(kept.graph.edge_weight(got[i])),
                bits(full.graph.edge_weight(want[i])));
    }
  }
}

/// load_diffusion_file equals the reversed weighted load and the getline
/// route, graph and labels; the block reader splits lines like getline.
/// Filtered to no ids, every id, a seeded half (unsorted, with duplicates)
/// or ids past the node count, it keeps exactly the listed runs.
void expect_routes_agree(const std::string& path) {
  const LoadedGraph direct = load_diffusion_file(path);
  const LoadedGraph social = load_weighted_file(path);
  EXPECT_EQ(direct.graph, make_diffusion_network(social.graph));
  EXPECT_EQ(direct.original_label, social.original_label);
  const LoadedGraph old = getline_route(path);
  EXPECT_EQ(direct.graph, old.graph);
  EXPECT_EQ(direct.original_label, old.original_label);

  const NodeId n = direct.graph.num_nodes();
  std::vector<std::uint64_t> every(n);
  std::iota(every.begin(), every.end(), std::uint64_t{0});
  EXPECT_EQ(load_diffusion_file(path, every).graph, direct.graph);
  util::Rng rng(n);
  std::vector<std::uint64_t> half;
  for (NodeId u = 0; u < n; ++u)
    if (rng.bernoulli(0.5)) half.insert(half.end(), 1 + rng.next_below(3), u);
  rng.shuffle(std::span(half));
  const std::vector<std::uint64_t> past{n, std::uint64_t{n} + 1, 0,
                                        std::uint64_t{1} << 32,
                                        ~std::uint64_t{0}};
  for (const auto& ids : {std::vector<std::uint64_t>{}, every, half, past})
    expect_kept_runs(direct, load_diffusion_file(path, ids), ids);

  std::ifstream blocks_in(path);
  LineReader reader(blocks_in.rdbuf());
  std::ifstream getline_in(path);
  std::string want;
  std::string_view got;
  for (std::size_t line_no = 1; std::getline(getline_in, want); ++line_no) {
    ASSERT_EQ(reader.next(got), line_no);
    ASSERT_EQ(got, want) << "line " << line_no;
  }
  EXPECT_EQ(reader.next(got), 0u);
}

/// The InputError text of each route on `path`: the two loaders, the
/// filtered diffusion load, the streaming converter's source and the
/// getline route.
std::vector<std::string> route_errors(const std::string& path) {
  std::vector<std::string> errors;
  const auto record = [&](auto load) {
    try {
      load();
      errors.emplace_back("");
    } catch (const util::InputError& e) {
      errors.emplace_back(e.what());
    }
  };
  record([&] { load_diffusion_file(path); });
  record([&] { load_weighted_file(path); });
  record([&] { load_diffusion_file(path, {0, 2, 4}); });
  record([&] {
    TextEdgeSource source(path);
    load_edge_source(source);
  });
  record([&] { getline_route(path); });
  return errors;
}

TEST(GraphIo, DiffusionLoadMatchesTheReversedLoad) {
  const std::string messy = temp_file("messy.txt", kMessyEdgeList);
  expect_routes_agree(messy);
  const std::string ridg = temp_file("messy.ridg", "");
  write_columnar_file(load_diffusion_file(messy).graph, {}, ridg,
                      kRidgFlagDiffusion);
  EXPECT_EQ(ColumnarGraphView::open(ridg).fingerprint(), 0xb9ad60843b29cef5ull);
  // The streaming converter writes the same file from the same text.
  TextEdgeSource source(messy);
  EXPECT_EQ(stream_convert_to_columnar(source, ridg, {}).fingerprint,
            0xb9ad60843b29cef5ull);
  EXPECT_EQ(ColumnarGraphView::open(ridg).flags(), kRidgFlagDiffusion);

  // Seeded multigraphs: sparse labels, self-loops, parallel pairs with
  // differing signs and weights, unsorted rows, CRLF, comments, and some
  // files without a final newline.
  util::Rng rng(22);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    const std::uint64_t n = 1 + rng.next_below(40);
    std::vector<std::uint64_t> labels(n);
    for (std::uint64_t& l : labels)
      l = rng.bernoulli(0.5) ? rng.next_below(1000) : rng.next_u64();
    std::string text;
    char buf[64];
    const std::uint64_t rows = rng.next_below(300);
    for (std::uint64_t r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.05)) text += "# comment\n";
      const std::uint64_t u = rng.next_below(n);
      const std::uint64_t v = rng.bernoulli(0.1) ? u : rng.next_below(n);
      const double w = rng.bernoulli(0.1) ? 1.0 : rng.next_double();
      text += std::to_string(labels[u]) + (rng.bernoulli(0.5) ? "\t" : " ") +
              std::to_string(labels[v]) + " " +
              (rng.bernoulli(0.7) ? "1" : "-1") + " " +
              std::string(buf, std::to_chars(buf, buf + sizeof(buf), w).ptr) +
              (rng.bernoulli(0.3) ? "\r\n" : "\n");
    }
    if (!text.empty() && rng.bernoulli(0.3)) text.pop_back();
    expect_routes_agree(temp_file("random.txt", text));
  }
  std::filesystem::remove_all(test_dir());
}

TEST(GraphIo, DiffusionLoadAcrossBlockBoundaries) {
  constexpr std::size_t kBlock = std::size_t{1} << 20;  // LineReader's block
  const auto rows_until = [](std::string text, std::size_t bytes) {
    for (std::uint64_t i = 0; text.size() < bytes; ++i)
      text += std::to_string(i % 5000) + "\t" + std::to_string(i % 4999 + 7) +
              (i % 3 ? " 1 " : " -1 ") + "0.0" + std::to_string(i % 97) + "\n";
    return text;
  };
  // A row straddling the first block boundary.
  std::string straddle =
      "#" + std::string(kBlock - 8, 'x') + "\n12345 678 -1 0.25\n";
  expect_routes_agree(
      temp_file("straddle.txt", rows_until(straddle, kBlock + 9000)));
  // A 3 MiB comment line between rows: the block grows to hold it.
  std::string long_line = rows_until("", 5000) + "%" +
                          std::string(3 * kBlock, 'c') + "\n";
  expect_routes_agree(
      temp_file("long.txt", rows_until(long_line, long_line.size() + 5000)));
  // Exactly one block, with and without a final newline.
  std::string one_block = rows_until("", kBlock - 200);
  one_block += "#" + std::string(kBlock - one_block.size() - 2, 'p') + "\n";
  ASSERT_EQ(one_block.size(), kBlock);
  expect_routes_agree(temp_file("block.txt", one_block));
  one_block.resize(kBlock - 21);
  one_block += "\n4 5 1 0.5\n2 3 -1 0.5";
  ASSERT_EQ(one_block.size(), kBlock);
  expect_routes_agree(temp_file("block_nonl.txt", one_block));
  // No rows at all.
  expect_routes_agree(temp_file("empty.txt", ""));
  expect_routes_agree(temp_file("comments.txt", "# a\n%b\n\n\r\n# c"));

  // A malformed row in the third block: every route names the same line.
  std::string bad = rows_until("", 2 * kBlock + 777);
  const auto line_no = std::count(bad.begin(), bad.end(), '\n') + 1;
  bad += "5 6 3 0.5\n";
  const std::string want = "graph_io: line " + std::to_string(line_no) +
                           ": sign must be +1 or -1, got 3";
  const std::string path =
      temp_file("bad.txt", rows_until(bad, bad.size() + 9000));
  EXPECT_EQ(route_errors(path), std::vector<std::string>(5, want));
  std::filesystem::remove_all(test_dir());
}

TEST(GraphIo, TracedDiffusionLoadHasNoReverseSpan) {
  namespace trace = util::trace;
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  const std::string path = temp_file("messy.txt", kMessyEdgeList);
  trace::start();
  const LoadedGraph loaded = load_diffusion_file(path);
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
  EXPECT_EQ(names, (std::vector<std::string>{"csr_build", "load_text"}));
  EXPECT_EQ(loaded.graph.num_edges(), 9u);
  std::filesystem::remove_all(test_dir());
}

TEST(GraphIo, TracedFilteredLoadTagsItsKeptRows) {
  namespace trace = util::trace;
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  const std::string path = temp_file("messy.txt", kMessyEdgeList);
  trace::start();
  // Node 2 is label 42, the destination of four rows.
  const LoadedGraph loaded = load_diffusion_file(path, {2});
  trace::stop();

  std::size_t spans = 0;
  for (const trace::SpanRecord& span : trace::snapshot().spans) {
    if (std::string_view(span.name) != "load_text") continue;
    ++spans;
    ASSERT_EQ(span.num_tags, 3u);
    EXPECT_STREQ(span.tags[0].key, "rows");
    EXPECT_EQ(span.tags[0].ival, 13);
    EXPECT_STREQ(span.tags[1].key, "kept");
    EXPECT_EQ(span.tags[1].ival, 4);
    EXPECT_STREQ(span.tags[2].key, "nodes");
    EXPECT_EQ(span.tags[2].ival, 7);
  }
  EXPECT_EQ(spans, 1u);
  EXPECT_EQ(loaded.graph.num_edges(), 2u);  // one self-loop, one duplicate
  std::filesystem::remove_all(test_dir());
}

/// Every strict prefix of the messy list and 4,000 seeded rounds of 1-4
/// byte flips: the full and the filtered load either both load, with the
/// listed runs kept, or both throw the same InputError text.
TEST(GraphIo, DamagedListsLoadAlikeFilteredOrNot) {
  const std::string body = kMessyEdgeList;
  util::Rng rng(20261020);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  const auto check = [&](const std::string& text) {
    const std::string path = temp_file("damaged.txt", text);
    std::vector<std::uint64_t> ids;
    for (std::uint64_t u = 0; u < 9; ++u)
      if (rng.bernoulli(0.5)) ids.push_back(u);
    LoadedGraph full;
    LoadedGraph kept;
    std::string full_error;
    std::string kept_error;
    try {
      full = load_diffusion_file(path);
    } catch (const util::InputError& e) {
      full_error = e.what();
    }
    try {
      kept = load_diffusion_file(path, ids);
    } catch (const util::InputError& e) {
      kept_error = e.what();
    }
    ASSERT_EQ(kept_error, full_error) << "text '" << text << "'";
    if (!full_error.empty()) {
      ++rejected;
      return;
    }
    ++loaded;
    expect_kept_runs(full, kept, ids);
  };
  for (std::size_t cut = 0; cut < body.size(); ++cut)
    check(body.substr(0, cut));
  for (int round = 0; round < 4000; ++round) {
    std::string damaged = body;
    const std::int64_t flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f)
      damaged[rng.next_below(damaged.size())] ^=
          static_cast<char>(rng.uniform_int(1, 255));
    check(damaged);
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  std::filesystem::remove_all(test_dir());
}

// --- LabelCompactor --------------------------------------------------------

/// Seeded label streams mixing dense labels, labels first seen past the
/// direct table's bound that it later covers, labels up to 2^64 - 1, random
/// labels and repeats, against an unordered_map oracle: the same
/// first-appearance ids, the same find on present and absent labels, and
/// labels released in id order.
TEST(LabelCompactor, MatchesAMapOracle) {
  constexpr std::uint64_t kLate = std::uint64_t{1} << 20;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    LabelCompactor ids;
    std::unordered_map<std::uint64_t, NodeId> oracle;
    std::vector<std::uint64_t> order;
    const auto draw = [&]() -> std::uint64_t {
      switch (rng.next_below(6)) {
        case 0:
        case 1:
          return rng.next_below(300000);
        case 2:
          return kLate + rng.next_below(kLate);
        case 3:
          return ~std::uint64_t{0} - rng.next_below(1000);
        case 4:
          return rng.next_u64();
        default:
          return order.empty() ? 0 : order[rng.next_below(order.size())];
      }
    };
    std::vector<std::uint64_t> hashed_late;  // late labels first hashed
    for (int i = 0; i < 400000; ++i) {
      const std::uint64_t label = draw();
      const auto [it, fresh] =
          oracle.try_emplace(label, static_cast<NodeId>(oracle.size()));
      if (fresh) order.push_back(label);
      if (fresh && label < 2 * kLate && label >= ids.direct_size() &&
          label >= std::bit_floor(8 * (ids.size() + 65536)))
        hashed_late.push_back(label);
      ASSERT_EQ(ids.insert(label), it->second) << "label " << label;
      ASSERT_LE(ids.direct_size(), 8 * (ids.size() + 65536));
      const std::uint64_t probe = rng.bernoulli(0.5) ? draw() : label + 1;
      const auto found = oracle.find(probe);
      ASSERT_EQ(ids.find(probe),
                found == oracle.end() ? kInvalidNode : found->second)
          << "probe " << probe;
    }
    // The late labels moved into the direct table and kept their ids.
    ASSERT_GE(ids.direct_size(), 2 * kLate);
    EXPECT_GT(hashed_late.size(), 1000u);
    for (const std::uint64_t label : hashed_late)
      EXPECT_EQ(ids.find(label), oracle.at(label));
    EXPECT_EQ(ids.size(), order.size());
    EXPECT_EQ(std::move(ids).release_labels(), order);
  }
}

/// The direct table holds at most 8 * (labels + 65,536) entries however
/// sparse the labels, and covers dense labels 0..n-1 whole.
TEST(LabelCompactor, DirectTableStaysWithinItsBound) {
  LabelCompactor sparse;
  for (std::uint64_t i = 0; i < 100000; ++i)
    ASSERT_EQ(sparse.insert((i + 1) << 33), i);
  EXPECT_EQ(sparse.direct_size(), 0u);

  // Each label just below the unrounded bound at its insertion.
  LabelCompactor edge;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    ASSERT_EQ(edge.insert(8 * (edge.size() + 65536) - 1), i);
    ASSERT_LE(edge.direct_size(), 8 * (edge.size() + 65536));
  }

  LabelCompactor dense;
  constexpr std::uint64_t kDense = 300000;
  for (std::uint64_t i = 0; i < kDense; ++i)
    ASSERT_EQ(dense.insert(kDense - 1 - i), i);
  EXPECT_GE(dense.direct_size(), kDense);
  EXPECT_LE(dense.direct_size(), 8 * (kDense + 65536));
  for (std::uint64_t i = 0; i < kDense; ++i)
    ASSERT_EQ(dense.find(i), kDense - 1 - i);
  EXPECT_EQ(dense.find(kDense), kInvalidNode);
}

}  // namespace
}  // namespace rid::graph
