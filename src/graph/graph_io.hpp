// Reading and writing signed edge lists.
//
// Two formats are supported:
//  * SNAP format ("FromNodeId ToNodeId Sign", '#' comments) — the format of
//    the public soc-sign-epinions / soc-sign-Slashdot dumps the paper uses;
//    weights default to 1.0 and are normally assigned afterwards with
//    apply_jaccard_weights().
//  * weighted format with a fourth column holding the weight in [0, 1],
//    written in strtod's C-locale grammar (sign, decimal or hex float;
//    subnormals load, values that overflow or underflow to zero do not).
//
// Node ids in files may be sparse; they are compacted to 0..n-1 and the
// original labels are returned so results can be reported in file ids.
// load_diffusion_file builds the diffusion network straight from the rows,
// optionally only the edges among the nodes a snapshot lists.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/signed_graph.hpp"

namespace rid::graph {

struct LoadedGraph {
  SignedGraph graph;
  /// original_label[i] is the file's node id for library node i.
  std::vector<std::uint64_t> original_label;
};

/// One syntactically valid edge row, still in the file's raw (possibly
/// sparse) node ids.
struct ParsedEdge {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  int sign = 1;
  double weight = 1.0;
};

/// Splits a stream buffer (null reads as empty) into lines as std::getline
/// does, reading `block`-byte blocks with sgetn; a longer line doubles the
/// block. Shared by the loaders below, TextEdgeSource (columnar_stream.hpp)
/// and the snapshot parser (core/snapshot_io.hpp).
class LineReader {
 public:
  explicit LineReader(std::streambuf* in, std::size_t block = 1 << 20)
      : in_(in), buf_(block) {}
  /// Sets `line` to the next line without its '\n', valid until the next
  /// call, and returns its 1-based number; 0 at the end of the stream.
  std::size_t next(std::string_view& line);
  /// The bytes read but not yet returned; reads the first block if none.
  std::string_view peek();

 private:
  bool refill();
  std::streambuf* in_;
  std::vector<char> buf_;
  std::size_t begin_ = 0, end_ = 0, line_no_ = 0;
};

/// Parses one edge-list line. Returns false for blank/comment lines, true
/// with `out` filled for edge rows; throws util::InputError carrying
/// `line_no` on malformed rows. Shared by the whole-file loaders below and
/// the streaming converter (graph/columnar_stream.hpp) so both paths report
/// identical diagnostics.
bool parse_edge_line(std::string_view line, std::size_t line_no, bool weighted,
                     ParsedEdge& out);

/// Compacts raw node ids in order of appearance (sources before destinations
/// within each edge) and builds the normalized graph — the exact semantics of
/// load_snap/load_weighted, exposed so alternative edge producers (the
/// streaming converter's oracle, synthetic benches) can share them.
LoadedGraph assemble_edges(std::span<const ParsedEdge> edges);

/// Parses a SNAP-style signed edge list from a stream.
/// Throws util::InputError with the line number on malformed input.
LoadedGraph load_snap(std::istream& in);

/// Reads the file at `path` with load_snap(std::istream&).
LoadedGraph load_snap_file(const std::string& path);

/// Parses the 4-column weighted variant ("src dst sign weight").
LoadedGraph load_weighted(std::istream& in);
LoadedGraph load_weighted_file(const std::string& path);

/// make_diffusion_network(load_weighted_file(path).graph), same
/// original_label, built in one pass: each row is added as (dst, src).
LoadedGraph load_diffusion_file(const std::string& path);

/// load_diffusion_file(path) with only the edges among the listed node ids
/// built, which is all any detector reads of a snapshot's graph (the edges
/// between two infected nodes). Every row is still parsed, numbered and
/// counted, so node ids, original_label, num_nodes() and every InputError
/// are the full load's; a row reaches the builder only when both its
/// endpoints are listed, and only then is its weight converted (a dropped
/// row's weight is checked, not converted). Ids past the node count are
/// ignored; memory is O(labels + ids), whatever the largest id.
LoadedGraph load_diffusion_file(const std::string& path,
                                std::vector<std::uint64_t> ids);

/// Writes "src dst sign weight" rows (library node ids, '#' header).
void save_weighted(const SignedGraph& graph, std::ostream& out);
void save_weighted_file(const SignedGraph& graph, const std::string& path);

}  // namespace rid::graph
