// Streaming text → .ridg conversion with bounded memory.
//
// write_columnar_file (columnar.cpp) serializes an in-RAM SignedGraph, so
// converting a text edge list that way holds the whole parsed graph in RAM.
// The streaming converter here produces the *same bytes* — identical data
// fingerprint, cmp-identical file — while holding only O(nodes + chunk):
//
//   pass 1  read the edge list once: assign compact node ids in appearance
//           order (exactly graph_io's assemble_edges order) and count
//           pre-normalization out/in degrees per node, which fixes the
//           boundaries of node-contiguous "buckets" of ≤ chunk_edges edges.
//   pass 2  read the edge list again: scatter each surviving edge record
//           (final orientation applied — diffusion reversal is a src/dst
//           swap done on the fly) into its out-bucket's unlinked temp file.
//   sweep   load one bucket at a time, sort by (src, dst, first-appearance),
//           drop self-loops / duplicate (src, dst) pairs exactly like
//           SignedGraphBuilder::build's normalization sweep, and append the
//           final CSR edge columns to per-section temp files; incoming-edge
//           records are re-scattered into in-buckets and resolved the same
//           way (matching the builder's counting sort).
//   emit    hand the sections to RidgWriter (columnar.hpp), the emitter
//           the in-RAM writer uses too: header, padding, fingerprint and
//           the atomic tmp+rename live there once.
//
// Temp files live in $TMPDIR (else /tmp), are unlinked at creation, and use
// plain buffered stdio; their pages are page cache, not process RSS, which
// is what keeps the converter's peak RSS flat while the output grows to
// multiples of RAM. The normalization equivalence (bucket-local sort+dedup ==
// whole-graph builder sort+dedup) holds because buckets partition edges by
// final source node, and the builder's order is (src, dst, insertion index).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph_io.hpp"
#include "graph/types.hpp"

namespace rid::graph {

/// A rewindable producer of edge rows. The converter reads the sequence
/// twice; both reads must yield the same rows in the same order.
class EdgeSource {
 public:
  virtual ~EdgeSource() = default;
  /// Restarts the sequence from the first edge.
  virtual void rewind() = 0;
  /// Produces the next edge; false at end of sequence. May throw
  /// util::InputError (with a line number for text-backed sources).
  virtual bool next(ParsedEdge& edge) = 0;
};

/// EdgeSource over a weighted ("src dst sign weight") or SNAP ("src dst
/// sign") text file; reading and parsing are graph_io's LineReader and
/// parse_edge_line, so malformed input fails with byte-identical errors to
/// load_weighted_file.
class TextEdgeSource final : public EdgeSource {
 public:
  explicit TextEdgeSource(std::string path, bool weighted = true);
  void rewind() override;
  bool next(ParsedEdge& edge) override;

 private:
  std::string path_;
  bool weighted_;
  std::ifstream in_;
  std::optional<LineReader> lines_;
};

struct StreamConvertOptions {
  /// Keep the social orientation (trust edges as written). Default is the
  /// diffusion orientation: every (src, dst) row is stored as (dst, src),
  /// matching make_diffusion_network on the in-RAM path, and the header
  /// carries kRidgFlagDiffusion. kRidgFlagHasStates is set when make_states
  /// returns a non-empty vector.
  bool social = false;
  /// Scatter-bucket size in edges; peak RSS is O(nodes + chunk_edges).
  /// Values below 4096 are clamped up (pathological bucket counts).
  std::size_t chunk_edges = std::size_t{1} << 20;
  /// Called once, after pass 1, with the final node count; returns the
  /// embedded state column (empty = no snapshot). Lets the CLI range-check
  /// --snapshot entries without graph/ depending on core/.
  std::function<std::vector<NodeState>(NodeId)> make_states;
};

struct StreamConvertResult {
  NodeId num_nodes = 0;
  std::uint64_t num_edges = 0;  // post-normalization (kept) edges
  std::uint64_t fingerprint = 0;
};

/// Converts `source` to a .ridg file at `out_path`. Output bytes are
/// identical to write_columnar_file over the in-RAM pipeline
/// (assemble_edges → reversed() unless options.social → embedded states).
/// Throws util::InputError on malformed input or I/O failure.
StreamConvertResult stream_convert_to_columnar(
    EdgeSource& source, const std::string& out_path,
    const StreamConvertOptions& options);

/// Collects every edge of `source` and assembles the in-RAM graph with
/// graph_io semantics — the oracle the streaming converter is tested
/// against, and the slow path for callers that need a SignedGraph.
LoadedGraph load_edge_source(EdgeSource& source);

}  // namespace rid::graph
