// Columnar on-disk graph storage (.ridg) with a zero-copy mmap view.
//
// The .ridg format is a fixed-width little-endian serialization of the exact
// CSR arrays SignedGraph holds in RAM, preceded by a 64-byte versioned,
// checksummed header (FNV-1a 64, same constants as core/checkpoint):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     8  magic "RIDGRPH1"
//        8     4  u32 format version (kRidgFormatVersion)
//       12     4  u32 flags (kRidgFlag*)
//       16     8  u64 num_nodes (n)
//       24     8  u64 num_edges (m)
//       32     8  u64 data fingerprint: FNV-1a64 over bytes [64, file size)
//       40     8  u64 header checksum: FNV-1a64 over bytes [0, 40)
//       48    16  zero padding
//
// followed by eight sections, each starting at an 8-byte-aligned offset
// (zero padding between sections), in this fixed order:
//
//   out_offsets  u64 x (n+1)   CSR out-edge offsets
//   dst          u32 x m       destination node per edge (CSR order)
//   src          u32 x m       source node per edge
//   sign         i8  x m       edge sign (+1 / -1)
//   weight       f64 x m       edge weight in [0, 1]
//   in_offsets   u64 x (n+1)   CSR in-edge offsets
//   in_edge      u32 x m       incoming EdgeIds per node
//   state        i8  x n       node-state snapshot column (NodeState values)
//
// The state column is always present; kRidgFlagHasStates says whether it
// carries a real snapshot or just kInactive filler. Identical graph input
// produces identical output bytes (no timestamps, no platform-dependent
// padding), which is what makes `ridnet_cli convert` deterministic.
//
// ColumnarGraphView mmaps a .ridg read-only and exposes the same accessor
// surface as SignedGraph (num_nodes, edge_src/dst/sign/weight, out_edge_ids,
// in_edge_ids, out_neighbors, degrees), so algo/ and core/ code templated
// over the graph type runs unchanged — and bit-identically — on either
// backing store. Loading is O(1): pages fault in on first touch.
// scripts/check_ridg.py re-implements this layout in stdlib Python; keep the
// two in sync (version-bump on any change).
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "graph/signed_graph.hpp"
#include "graph/types.hpp"
#include "util/fnv.hpp"
#include "util/mmap_buffer.hpp"

namespace rid::graph {

inline constexpr char kRidgMagic[8] = {'R', 'I', 'D', 'G', 'R', 'P', 'H', '1'};
inline constexpr std::uint32_t kRidgFormatVersion = 1;
inline constexpr std::size_t kRidgHeaderSize = 64;

/// Edges are oriented for diffusion (trusted -> truster), i.e. the graph was
/// already reversed() from the social orientation.
inline constexpr std::uint32_t kRidgFlagDiffusion = 1u << 0;
/// The state column carries a real snapshot (otherwise it is kInactive
/// filler and should be ignored).
inline constexpr std::uint32_t kRidgFlagHasStates = 1u << 1;

/// Byte offsets of every section for a given (n, m); all little-endian
/// fixed-width, so the layout is a pure function of the two counts.
struct RidgLayout {
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::size_t out_offsets = 0;  // u64 x (n+1)
  std::size_t dst = 0;          // u32 x m
  std::size_t src = 0;          // u32 x m
  std::size_t sign = 0;         // i8  x m
  std::size_t weight = 0;       // f64 x m
  std::size_t in_offsets = 0;   // u64 x (n+1)
  std::size_t in_edge = 0;      // u32 x m
  std::size_t state = 0;        // i8  x n
  std::size_t file_size = 0;

  static RidgLayout compute(std::uint64_t num_nodes, std::uint64_t num_edges);
};

/// The one .ridg emitter (write_columnar_file and the streaming converter):
/// opens `path`.tmp and writes the header; append()/pad_to() take the
/// sections in layout order, in host byte order, hashing them; finish()
/// pads to the file size, patches fingerprint then checksum and renames
/// onto `path`. Destroyed unfinished, it removes the temp file. Failures
/// throw util::InputError("ridg: <path>: ...").
class RidgWriter {
 public:
  RidgWriter(const std::string& path, std::uint64_t num_nodes,
             std::uint64_t num_edges, std::uint32_t flags);
  ~RidgWriter();
  RidgWriter(const RidgWriter&) = delete;
  RidgWriter& operator=(const RidgWriter&) = delete;

  const RidgLayout& layout() const noexcept { return layout_; }

  /// Zero-pads up to `section`, a RidgLayout offset not behind the bytes
  /// written so far.
  void pad_to(std::size_t section);
  void append(const void* data, std::size_t bytes);
  /// Completes the file and returns its data fingerprint.
  std::uint64_t finish();

 private:
  void discard() noexcept;  // close + remove the temp file if still open

  std::string path_;
  std::string tmp_;
  std::FILE* out_ = nullptr;
  RidgLayout layout_;
  unsigned char header_[kRidgHeaderSize] = {};
  std::size_t offset_ = kRidgHeaderSize;
  std::uint64_t hash_ = util::kFnv64Basis;
};

/// Serializes `graph` (plus an optional per-node snapshot) to `path` in
/// .ridg v1 format. `states` must be empty or exactly num_nodes long.
/// Output bytes are deterministic for identical input. Flags other than
/// kRidgFlagHasStates (set automatically) are passed through from `flags`.
/// Throws util::InputError on I/O failure or size mismatch.
void write_columnar_file(const SignedGraph& graph,
                         std::span<const NodeState> states,
                         const std::string& path, std::uint32_t flags = 0);

/// True when the file at `path` starts with the .ridg magic (cheap sniff for
/// CLI format dispatch; does not validate the rest of the header).
bool is_ridg_file(const std::string& path);

/// Read-only zero-copy view over a mmap-ed .ridg file. Mirrors the
/// SignedGraph accessor surface; spans and EdgeIdRanges alias the mapping
/// and stay valid for the lifetime of the view (moves included).
class ColumnarGraphView {
 public:
  struct OpenOptions {
    /// Additionally verify the data fingerprint and structural invariants
    /// (monotone offsets, ids in range, each edge inside its source's CSR
    /// run, signs in {-1,+1}, weights in [0, 1], valid states).
    /// Header magic/version/size/checksum are always verified.
    bool verify_data = false;
  };

  ColumnarGraphView() = default;

  /// Maps `path`. Throws util::InputError on any validation failure.
  static ColumnarGraphView open(const std::string& path,
                                const OpenOptions& options);
  static ColumnarGraphView open(const std::string& path) {
    return open(path, OpenOptions{});
  }

  NodeId num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return num_edges_; }
  std::uint32_t flags() const noexcept { return flags_; }
  bool has_states() const noexcept {
    return (flags_ & kRidgFlagHasStates) != 0;
  }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  // --- per-edge accessors -------------------------------------------------
  NodeId edge_src(EdgeId e) const noexcept { return src_[e]; }
  NodeId edge_dst(EdgeId e) const noexcept { return dst_[e]; }
  Sign edge_sign(EdgeId e) const noexcept { return sign_[e]; }
  double edge_weight(EdgeId e) const noexcept { return weight_[e]; }

  // --- adjacency ----------------------------------------------------------
  EdgeIdRange out_edge_ids(NodeId u) const noexcept {
    return {static_cast<EdgeId>(out_offsets_[u]),
            static_cast<EdgeId>(out_offsets_[u + 1])};
  }
  std::span<const EdgeId> in_edge_ids(NodeId v) const noexcept {
    return in_edge_.subspan(in_offsets_[v], in_offsets_[v + 1] -
                                                in_offsets_[v]);
  }
  std::size_t out_degree(NodeId u) const noexcept {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  std::size_t in_degree(NodeId v) const noexcept {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  std::span<const NodeId> out_neighbors(NodeId u) const noexcept {
    return dst_.subspan(out_offsets_[u],
                        out_offsets_[u + 1] - out_offsets_[u]);
  }

  /// The embedded snapshot column (size num_nodes; meaningful only when
  /// has_states()).
  std::span<const NodeState> states() const noexcept { return state_; }

  // --- raw CSR columns ----------------------------------------------------
  // Same accessor names as SignedGraph (offsets are u64 on disk, EdgeId in
  // RAM — callers copy/convert offsets, alias the rest).
  std::span<const std::uint64_t> csr_out_offsets() const noexcept {
    return out_offsets_;
  }
  std::span<const NodeId> csr_srcs() const noexcept { return src_; }
  std::span<const NodeId> csr_dsts() const noexcept { return dst_; }
  std::span<const Sign> csr_signs() const noexcept { return sign_; }
  std::span<const double> csr_weights() const noexcept { return weight_; }
  std::span<const std::uint64_t> csr_in_offsets() const noexcept {
    return in_offsets_;
  }
  std::span<const EdgeId> csr_in_edges() const noexcept { return in_edge_; }

  /// Drops resident pages of the whole mapping (re-faulted from the file on
  /// next access). Called before forking sharded workers so children do not
  /// inherit O(graph) resident pages.
  void advise_dontneed() const noexcept { file_.advise_dontneed(); }

  /// Drops every per-edge column (dst/src/sign/weight + the in_edge
  /// permutation) but leaves the hot per-node structures (offsets, states)
  /// resident. Extraction on a file above core::kResidentCapBytes calls
  /// this periodically, so the pages its EdgeId probes fault in do not
  /// accumulate to O(file) resident set.
  void drop_all_edge_pages() const noexcept;

  /// Bytes of the underlying file (0 when default-constructed).
  std::size_t file_bytes() const noexcept { return file_.size(); }

 private:
  util::MappedFile file_;
  NodeId num_nodes_ = 0;
  std::size_t num_edges_ = 0;
  std::uint32_t flags_ = 0;
  std::uint64_t fingerprint_ = 0;
  // Typed spans into the mapping (little-endian host required; open()
  // enforces this).
  std::span<const std::uint64_t> out_offsets_;  // n+1
  std::span<const NodeId> dst_;                 // m
  std::span<const NodeId> src_;                 // m
  std::span<const Sign> sign_;                  // m
  std::span<const double> weight_;              // m
  std::span<const std::uint64_t> in_offsets_;   // n+1
  std::span<const EdgeId> in_edge_;             // m
  std::span<const NodeState> state_;            // n
};

/// Materializes the view back into an in-RAM SignedGraph (parse-free: a
/// straight copy of the columns). Used by code paths that genuinely need
/// the owning type (e.g. reversed()).
SignedGraph materialize(const ColumnarGraphView& view);

}  // namespace rid::graph
