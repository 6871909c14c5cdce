#include "graph/columnar.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "util/errors.hpp"
#include "util/fnv.hpp"

namespace rid::graph {

namespace {

constexpr std::size_t align8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

inline void store_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline void store_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

inline std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw util::InputError("ridg: " + path + ": " + what);
}

}  // namespace

RidgLayout RidgLayout::compute(std::uint64_t num_nodes,
                               std::uint64_t num_edges) {
  RidgLayout l;
  l.num_nodes = num_nodes;
  l.num_edges = num_edges;
  const auto n = static_cast<std::size_t>(num_nodes);
  const auto m = static_cast<std::size_t>(num_edges);
  std::size_t off = kRidgHeaderSize;
  l.out_offsets = off;
  off += 8 * (n + 1);
  l.dst = align8(off);
  off = l.dst + 4 * m;
  l.src = align8(off);
  off = l.src + 4 * m;
  l.sign = align8(off);
  off = l.sign + m;
  l.weight = align8(off);
  off = l.weight + 8 * m;
  l.in_offsets = align8(off);
  off = l.in_offsets + 8 * (n + 1);
  l.in_edge = align8(off);
  off = l.in_edge + 4 * m;
  l.state = align8(off);
  l.file_size = l.state + n;
  return l;
}

RidgWriter::RidgWriter(const std::string& path, std::uint64_t num_nodes,
                       std::uint64_t num_edges, std::uint32_t flags)
    : path_(path),
      tmp_(path + ".tmp"),
      layout_(RidgLayout::compute(num_nodes, num_edges)) {
  static_assert(std::endian::native == std::endian::little,
                "RidgWriter writes host-order columns; port before enabling "
                "big-endian");
  std::memcpy(header_, kRidgMagic, sizeof(kRidgMagic));
  store_u32(header_ + 8, kRidgFormatVersion);
  store_u32(header_ + 12, flags);
  store_u64(header_ + 16, num_nodes);
  store_u64(header_ + 24, num_edges);
  // Fingerprint (32) and checksum (40) are patched in by finish().
  out_ = std::fopen(tmp_.c_str(), "wb");
  if (out_ == nullptr) fail(path_, "cannot open for writing");
  if (std::fwrite(header_, 1, sizeof(header_), out_) != sizeof(header_)) {
    discard();  // no destructor runs for a throwing constructor
    fail(path_, "write failed");
  }
}

RidgWriter::~RidgWriter() { discard(); }

void RidgWriter::discard() noexcept {
  if (out_ == nullptr) return;
  std::fclose(std::exchange(out_, nullptr));
  std::remove(tmp_.c_str());
}

void RidgWriter::append(const void* data, std::size_t bytes) {
  if (bytes == 0) return;
  if (std::fwrite(data, 1, bytes, out_) != bytes) fail(path_, "write failed");
  hash_ = util::fnv1a64(data, bytes, hash_);
  offset_ += bytes;
}

void RidgWriter::pad_to(std::size_t section) {
  static constexpr unsigned char kZeros[4096] = {};
  if (offset_ > section)
    fail(path_, "streamed section sizes disagree with layout (bug)");
  while (offset_ < section)
    append(kZeros, std::min(sizeof(kZeros), section - offset_));
}

std::uint64_t RidgWriter::finish() {
  pad_to(layout_.file_size);
  store_u64(header_ + 32, hash_);
  store_u64(header_ + 40, util::fnv1a64(header_, 40));
  const bool patched = std::fseek(out_, 32, SEEK_SET) == 0 &&
                       std::fwrite(header_ + 32, 1, 16, out_) == 16;
  const bool closed = std::fclose(std::exchange(out_, nullptr)) == 0;
  if (!patched || !closed) {
    std::remove(tmp_.c_str());
    fail(path_, "write failed");
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    fail(path_, "rename failed");
  }
  return hash_;
}

void write_columnar_file(const SignedGraph& graph,
                         std::span<const NodeState> states,
                         const std::string& path, std::uint32_t flags) {
  const std::size_t n = graph.num_nodes();
  if (!states.empty() && states.size() != n)
    fail(path, "states size does not match num_nodes");
  if (!states.empty()) flags |= kRidgFlagHasStates;

  RidgWriter out(path, n, graph.num_edges(), flags);
  const RidgLayout& l = out.layout();
  // Offsets are EdgeId in RAM and u64 on disk; every other column is
  // written straight from the graph's spans.
  const auto append_offsets = [&out](std::span<const EdgeId> offsets) {
    std::uint64_t wide[4096];
    for (std::size_t i = 0; i < offsets.size(); i += std::size(wide)) {
      const std::size_t step = std::min(std::size(wide), offsets.size() - i);
      std::copy_n(offsets.begin() + i, step, wide);
      out.append(wide, step * sizeof(std::uint64_t));
    }
  };
  const auto append_column = [&out](std::size_t section, auto column) {
    out.pad_to(section);
    out.append(column.data(), column.size_bytes());
  };
  append_offsets(graph.csr_out_offsets());
  append_column(l.dst, graph.csr_dsts());
  append_column(l.src, graph.csr_srcs());
  append_column(l.sign, graph.csr_signs());
  append_column(l.weight, graph.csr_weights());
  out.pad_to(l.in_offsets);
  append_offsets(graph.csr_in_offsets());
  append_column(l.in_edge, graph.csr_in_edges());
  append_column(l.state, states);  // empty: finish() writes kInactive zeros
  out.finish();
}

bool is_ridg_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kRidgMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kRidgMagic, sizeof(magic)) == 0;
}

ColumnarGraphView ColumnarGraphView::open(const std::string& path,
                                          const OpenOptions& options) {
  static_assert(std::endian::native == std::endian::little,
                "ColumnarGraphView's zero-copy spans require a little-endian "
                "host; port write/load loops before enabling big-endian");
  static_assert(sizeof(Sign) == 1 && sizeof(NodeState) == 1);
  static_assert(sizeof(double) == 8);

  ColumnarGraphView view;
  view.file_ = util::MappedFile::open(path);
  const auto* base = reinterpret_cast<const unsigned char*>(view.file_.data());
  const std::size_t size = view.file_.size();

  if (size < kRidgHeaderSize) fail(path, "file shorter than header");
  if (std::memcmp(base, kRidgMagic, sizeof(kRidgMagic)) != 0)
    fail(path, "bad magic (not a .ridg file)");
  const std::uint32_t version = load_u32(base + 8);
  if (version != kRidgFormatVersion)
    fail(path, "unsupported format version " + std::to_string(version));
  if (load_u64(base + 40) != util::fnv1a64(base, 40))
    fail(path, "header checksum mismatch");

  const std::uint64_t n = load_u64(base + 16);
  const std::uint64_t m = load_u64(base + 24);
  if (n >= kInvalidNode || m >= kInvalidEdge)
    fail(path, "node/edge count exceeds 32-bit id space");
  const RidgLayout l = RidgLayout::compute(n, m);
  if (size != l.file_size)
    fail(path, "file size " + std::to_string(size) + " != expected " +
                   std::to_string(l.file_size) + " (truncated or corrupt)");

  view.num_nodes_ = static_cast<NodeId>(n);
  view.num_edges_ = static_cast<std::size_t>(m);
  view.flags_ = load_u32(base + 12);
  view.fingerprint_ = load_u64(base + 32);

  view.out_offsets_ = {
      reinterpret_cast<const std::uint64_t*>(base + l.out_offsets),
      static_cast<std::size_t>(n) + 1};
  view.dst_ = {reinterpret_cast<const NodeId*>(base + l.dst),
               static_cast<std::size_t>(m)};
  view.src_ = {reinterpret_cast<const NodeId*>(base + l.src),
               static_cast<std::size_t>(m)};
  view.sign_ = {reinterpret_cast<const Sign*>(base + l.sign),
                static_cast<std::size_t>(m)};
  view.weight_ = {reinterpret_cast<const double*>(base + l.weight),
                  static_cast<std::size_t>(m)};
  view.in_offsets_ = {
      reinterpret_cast<const std::uint64_t*>(base + l.in_offsets),
      static_cast<std::size_t>(n) + 1};
  view.in_edge_ = {reinterpret_cast<const EdgeId*>(base + l.in_edge),
                   static_cast<std::size_t>(m)};
  view.state_ = {reinterpret_cast<const NodeState*>(base + l.state),
                 static_cast<std::size_t>(n)};

  if (options.verify_data) {
    if (view.fingerprint_ !=
        util::fnv1a64(base + kRidgHeaderSize, size - kRidgHeaderSize))
      fail(path, "data fingerprint mismatch");
    auto check_offsets = [&](std::span<const std::uint64_t> off,
                             const char* name) {
      if (off[0] != 0) fail(path, std::string(name) + "[0] != 0");
      for (std::size_t i = 0; i < off.size() - 1; ++i)
        if (off[i] > off[i + 1])
          fail(path, std::string(name) + " not monotone");
      if (off[off.size() - 1] != m)
        fail(path, std::string(name) + " terminal != num_edges");
    };
    check_offsets(view.out_offsets_, "out_offsets");
    check_offsets(view.in_offsets_, "in_offsets");
    for (std::size_t e = 0; e < m; ++e) {
      const NodeId u = view.src_[e];
      if (u >= n || view.dst_[e] >= n) fail(path, "edge endpoint out of range");
      if (e < view.out_offsets_[u] || e >= view.out_offsets_[u + 1])
        fail(path, "edge outside its source's CSR run");
      if (view.sign_[e] != Sign::kPositive && view.sign_[e] != Sign::kNegative)
        fail(path, "invalid sign byte");
      if (!(view.weight_[e] >= 0.0 && view.weight_[e] <= 1.0))
        fail(path, "edge weight outside [0, 1]");
      if (view.in_edge_[e] >= m) fail(path, "in_edge id out of range");
    }
    for (std::size_t v = 0; v < n; ++v) {
      const NodeState s = view.state_[v];
      if (s != NodeState::kNegative && s != NodeState::kInactive &&
          s != NodeState::kPositive && s != NodeState::kUnknown)
        fail(path, "invalid state byte");
    }
  }
  return view;
}

void ColumnarGraphView::drop_all_edge_pages() const noexcept {
  const auto offset = [&](const void* p) {
    return static_cast<std::size_t>(static_cast<const std::byte*>(p) -
                                    file_.data());
  };
  // dst, src, sign and weight are adjacent sections; in_edge follows
  // in_offsets.
  const std::size_t first = offset(dst_.data());
  file_.advise_dontneed(first, offset(weight_.data() + weight_.size()) - first);
  file_.advise_dontneed(offset(in_edge_.data()), in_edge_.size_bytes());
}

SignedGraph materialize(const ColumnarGraphView& view) {
  SignedGraphBuilder builder(view.num_nodes());
  // CSR order is already sorted (by src, then dst), so re-adding in edge-id
  // order rebuilds bit-identical arrays.
  for (EdgeId e = 0; e < view.num_edges(); ++e)
    builder.add_edge(view.edge_src(e), view.edge_dst(e), view.edge_sign(e),
                     view.edge_weight(e));
  // No normalization: the file already holds a normalized graph, and
  // dropping anything here would break bit-identity with the source.
  return builder.build({.drop_self_loops = false,
                        .dedup_parallel_edges = false});
}

}  // namespace rid::graph
