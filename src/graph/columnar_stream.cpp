#include "graph/columnar_stream.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "graph/columnar.hpp"
#include "graph/label_compactor.hpp"
#include "util/errors.hpp"

#if !defined(_WIN32)
#define RID_HAVE_POSIX_TMP 1
#include <unistd.h>
#endif

namespace rid::graph {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw util::InputError("ridg: " + path + ": " + what);
}

/// One pre-normalization edge in final (post-reversal) orientation. `seq`
/// is the appearance index among kept (non-self-loop) edges — the tie-break
/// that makes bucket-local dedup pick the same winner as the builder's
/// (src, dst, insertion order) sort.
struct EdgeRecord {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t seq = 0;
  std::int8_t sign = 1;
  double weight = 0.0;
};

/// (final dst, final edge id): queued while the CSR edge columns are being
/// emitted, replayed in ascending-edge order per in-bucket to reproduce the
/// builder's counting sort for the in_edge section.
struct InRecord {
  NodeId dst = 0;
  EdgeId edge = 0;
};

/// Buffered, unlinked scratch file ($TMPDIR, else /tmp). Plain stdio keeps
/// the spilled bytes in page cache — not process RSS, unlike a dirty
/// MAP_SHARED mapping — which is what makes the converter's peak RSS flat.
class TempFile {
 public:
  TempFile() = default;
  ~TempFile() { reset(); }
  TempFile(TempFile&& other) noexcept
      : file_(std::exchange(other.file_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  TempFile& operator=(TempFile&& other) noexcept {
    if (this != &other) {
      reset();
      file_ = std::exchange(other.file_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  void append(const void* data, std::size_t bytes) {
    if (bytes == 0) return;
    if (file_ == nullptr) open_file();
    if (std::fwrite(data, 1, bytes, file_) != bytes)
      spill_fail("write failed (disk full?)");
    bytes_ += bytes;
  }

  std::uint64_t bytes() const noexcept { return bytes_; }

  void rewind_for_read() {
    if (file_ == nullptr) return;
    if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0)
      spill_fail("rewind failed");
  }

  /// Reads exactly `bytes` from the current position.
  void read(void* dst, std::size_t bytes) {
    if (bytes == 0) return;
    if (file_ == nullptr || std::fread(dst, 1, bytes, file_) != bytes)
      spill_fail("read failed");
  }

  void reset() noexcept {
    if (file_ != nullptr) std::fclose(file_);
    file_ = nullptr;
    bytes_ = 0;
  }

  /// Copies the spilled bytes to `out` at `section` in 1 MiB blocks, then
  /// releases the file.
  void drain_into(RidgWriter& out, std::size_t section) {
    out.pad_to(section);
    rewind_for_read();
    std::vector<unsigned char> block(std::size_t{1} << 20);
    for (std::uint64_t left = bytes_; left > 0;) {
      const auto step = static_cast<std::size_t>(
          std::min<std::uint64_t>(left, block.size()));
      read(block.data(), step);
      out.append(block.data(), step);
      left -= step;
    }
    reset();
  }

 private:
  void open_file() {
#if defined(RID_HAVE_POSIX_TMP)
    const char* dir = std::getenv("TMPDIR");
    if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
    std::string tmpl = std::string(dir) + "/ridnet-convert-XXXXXX";
    const int fd = ::mkstemp(tmpl.data());
    if (fd < 0) spill_fail("cannot create temp file");
    ::unlink(tmpl.c_str());  // vanishes with the process, crash included
    file_ = ::fdopen(fd, "w+b");
    if (file_ == nullptr) {
      ::close(fd);
      spill_fail("cannot create temp file");
    }
#else
    file_ = std::tmpfile();
    if (file_ == nullptr) spill_fail("cannot create temp file");
#endif
  }

  [[noreturn]] static void spill_fail(const std::string& what) {
    throw util::InputError("ridg: convert spill file: " + what);
  }

  std::FILE* file_ = nullptr;
  std::uint64_t bytes_ = 0;
};

/// Node-contiguous buckets of ≤ ~chunk pre-normalization edges. Bucket b
/// covers nodes [bounds[b], bounds[b+1]); a single node whose degree exceeds
/// the chunk gets a bucket of its own (its adjacency must sort together).
struct BucketMap {
  std::vector<NodeId> bounds{0};
  std::vector<std::uint16_t> of_node;

  std::size_t count() const noexcept { return bounds.size() - 1; }
};

BucketMap make_buckets(std::span<const std::uint32_t> degree,
                       std::uint64_t chunk) {
  BucketMap map;
  map.of_node.resize(degree.size());
  std::uint64_t in_bucket = 0;
  for (std::size_t v = 0; v < degree.size(); ++v) {
    if (in_bucket > 0 && in_bucket + degree[v] > chunk) {
      map.bounds.push_back(static_cast<NodeId>(v));
      in_bucket = 0;
    }
    map.of_node[v] = static_cast<std::uint16_t>(map.count());
    in_bucket += degree[v];
  }
  if (!degree.empty())
    map.bounds.push_back(static_cast<NodeId>(degree.size()));
  return map;
}

/// Soft ceiling on scatter buckets per direction; keeps the peak open-file
/// count well under typical RLIMIT_NOFILE while still bounding bucket loads
/// near chunk_edges for any graph size.
constexpr std::uint64_t kMaxBucketsPerSide = 128;

}  // namespace

TextEdgeSource::TextEdgeSource(std::string path, bool weighted)
    : path_(std::move(path)), weighted_(weighted) {
  rewind();  // fail fast on an unreadable path
}

void TextEdgeSource::rewind() {
  in_.close();
  in_.clear();
  in_.open(path_);
  if (!in_) throw util::InputError("graph_io: cannot open " + path_);
  lines_.emplace(in_.rdbuf());
}

bool TextEdgeSource::next(ParsedEdge& edge) {
  std::string_view line;
  while (const std::size_t line_no = lines_->next(line))
    if (parse_edge_line(line, line_no, weighted_, edge)) return true;
  return false;
}

LoadedGraph load_edge_source(EdgeSource& source) {
  source.rewind();
  std::vector<ParsedEdge> edges;
  ParsedEdge edge;
  while (source.next(edge)) edges.push_back(edge);
  return assemble_edges(edges);
}

StreamConvertResult stream_convert_to_columnar(
    EdgeSource& source, const std::string& out_path,
    const StreamConvertOptions& options) {
  static_assert(sizeof(double) == 8 && sizeof(NodeState) == 1);

  // --- pass 1: compact ids (appearance order) + pre-normalization degrees --
  LabelCompactor ids;
  std::vector<std::uint32_t> outdeg_pre;
  std::vector<std::uint32_t> indeg_pre;
  std::uint64_t kept_pre = 0;
  ParsedEdge edge;
  source.rewind();
  while (source.next(edge)) {
    // Source id before destination id, same as assemble_edges.
    const NodeId s = ids.insert(edge.src);
    const NodeId d = ids.insert(edge.dst);
    if (s == kInvalidNode || d == kInvalidNode)
      fail(out_path, "node count exceeds 32-bit id space");
    if (ids.size() > outdeg_pre.size()) {
      outdeg_pre.resize(ids.size());
      indeg_pre.resize(ids.size());
    }
    if (s == d) continue;  // builder drops self-loops; skip them early
    const NodeId fsrc = options.social ? s : d;
    const NodeId fdst = options.social ? d : s;
    ++outdeg_pre[fsrc];
    ++indeg_pre[fdst];
    ++kept_pre;
    if (kept_pre >= kInvalidEdge)
      fail(out_path, "edge count exceeds 32-bit id space");
  }
  const auto n = static_cast<NodeId>(ids.size());

  // Embedded snapshot: resolved now so a bad one fails before pass 2.
  std::vector<NodeState> states;
  if (options.make_states) states = options.make_states(n);
  if (!states.empty() && states.size() != n)
    fail(out_path, "states size does not match num_nodes");
  std::uint32_t flags = options.social ? 0u : kRidgFlagDiffusion;
  if (!states.empty()) flags |= kRidgFlagHasStates;

  const std::uint64_t chunk =
      std::max<std::uint64_t>({options.chunk_edges, 4096,
                               (kept_pre + kMaxBucketsPerSide - 1) /
                                   kMaxBucketsPerSide});
  const BucketMap out_map = make_buckets(outdeg_pre, chunk);
  const BucketMap in_map = make_buckets(indeg_pre, chunk);
  outdeg_pre = {};
  indeg_pre = {};

  // --- pass 2: scatter records into out-buckets ---------------------------
  std::vector<TempFile> out_buckets(out_map.count());
  std::uint64_t seq = 0;
  source.rewind();
  while (source.next(edge)) {
    const NodeId s = ids.find(edge.src);
    const NodeId d = ids.find(edge.dst);
    if (s == kInvalidNode || d == kInvalidNode)
      fail(out_path, "input changed between conversion passes");
    if (s == d) continue;
    EdgeRecord rec{};
    rec.src = options.social ? s : d;
    rec.dst = options.social ? d : s;
    rec.seq = static_cast<std::uint32_t>(seq++);
    rec.sign = static_cast<std::int8_t>(edge.sign);
    rec.weight = edge.weight;
    out_buckets[out_map.of_node[rec.src]].append(&rec, sizeof(rec));
  }
  if (seq != kept_pre) fail(out_path, "input changed between conversion passes");
  ids = {};

  // --- bucket sweep: normalize and emit the CSR edge columns --------------
  std::vector<std::uint64_t> out_offsets(std::size_t{n} + 1, 0);
  std::vector<std::uint64_t> in_offsets(std::size_t{n} + 1, 0);
  TempFile dst_col, src_col, sign_col, weight_col;
  std::vector<TempFile> in_buckets(in_map.count());
  std::uint64_t num_edges = 0;

  std::vector<EdgeRecord> records;
  std::vector<NodeId> dst_buf, src_buf;
  std::vector<std::int8_t> sign_buf;
  std::vector<double> weight_buf;
  for (std::size_t b = 0; b < out_map.count(); ++b) {
    TempFile& bucket = out_buckets[b];
    const auto count =
        static_cast<std::size_t>(bucket.bytes() / sizeof(EdgeRecord));
    records.resize(count);
    bucket.rewind_for_read();
    bucket.read(records.data(), count * sizeof(EdgeRecord));
    bucket.reset();
    std::sort(records.begin(), records.end(),
              [](const EdgeRecord& a, const EdgeRecord& c) {
                if (a.src != c.src) return a.src < c.src;
                if (a.dst != c.dst) return a.dst < c.dst;
                return a.seq < c.seq;
              });
    dst_buf.clear();
    src_buf.clear();
    sign_buf.clear();
    weight_buf.clear();
    NodeId prev_src = kInvalidNode;
    NodeId prev_dst = kInvalidNode;
    for (const EdgeRecord& rec : records) {
      if (rec.src == prev_src && rec.dst == prev_dst) continue;  // dedup
      prev_src = rec.src;
      prev_dst = rec.dst;
      const auto e = static_cast<EdgeId>(num_edges++);
      dst_buf.push_back(rec.dst);
      src_buf.push_back(rec.src);
      sign_buf.push_back(rec.sign);
      weight_buf.push_back(rec.weight);
      ++out_offsets[std::size_t{rec.src} + 1];
      ++in_offsets[std::size_t{rec.dst} + 1];
      const InRecord ir{rec.dst, e};
      in_buckets[in_map.of_node[rec.dst]].append(&ir, sizeof(ir));
    }
    dst_col.append(dst_buf.data(), dst_buf.size() * sizeof(NodeId));
    src_col.append(src_buf.data(), src_buf.size() * sizeof(NodeId));
    sign_col.append(sign_buf.data(), sign_buf.size());
    weight_col.append(weight_buf.data(), weight_buf.size() * sizeof(double));
  }
  records = {};
  dst_buf = {};
  src_buf = {};
  sign_buf = {};
  weight_buf = {};
  out_buckets.clear();

  for (std::size_t i = 0; i < n; ++i) out_offsets[i + 1] += out_offsets[i];
  for (std::size_t i = 0; i < n; ++i) in_offsets[i + 1] += in_offsets[i];

  // --- in_edge: replay per in-bucket (= the builder's counting sort) ------
  TempFile in_edge_col;
  std::vector<InRecord> in_records;
  std::vector<EdgeId> scatter;
  std::vector<std::uint64_t> cursor;
  for (std::size_t b = 0; b < in_map.count(); ++b) {
    const NodeId lo = in_map.bounds[b];
    const NodeId hi = in_map.bounds[b + 1];
    TempFile& bucket = in_buckets[b];
    const auto count =
        static_cast<std::size_t>(bucket.bytes() / sizeof(InRecord));
    in_records.resize(count);
    bucket.rewind_for_read();
    bucket.read(in_records.data(), count * sizeof(InRecord));
    bucket.reset();
    const std::uint64_t base = in_offsets[lo];
    scatter.resize(static_cast<std::size_t>(in_offsets[hi] - base));
    cursor.resize(std::size_t{hi} - lo);
    for (NodeId v = lo; v < hi; ++v)
      cursor[std::size_t{v} - lo] = in_offsets[v] - base;
    // Records arrive in ascending edge id — exactly the order the builder's
    // counting sort consumes them in.
    for (const InRecord& rec : in_records)
      scatter[cursor[std::size_t{rec.dst} - lo]++] = rec.edge;
    in_edge_col.append(scatter.data(), scatter.size() * sizeof(EdgeId));
  }
  in_records = {};
  scatter = {};
  cursor = {};
  in_buckets.clear();

  // --- emit: every section through the one .ridg writer -------------------
  RidgWriter out(out_path, n, num_edges, flags);
  const RidgLayout& layout = out.layout();
  out.append(out_offsets.data(), out_offsets.size() * sizeof(std::uint64_t));
  dst_col.drain_into(out, layout.dst);
  src_col.drain_into(out, layout.src);
  sign_col.drain_into(out, layout.sign);
  weight_col.drain_into(out, layout.weight);
  out.pad_to(layout.in_offsets);
  out.append(in_offsets.data(), in_offsets.size() * sizeof(std::uint64_t));
  in_edge_col.drain_into(out, layout.in_edge);
  out.pad_to(layout.state);
  out.append(states.data(), states.size());  // empty: kInactive zeros

  StreamConvertResult result;
  result.num_nodes = n;
  result.num_edges = num_edges;
  result.fingerprint = out.finish();
  return result;
}

}  // namespace rid::graph
