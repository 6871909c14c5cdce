#include "graph/graph_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>

#include "graph/label_compactor.hpp"
#include "util/errors.hpp"
#include "util/trace.hpp"

namespace rid::graph {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw util::InputError("graph_io: line " + std::to_string(line_no) + ": " +
                         what);
}

bool is_separator(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// The next separator-delimited token at or after `pos`; empty at the end.
std::string_view next_token(std::string_view line, std::size_t& pos) {
  while (pos < line.size() && is_separator(line[pos])) ++pos;
  const std::size_t start = pos;
  while (pos < line.size() && !is_separator(line[pos])) ++pos;
  return line.substr(start, pos - start);
}

template <typename T>
T parse_integer(std::string_view token, std::size_t line_no) {
  T value{};
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (res.ec != std::errc{} || res.ptr != token.data() + token.size())
    fail(line_no, "expected an integer, got '" + std::string(token) + "'");
  return value;
}

/// strtod's grammar in the C locale, parsed by from_chars. strtod also takes
/// leading whitespace (past the separators, only \n \v \f can start a
/// token), a '+' and a "0x" prefix, which from_chars does not; those are
/// peeled off here. Results that overflow or underflow to zero are
/// rejected, as strtod flags them; subnormal results load.
double parse_weight(std::string_view token, std::size_t line_no) {
  std::string_view digits = token;
  while (!digits.empty() && (digits.front() == '\n' ||
                             digits.front() == '\v' || digits.front() == '\f'))
    digits.remove_prefix(1);
  bool negative = false;
  if (!digits.empty() && (digits.front() == '+' || digits.front() == '-')) {
    negative = digits.front() == '-';
    digits.remove_prefix(1);
  }
  auto format = std::chars_format::general;
  if (digits.size() >= 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    format = std::chars_format::hex;
    digits.remove_prefix(2);
  }
  // from_chars takes a '-' of its own, so a second sign must be refused
  // here. Its hex parser also reads "p+-1" as "p-1".
  bool ok = !digits.empty() && digits.front() != '+' && digits.front() != '-';
  if (ok && format == std::chars_format::hex)
    ok = (std::isxdigit(static_cast<unsigned char>(digits.front())) ||
          digits.front() == '.') &&
         digits.find("+-") == std::string_view::npos;
  double value = 0.0;
  if (ok) {
    const char* end = digits.data() + digits.size();
    const auto res = std::from_chars(digits.data(), end, value, format);
    ok = res.ec == std::errc{} && res.ptr == end;
  }
  if (!ok) fail(line_no, "expected a number, got '" + std::string(token) + "'");
  return negative ? -value : value;
}

/// One pass over a plain row: each column is one from_chars call ending at
/// a separator or the line end, the sign is +1 or -1 and the weight in
/// [0, 1]. False leaves the line to the tokenizing parser below.
bool parse_plain_row(std::string_view line, bool weighted, ParsedEdge& out) {
  const char* p = line.data();
  const char* const end = p + line.size();
  const auto number = [&](auto& value, auto... format) {
    while (p != end && is_separator(*p)) ++p;
    const auto res = std::from_chars(p, end, value, format...);
    p = res.ptr;
    return res.ec == std::errc{} && (p == end || is_separator(*p));
  };
  out.weight = 1.0;
  return number(out.src) && number(out.dst) && number(out.sign) &&
         (out.sign == 1 || out.sign == -1) &&
         (!weighted || (number(out.weight, std::chars_format::general) &&
                        out.weight >= 0.0 && out.weight <= 1.0));
}

/// Streams parsed rows into the builder's columns, numbering labels in
/// order of first appearance (sources before destinations within a row).
/// With `diffusion`, row (src, dst) becomes the edge dst -> src. With a
/// `keep` list (sorted, unique ids), only edges leaving a listed id reach
/// the builder; every row is still numbered and counted.
class EdgeAssembler {
 public:
  explicit EdgeAssembler(bool diffusion = false,
                         const std::vector<std::uint64_t>* keep = nullptr)
      : diffusion_(diffusion), keep_(keep) {}
  void reserve(std::size_t rows) { builder_.reserve(rows); }

  void add(const ParsedEdge& e, std::size_t line_no) {
    // Rows come grouped by source: skip the probe for the last row's.
    if (src_ == kInvalidNode || e.src != src_label_) {
      src_ = ids_.insert(e.src);
      src_label_ = e.src;
    }
    const NodeId dst = ids_.insert(e.dst);
    if (src_ == kInvalidNode || dst == kInvalidNode)
      fail(line_no, "node count exceeds 32-bit id space");
    if (++rows_ >= kInvalidEdge)
      fail(line_no, "edge count exceeds 32-bit id space");
    if (ids_.size() > builder_.num_nodes()) {
      // New ids come in order: one merge against the sorted list marks them.
      if (keep_)
        for (NodeId id = builder_.num_nodes(); id < ids_.size(); ++id) {
          const bool listed = next_ < keep_->size() && (*keep_)[next_] == id;
          next_ += listed;
          listed_.push_back(listed);
        }
      builder_.ensure_node(static_cast<NodeId>(ids_.size() - 1));
    }
    const NodeId from = diffusion_ ? dst : src_;
    if (keep_ && !listed_[from]) return;
    builder_.add_edge(from, diffusion_ ? src_ : dst, sign_from_value(e.sign),
                      e.weight);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t kept() const noexcept { return builder_.num_edges(); }

  LoadedGraph finish() {
    LoadedGraph out;
    {
      util::trace::TraceSpan span("csr_build");
      out.graph = builder_.build();
    }
    out.original_label = std::move(ids_).release_labels();
    return out;
  }

 private:
  bool diffusion_;
  const std::vector<std::uint64_t>* keep_;
  std::size_t next_ = 0;       // first entry of *keep_ not yet assigned
  std::vector<bool> listed_;   // per id: listed in *keep_
  LabelCompactor ids_;
  SignedGraphBuilder builder_{0};
  std::size_t rows_ = 0;
  NodeId src_ = kInvalidNode;  // id of src_label_, the last row's source
  std::uint64_t src_label_ = 0;
};

/// Reserves the rows `file_bytes` holds at the first block's bytes per
/// line, plus an eighth (unwritten capacity is never resident).
LoadedGraph load_impl(std::istream& in, bool weighted, bool diffusion = false,
                      std::uintmax_t file_bytes = 0,
                      const std::vector<std::uint64_t>* keep = nullptr) {
  util::trace::TraceSpan span("load_text");
  EdgeAssembler assembler(diffusion, keep);
  LineReader reader(in ? in.rdbuf() : nullptr);
  const std::string_view head = reader.peek();
  if (const auto lines = std::count(head.begin(), head.end(), '\n'))
    assembler.reserve(std::min<std::uintmax_t>(
        file_bytes * lines / head.size() * 9 / 8, kInvalidEdge));
  std::string_view line;
  ParsedEdge e;
  while (const std::size_t line_no = reader.next(line))
    if (parse_edge_line(line, line_no, weighted, e)) assembler.add(e, line_no);
  span.tag("rows", static_cast<std::int64_t>(assembler.rows()));
  if (keep) span.tag("kept", static_cast<std::int64_t>(assembler.kept()));
  LoadedGraph out = assembler.finish();
  span.tag("nodes", static_cast<std::int64_t>(out.graph.num_nodes()));
  return out;
}

LoadedGraph load_file(const std::string& path, bool weighted, bool diffusion,
                      const std::vector<std::uint64_t>* keep = nullptr) {
  std::ifstream in(path);
  if (!in) throw util::InputError("graph_io: cannot open " + path);
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  return load_impl(in, weighted, diffusion, ec ? 0 : bytes, keep);
}

}  // namespace

/// Moves the partial line to the front, doubling a block it fills, and
/// reads behind it; false at the end of the stream.
bool LineReader::refill() {
  std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
  if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
  const auto room = static_cast<std::streamsize>(buf_.size() - end_);
  const std::streamsize got = in_ ? in_->sgetn(buf_.data() + end_, room) : 0;
  if (got <= 0) in_ = nullptr;  // sticky, like eofbit
  else end_ += static_cast<std::size_t>(got);
  return got > 0;
}

std::string_view LineReader::peek() {
  if (begin_ == end_) refill();
  return {buf_.data() + begin_, end_ - begin_};
}

std::size_t LineReader::next(std::string_view& line) {
  std::size_t scan = begin_;  // [begin_, scan) holds no '\n'
  std::size_t at;
  while ((at = std::string_view(buf_.data(), end_).find('\n', scan)) ==
         std::string_view::npos) {
    scan = end_ - begin_;  // refill() moves the scanned bytes to [0, scan)
    if (refill()) continue;
    if (begin_ == end_) return 0;
    buf_[end_++] = '\n';  // the last line lacks one; refill() left room
  }
  line = {buf_.data() + begin_, at - begin_};
  begin_ = at + 1;
  return ++line_no_;
}

bool parse_edge_line(std::string_view line, std::size_t line_no, bool weighted,
                     ParsedEdge& out) {
  if (parse_plain_row(line, weighted, out)) return true;
  const std::size_t expected = weighted ? 4 : 3;
  std::string_view tokens[4];
  std::size_t count = 0;
  std::size_t pos = 0;
  while (count < expected && !(tokens[count] = next_token(line, pos)).empty())
    ++count;
  if (count == 0 || tokens[0].front() == '#' || tokens[0].front() == '%')
    return false;
  if (count < expected)
    fail(line_no, "expected " + std::to_string(expected) + " columns, got " +
                      std::to_string(count));
  out.src = parse_integer<std::uint64_t>(tokens[0], line_no);
  out.dst = parse_integer<std::uint64_t>(tokens[1], line_no);
  out.sign = parse_integer<int>(tokens[2], line_no);
  if (out.sign != 1 && out.sign != -1)
    fail(line_no, "sign must be +1 or -1, got " + std::to_string(out.sign));
  out.weight = weighted ? parse_weight(tokens[3], line_no) : 1.0;
  if (!(out.weight >= 0.0 && out.weight <= 1.0))
    fail(line_no, "weight outside [0, 1]");
  return true;
}

LoadedGraph assemble_edges(std::span<const ParsedEdge> edges) {
  EdgeAssembler assembler;
  assembler.reserve(edges.size());
  // Errors name the 1-based row as the line.
  for (std::size_t i = 0; i < edges.size(); ++i) assembler.add(edges[i], i + 1);
  return assembler.finish();
}

LoadedGraph load_snap(std::istream& in) { return load_impl(in, false); }

LoadedGraph load_weighted(std::istream& in) { return load_impl(in, true); }

LoadedGraph load_snap_file(const std::string& path) {
  return load_file(path, false, false);
}

LoadedGraph load_weighted_file(const std::string& path) {
  return load_file(path, true, false);
}

LoadedGraph load_diffusion_file(const std::string& path) {
  return load_file(path, true, true);
}

LoadedGraph load_diffusion_file(const std::string& path,
                                std::vector<std::uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return load_file(path, true, true, &ids);
}

void save_weighted(const SignedGraph& graph, std::ostream& out) {
  out << "# src dst sign weight\n";
  // Shortest round-trip formatting: a load of the saved file reproduces
  // every weight bit-for-bit (ostream's default 6 significant digits would
  // not).
  char buf[64];
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), graph.edge_weight(e));
    out << graph.edge_src(e) << '\t' << graph.edge_dst(e) << '\t'
        << sign_value(graph.edge_sign(e)) << '\t'
        << std::string_view(buf, static_cast<std::size_t>(res.ptr - buf))
        << '\n';
  }
}

void save_weighted_file(const SignedGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw util::InputError("graph_io: cannot open " + path);
  save_weighted(graph, out);
}

}  // namespace rid::graph
