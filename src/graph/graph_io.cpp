#include "graph/graph_io.hpp"

#include <algorithm>
#include <bit>
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

// The word paths read the first byte as the lowest: little-endian only.
constexpr bool kWords = std::endian::native == std::endian::little;

std::uint64_t load_word(const char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Non-zero in each byte of `word` that is not an ASCII digit. Only a
/// flagged byte (>= 0xfa) carries out of the + 0x06, so the first flagged
/// byte is always the first non-digit.
std::uint64_t non_digits(std::uint64_t word) {
  constexpr std::uint64_t kHigh = 0xF0F0F0F0F0F0F0F0;
  return ((word & kHigh) | ((word + 0x0606060606060606) & kHigh) >> 4) ^
         0x3333333333333333;
}

/// A label of 1-7 digits and the separator after it, read from the eight
/// bytes at `p`: its value, with `p` moved to the separator. False, `p`
/// unmoved, for anything else (from_chars takes it then).
bool label_word(const char*& p, std::uint64_t& value) {
  const std::uint64_t word = load_word(p);
  const int digits = std::countr_zero(non_digits(word)) / 8;
  if (digits == 0 || digits == 8 || !is_separator(p[digits])) return false;
  // Zero bytes ahead of the digits, then fold pairs, quads and octets.
  std::uint64_t v = word << (64 - 8 * digits);
  v = (v & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8;
  v = (v & 0x00FF00FF00FF00FF) * 6553601 >> 16;
  value = (v & 0x0000FFFF0000FFFF) * 42949672960001 >> 32;
  p += digits;
  return true;
}

/// True when the token [p, end) is "0", "1" or "0." and digits, 64 bytes
/// at most: strtod takes it, it lies in [0, 1] and cannot underflow. The
/// digits are read eight to a word, the last word ending at `end`; the
/// bytes of the row before them in that word are ASCII (no carry leaves
/// them), so their flags are shifted out.
bool plain_weight(const char* line, const char* p, const char* end) {
  if (end - p == 1) return *p == '0' || *p == '1';
  if (!kWords || end - p < 2 || end - p > 64 || end - line < 8 ||
      p[0] != '0' || p[1] != '.')
    return false;
  const char* q = p + 2;
  for (; end - q > 8; q += 8)
    if (non_digits(load_word(q))) return false;
  return q == end || !(non_digits(load_word(end - 8)) >> 8 * (8 - (end - q)));
}

/// One pass over a plain row: each column ends at a separator or the line
/// end, the sign is 1 or -1 and the weight in [0, 1]. Labels of 1-7 digits
/// are read from one word, others and the weight by from_chars; with
/// `defer`, a plain_weight token is left unconverted in `*defer`. False
/// leaves the line to the tokenizing parser below.
bool parse_plain_row(std::string_view line, bool weighted, ParsedEdge& out,
                     std::string_view* defer = nullptr) {
  const char* p = line.data();
  const char* const end = p + line.size();
  const auto skip = [&] {
    while (p != end && is_separator(*p)) ++p;
  };
  const auto ends = [&] { return p == end || is_separator(*p); };
  const auto number = [&](auto& value, auto... format) {
    skip();
    const auto res = std::from_chars(p, end, value, format...);
    p = res.ptr;
    return res.ec == std::errc{} && ends();
  };
  const auto label = [&](std::uint64_t& value) {
    skip();
    return (kWords && end - p >= 8 && label_word(p, value)) || number(value);
  };
  const auto sign = [&] {
    skip();
    out.sign = p != end && *p == '-' ? -1 : 1;
    p += out.sign < 0;
    return p != end && *p++ == '1' && ends();
  };
  out.weight = 1.0;
  if (!(label(out.src) && label(out.dst) && sign())) return false;
  if (!weighted) return true;
  skip();
  if (defer && plain_weight(line.data(), p, end)) {
    *defer = {p, static_cast<std::size_t>(end - p)};
    return true;
  }
  return number(out.weight, std::chars_format::general) && out.weight >= 0.0 &&
         out.weight <= 1.0;
}

/// Streams parsed rows into the builder's columns, numbering labels in
/// order of first appearance (sources before destinations within a row).
/// With `diffusion`, row (src, dst) becomes the edge dst -> src. With a
/// `keep` list (sorted, unique ids), only rows between two listed ids
/// reach the builder, and a plain weight left as text is converted only
/// then; every row is still numbered and counted.
class EdgeAssembler {
 public:
  explicit EdgeAssembler(bool diffusion = false,
                         const std::vector<std::uint64_t>* keep = nullptr)
      : diffusion_(diffusion), keep_(keep) {}
  void reserve(std::size_t rows) { builder_.reserve(rows); }

  void add(const ParsedEdge& e, std::size_t line_no,
           std::string_view weight = {}) {
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
    if (keep_ && !(listed_[src_] && listed_[dst])) return;
    double w = e.weight;
    if (!weight.empty())
      std::from_chars(weight.data(), weight.data() + weight.size(), w);
    builder_.add_edge(diffusion_ ? dst : src_, diffusion_ ? src_ : dst,
                      sign_from_value(e.sign), w);
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
  while (const std::size_t line_no = reader.next(line)) {
    std::string_view weight;  // a plain weight the filter may never convert
    if ((keep && parse_plain_row(line, weighted, e, &weight)) ||
        parse_edge_line(line, line_no, weighted, e))
      assembler.add(e, line_no, weight);
  }
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
