#include "oracles/edge_line_parser.hpp"

#include <cctype>
#include <charconv>
#include <string>
#include <system_error>

#include "util/errors.hpp"

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

}  // namespace

bool tokenizing_parse_edge_line(std::string_view line, std::size_t line_no,
                                bool weighted, ParsedEdge& out) {
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

}  // namespace rid::graph
