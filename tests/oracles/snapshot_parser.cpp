#include "oracles/snapshot_parser.hpp"

#include <charconv>
#include <istream>
#include <sstream>
#include <string>

#include "util/errors.hpp"

namespace rid::core {

namespace {
[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw util::InputError("snapshot_io: line " + std::to_string(line_no) +
                         ": " + what);
}
}  // namespace

std::vector<SnapshotEntry> istringstream_parse_snapshot_entries(
    std::istream& in) {
  std::vector<SnapshotEntry> entries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream row(line);
    std::string id_token;
    std::string state_token;
    if (!(row >> id_token)) continue;           // blank line
    if (id_token[0] == '#' || id_token[0] == '%') continue;
    if (!(row >> state_token)) fail(line_no, "missing state column");

    SnapshotEntry entry;
    entry.line_no = line_no;
    const auto res = std::from_chars(
        id_token.data(), id_token.data() + id_token.size(), entry.node);
    if (res.ec != std::errc{} || res.ptr != id_token.data() + id_token.size())
      fail(line_no, "bad node id '" + id_token + "'");

    if (state_token == "+1" || state_token == "1") {
      entry.state = graph::NodeState::kPositive;
    } else if (state_token == "-1") {
      entry.state = graph::NodeState::kNegative;
    } else if (state_token == "?") {
      entry.state = graph::NodeState::kUnknown;
    } else if (state_token == "0") {
      entry.state = graph::NodeState::kInactive;
    } else {
      fail(line_no, "bad state '" + state_token + "'");
    }
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace rid::core
