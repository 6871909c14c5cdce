#include "core/snapshot_io.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>

#include "graph/graph_io.hpp"
#include "util/errors.hpp"
#include "util/trace.hpp"

namespace rid::core {

namespace {
[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw util::InputError("snapshot_io: line " + std::to_string(line_no) +
                         ": " + what);
}

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The next token at or after `pos`, split as an istream reads a string
/// (isspace in the C locale); empty at the end.
std::string_view next_token(std::string_view line, std::size_t& pos) {
  while (pos < line.size() && is_space(line[pos])) ++pos;
  const std::size_t start = pos;
  while (pos < line.size() && !is_space(line[pos])) ++pos;
  return line.substr(start, pos - start);
}
}  // namespace

void save_snapshot(std::span<const graph::NodeState> states,
                   std::ostream& out) {
  out << "# node state   (state in {+1, -1, ?}; inactive nodes omitted)\n";
  for (std::size_t v = 0; v < states.size(); ++v) {
    if (states[v] == graph::NodeState::kInactive) continue;
    out << v << ' ' << graph::to_string(states[v]) << '\n';
  }
}

void save_snapshot_file(std::span<const graph::NodeState> states,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw util::InputError("snapshot_io: cannot open " + path);
  save_snapshot(states, out);
}

std::vector<SnapshotEntry> parse_snapshot_entries(std::istream& in) {
  util::trace::TraceSpan span("load_snapshot");
  std::vector<SnapshotEntry> entries;
  // 64 KiB blocks stay below glibc's mmap threshold, which freeing a
  // mapped block would raise for the rest of the process.
  graph::LineReader reader(in ? in.rdbuf() : nullptr, std::size_t{1} << 16);
  std::string_view line;
  while (const std::size_t line_no = reader.next(line)) {
    std::size_t pos = 0;
    const std::string_view id = next_token(line, pos);
    if (id.empty() || id[0] == '#' || id[0] == '%') continue;
    const std::string_view state = next_token(line, pos);
    if (state.empty()) fail(line_no, "missing state column");

    SnapshotEntry entry;
    entry.line_no = line_no;
    const auto res =
        std::from_chars(id.data(), id.data() + id.size(), entry.node);
    if (res.ec != std::errc{} || res.ptr != id.data() + id.size())
      fail(line_no, "bad node id '" + std::string(id) + "'");

    if (state == "+1" || state == "1") {
      entry.state = graph::NodeState::kPositive;
    } else if (state == "-1") {
      entry.state = graph::NodeState::kNegative;
    } else if (state == "?") {
      entry.state = graph::NodeState::kUnknown;
    } else if (state == "0") {
      entry.state = graph::NodeState::kInactive;
    } else {
      fail(line_no, "bad state '" + std::string(state) + "'");
    }
    entries.push_back(entry);
  }
  span.tag("entries", static_cast<std::int64_t>(entries.size()));
  return entries;
}

std::vector<SnapshotEntry> load_snapshot_entries_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::InputError("snapshot_io: cannot open " + path);
  return parse_snapshot_entries(in);
}

std::vector<graph::NodeState> apply_snapshot_entries(
    std::span<const SnapshotEntry> entries, graph::NodeId num_nodes) {
  std::vector<graph::NodeState> states(num_nodes,
                                       graph::NodeState::kInactive);
  for (const SnapshotEntry& entry : entries) {
    if (entry.node >= num_nodes) fail(entry.line_no, "node id out of range");
    states[static_cast<std::size_t>(entry.node)] = entry.state;
  }
  return states;
}

std::vector<graph::NodeState> load_snapshot(std::istream& in,
                                            graph::NodeId num_nodes) {
  return apply_snapshot_entries(parse_snapshot_entries(in), num_nodes);
}

std::vector<graph::NodeState> load_snapshot_file(const std::string& path,
                                                 graph::NodeId num_nodes) {
  return apply_snapshot_entries(load_snapshot_entries_file(path), num_nodes);
}

}  // namespace rid::core
