// Persistence for infected-network snapshots.
//
// A snapshot file pairs node ids with their observed states so that a
// detection run can be decoupled from the simulation (or fed from real
// observations). Format: '#' comments, then "node state" rows where state
// is one of {+1, -1, 0, ?}; nodes omitted from the file are inactive.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace rid::core {

/// Writes every non-inactive node as a "node state" row.
void save_snapshot(std::span<const graph::NodeState> states,
                   std::ostream& out);
void save_snapshot_file(std::span<const graph::NodeState> states,
                        const std::string& path);

/// Reads a snapshot for a graph with `num_nodes` nodes. Throws
/// util::InputError (with line numbers) on malformed input or
/// out-of-range node ids.
std::vector<graph::NodeState> load_snapshot(std::istream& in,
                                            graph::NodeId num_nodes);
std::vector<graph::NodeState> load_snapshot_file(const std::string& path,
                                                 graph::NodeId num_nodes);

/// One "node state" row, syntax-checked but not yet range-checked against a
/// graph. `line_no` is kept so apply_snapshot_entries can report the original
/// file line when the id turns out to be out of range.
struct SnapshotEntry {
  std::uint64_t node = 0;
  graph::NodeState state = graph::NodeState::kInactive;
  std::size_t line_no = 0;
};

/// Parses all rows of a snapshot stream without needing the graph. Lets
/// callers validate a --snapshot file before committing to an expensive
/// graph parse; load_snapshot == parse + apply.
std::vector<SnapshotEntry> parse_snapshot_entries(std::istream& in);
std::vector<SnapshotEntry> load_snapshot_entries_file(const std::string& path);

/// Range-checks parsed entries against `num_nodes` (same line-numbered
/// error as load_snapshot) and expands them to a dense state vector.
std::vector<graph::NodeState> apply_snapshot_entries(
    std::span<const SnapshotEntry> entries, graph::NodeId num_nodes);

}  // namespace rid::core
