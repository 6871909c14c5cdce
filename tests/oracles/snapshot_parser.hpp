// The snapshot-row parser core::parse_snapshot_entries used before it read
// lines with graph::LineReader: std::getline lines, each split by an
// std::istringstream. The differential and damage tests in
// test_extensions.cpp hold the production parser to it: the same entries
// or the identical InputError text.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/snapshot_io.hpp"

namespace rid::core {

std::vector<SnapshotEntry> istringstream_parse_snapshot_entries(
    std::istream& in);

}  // namespace rid::core
