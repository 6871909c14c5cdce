// The tokenizing edge-row parser graph::parse_edge_line used before its
// one-pass fast path: split the line into separator-delimited tokens, then
// parse each column. The differential test in test_graph_io.cpp holds the
// production parser to it: the same skip/accept result, bit-equal values,
// or the identical InputError text.
#pragma once

#include <cstddef>
#include <string_view>

#include "graph/graph_io.hpp"

namespace rid::graph {

bool tokenizing_parse_edge_line(std::string_view line, std::size_t line_no,
                                bool weighted, ParsedEdge& out);

}  // namespace rid::graph
