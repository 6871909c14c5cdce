// Edmonds testing aids: a structural check of a branching and an
// exhaustive optimum for tiny instances, the references the property tests
// hold max_branching_simple and max_branching_fast to.
#pragma once

#include <span>

#include "algo/arborescence.hpp"

namespace rid::algo {

/// Checks structural validity: parent pointers acyclic, each parent_arc
/// actually connects parent[v] -> v, and total_weight matches.
bool is_valid_branching(graph::NodeId num_nodes,
                        std::span<const WeightedArc> arcs,
                        const Branching& branching);

/// Exhaustive optimum for tiny instances (testing only; O(V^V)-ish).
/// Returns the best coverage-then-weight branching total weight.
Branching max_branching_brute_force(graph::NodeId num_nodes,
                                    std::span<const WeightedArc> arcs);

}  // namespace rid::algo
