// Social -> diffusion network transformation (paper Definition 2).
//
// In the trust-centric reading, a social edge (u, v) means "u trusts v", so
// information flows v -> u. The weighted signed diffusion network is simply
// the reverse graph with identical signs and weights. The transformation is
// given its own name (rather than calling reversed() inline) because the
// paper treats it as a modelling step that other semantic interpretations of
// a signed network may skip.
#pragma once

#include "graph/signed_graph.hpp"
#include "util/trace.hpp"

namespace rid::graph {

/// Builds the diffusion network G_D from the social network G by reversing
/// every edge and preserving signs and weights.
inline SignedGraph make_diffusion_network(const SignedGraph& social) {
  util::trace::TraceSpan span("reverse");
  return social.reversed();
}

}  // namespace rid::graph
