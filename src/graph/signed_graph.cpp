#include "graph/signed_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace rid::graph {

std::string to_string(Sign s) {
  return s == Sign::kPositive ? "+1" : "-1";
}

std::string to_string(NodeState s) {
  switch (s) {
    case NodeState::kPositive:
      return "+1";
    case NodeState::kNegative:
      return "-1";
    case NodeState::kInactive:
      return "0";
    case NodeState::kUnknown:
      return "?";
  }
  return "invalid";
}

SignedGraphBuilder::SignedGraphBuilder(NodeId num_nodes)
    : num_nodes_(num_nodes) {}

SignedGraphBuilder& SignedGraphBuilder::add_edge(NodeId src, NodeId dst,
                                                 Sign sign, double weight) {
  if (src >= num_nodes_ || dst >= num_nodes_)
    throw std::out_of_range("SignedGraphBuilder::add_edge: node id >= n");
  if (!(weight >= 0.0 && weight <= 1.0))
    throw std::invalid_argument(
        "SignedGraphBuilder::add_edge: weight outside [0, 1]");
  srcs_.push_back(src);
  dsts_.push_back(dst);
  signs_.push_back(sign);
  weights_.push_back(weight);
  return *this;
}

void SignedGraphBuilder::ensure_node(NodeId id) {
  if (id == kInvalidNode)
    throw std::out_of_range("SignedGraphBuilder::ensure_node: invalid id");
  if (id >= num_nodes_) num_nodes_ = id + 1;
}

void SignedGraphBuilder::reserve(std::size_t edges) {
  srcs_.reserve(edges);
  dsts_.reserve(edges);
  signs_.reserve(edges);
  weights_.reserve(edges);
}

SignedGraph SignedGraphBuilder::build() { return build(BuildOptions{}); }

SignedGraph SignedGraphBuilder::build(const BuildOptions& options) {
  const std::size_t raw_m = srcs_.size();
  if (raw_m >= kInvalidEdge)
    throw std::length_error(
        "SignedGraphBuilder::build: edge count exceeds 32-bit id space");
  const auto keep = [&](std::size_t i) {
    return !(options.drop_self_loops && srcs_[i] == dsts_[i]);
  };

  // Stable counting sort on src. Each key packs (dst, insertion index), so
  // sorting one row's keys orders it by (dst, insertion index) without
  // going back to the columns.
  std::vector<EdgeId> row(std::size_t{num_nodes_} + 1, 0);
  for (std::size_t i = 0; i < raw_m; ++i)
    if (keep(i)) ++row[srcs_[i] + 1];
  for (NodeId u = 0; u < num_nodes_; ++u) row[u + 1] += row[u];
  std::vector<std::uint64_t> keys(row[num_nodes_]);
  {
    std::vector<EdgeId> cursor(row.begin(), row.end() - 1);
    for (std::size_t i = 0; i < raw_m; ++i)
      if (keep(i))
        keys[cursor[srcs_[i]]++] = (std::uint64_t{dsts_[i]} << 32) | i;
  }

  SignedGraph g;
  g.out_offsets_.assign(std::size_t{num_nodes_} + 1, 0);
  g.src_.reserve(keys.size());
  g.dst_.reserve(keys.size());
  g.sign_.reserve(keys.size());
  g.weight_.reserve(keys.size());
  for (NodeId u = 0; u < num_nodes_; ++u) {
    const auto first = keys.begin() + row[u];
    const auto last = keys.begin() + row[u + 1];
    if (!std::is_sorted(first, last)) std::sort(first, last);
    NodeId prev_dst = kInvalidNode;
    for (auto it = first; it != last; ++it) {
      const auto d = static_cast<NodeId>(*it >> 32);
      const auto i = static_cast<std::size_t>(*it & 0xffffffffu);
      if (options.dedup_parallel_edges && d == prev_dst) continue;
      prev_dst = d;
      g.src_.push_back(u);
      g.dst_.push_back(d);
      g.sign_.push_back(signs_[i]);
      g.weight_.push_back(weights_[i]);
    }
    g.out_offsets_[u + 1] = static_cast<EdgeId>(g.dst_.size());
  }
  // Release builder storage before the in-adjacency is allocated.
  keys = {};
  srcs_ = {};
  dsts_ = {};
  signs_ = {};
  weights_ = {};

  const auto m = static_cast<EdgeId>(g.dst_.size());

  // In-adjacency via counting sort on destination.
  g.in_offsets_.assign(std::size_t{num_nodes_} + 1, 0);
  for (const NodeId d : g.dst_) ++g.in_offsets_[d + 1];
  for (NodeId v = 0; v < num_nodes_; ++v)
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  g.in_edge_.resize(m);
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) g.in_edge_[cursor[g.dst_[e]]++] = e;
  return g;
}

void SignedGraph::set_edge_weight(EdgeId e, double weight) {
  if (!(weight >= 0.0 && weight <= 1.0))
    throw std::invalid_argument(
        "SignedGraph::set_edge_weight: weight outside [0, 1]");
  weight_[e] = weight;
}

EdgeId SignedGraph::find_edge(NodeId src, NodeId dst) const noexcept {
  if (src >= num_nodes()) return kInvalidEdge;
  const auto begin = dst_.begin() + out_offsets_[src];
  const auto end = dst_.begin() + out_offsets_[src + 1];
  const auto it = std::lower_bound(begin, end, dst);
  if (it == end || *it != dst) return kInvalidEdge;
  return static_cast<EdgeId>(it - dst_.begin());
}

SignedGraph SignedGraph::reversed() const {
  // A transpose. in_edge_ lists each node's in-edges by ascending source,
  // ties in edge id order, which is the (src, dst, insertion) order the
  // reversed graph's CSR needs when edges are added in edge id order. So
  // reversed edge k is edge in_edge_[k], and the reversed in-adjacency is
  // the inverse permutation.
  SignedGraph r;
  r.out_offsets_ = in_offsets_;
  r.in_offsets_ = out_offsets_;
  if (r.out_offsets_.empty()) {  // default-constructed: reverse to a built one
    r.out_offsets_ = {0};
    r.in_offsets_ = {0};
  }
  const std::size_t m = num_edges();
  r.src_.resize(m);
  r.dst_.resize(m);
  r.sign_.resize(m);
  r.weight_.resize(m);
  r.in_edge_.resize(m);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (EdgeId k = in_offsets_[v]; k < in_offsets_[v + 1]; ++k) {
      const EdgeId e = in_edge_[k];
      r.src_[k] = v;
      r.dst_[k] = src_[e];
      r.sign_[k] = sign_[e];
      r.weight_[k] = weight_[e];
      r.in_edge_[e] = k;
    }
  }
  return r;
}

std::size_t SignedGraph::memory_bytes() const noexcept {
  return out_offsets_.capacity() * sizeof(EdgeId) +
         src_.capacity() * sizeof(NodeId) + dst_.capacity() * sizeof(NodeId) +
         sign_.capacity() * sizeof(Sign) +
         weight_.capacity() * sizeof(double) +
         in_offsets_.capacity() * sizeof(EdgeId) +
         in_edge_.capacity() * sizeof(EdgeId);
}

}  // namespace rid::graph
