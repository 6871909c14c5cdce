// SignedGraph: the directed, signed, weighted graph at the heart of the
// library, stored in compressed sparse row (CSR) form with both out- and
// in-adjacency so diffusion (out) and tree extraction (in) are both cheap.
//
// Construction goes through SignedGraphBuilder; a built graph's topology is
// immutable but edge *weights* can be reassigned in place (the paper derives
// weights from Jaccard coefficients after the topology exists).
#pragma once

#include <cstddef>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace rid::graph {

class SignedGraph;

/// Incrementally collects edges, then produces an immutable CSR graph.
class SignedGraphBuilder {
 public:
  /// Creates a builder for nodes {0, ..., num_nodes-1}.
  explicit SignedGraphBuilder(NodeId num_nodes);

  NodeId num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return srcs_.size(); }

  /// Adds the directed edge src -> dst. Throws std::out_of_range for invalid
  /// node ids and std::invalid_argument for weights outside [0, 1].
  /// Self-loops and parallel edges are accepted here; `build` can drop them.
  SignedGraphBuilder& add_edge(NodeId src, NodeId dst, Sign sign,
                               double weight = 1.0);

  /// Grows the node universe (ids are stable). New count must not shrink.
  void ensure_node(NodeId id);

  /// Pre-allocates room for `edges` add_edge calls.
  void reserve(std::size_t edges);

  /// Options controlling normalization during build().
  struct BuildOptions {
    bool drop_self_loops = true;
    /// Keep only the first occurrence of each (src, dst) pair.
    bool dedup_parallel_edges = true;
  };

  /// Produces the CSR graph: edges ordered by (src, dst, insertion order),
  /// normalized per `options`. The builder is left empty afterwards.
  /// Throws std::length_error at kInvalidEdge or more added edges.
  SignedGraph build(const BuildOptions& options);
  SignedGraph build();  // build(BuildOptions{})

 private:
  NodeId num_nodes_;
  std::vector<NodeId> srcs_;
  std::vector<NodeId> dsts_;
  std::vector<Sign> signs_;
  std::vector<double> weights_;
};

/// Lazily-materialized range of consecutive EdgeIds [first, last).
/// Out-edges of a CSR node are exactly the contiguous ids
/// [out_offsets[u], out_offsets[u+1]), so both storage backends hand out
/// edge-id ranges without storing an identity permutation.
class EdgeIdRange {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = EdgeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const EdgeId*;
    using reference = EdgeId;

    iterator() = default;
    explicit iterator(EdgeId id) : id_(id) {}
    EdgeId operator*() const noexcept { return id_; }
    iterator& operator++() noexcept {
      ++id_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++id_;
      return old;
    }
    bool operator==(const iterator&) const = default;
    difference_type operator-(const iterator& o) const noexcept {
      return static_cast<difference_type>(id_) -
             static_cast<difference_type>(o.id_);
    }

   private:
    EdgeId id_ = 0;
  };

  EdgeIdRange() = default;
  EdgeIdRange(EdgeId first, EdgeId last) : first_(first), last_(last) {}

  iterator begin() const noexcept { return iterator(first_); }
  iterator end() const noexcept { return iterator(last_); }
  std::size_t size() const noexcept { return last_ - first_; }
  bool empty() const noexcept { return first_ == last_; }
  EdgeId operator[](std::size_t i) const noexcept {
    return first_ + static_cast<EdgeId>(i);
  }
  EdgeId front() const noexcept { return first_; }

 private:
  EdgeId first_ = 0;
  EdgeId last_ = 0;
};

/// Immutable-topology signed directed graph.
///
/// Edges are identified by EdgeId in [0, num_edges()), ordered by source node
/// (CSR order). In-adjacency entries reference the same EdgeIds, so signs and
/// weights are stored once.
class SignedGraph {
 public:
  SignedGraph() = default;

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(out_offsets_.empty() ? 0
                                                    : out_offsets_.size() - 1);
  }
  std::size_t num_edges() const noexcept { return dst_.size(); }

  // --- per-edge accessors -------------------------------------------------
  NodeId edge_src(EdgeId e) const noexcept { return src_[e]; }
  NodeId edge_dst(EdgeId e) const noexcept { return dst_[e]; }
  Sign edge_sign(EdgeId e) const noexcept { return sign_[e]; }
  double edge_weight(EdgeId e) const noexcept { return weight_[e]; }

  /// Reassigns one edge's weight. Throws std::invalid_argument outside [0,1].
  void set_edge_weight(EdgeId e, double weight);

  // --- adjacency ----------------------------------------------------------
  /// EdgeIds of edges leaving `u`, sorted by destination id.
  EdgeIdRange out_edge_ids(NodeId u) const noexcept {
    return {out_offsets_[u], out_offsets_[u + 1]};
  }
  /// EdgeIds of edges entering `v`, sorted by source id.
  std::span<const EdgeId> in_edge_ids(NodeId v) const noexcept {
    return {in_edge_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  std::size_t out_degree(NodeId u) const noexcept {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  std::size_t in_degree(NodeId v) const noexcept {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Destinations of out-edges of `u` (sorted ascending).
  std::span<const NodeId> out_neighbors(NodeId u) const noexcept {
    return {dst_.data() + out_offsets_[u],
            out_offsets_[u + 1] - out_offsets_[u]};
  }

  /// EdgeId of (src, dst) if present, else kInvalidEdge (binary search).
  EdgeId find_edge(NodeId src, NodeId dst) const noexcept;

  // --- raw CSR columns ----------------------------------------------------
  // Whole-array views used by the columnar serializer (graph/columnar) and
  // the flat-span diffusion engine; indexed by NodeId (offsets) or EdgeId.
  std::span<const EdgeId> csr_out_offsets() const noexcept {
    return out_offsets_;
  }
  std::span<const NodeId> csr_srcs() const noexcept { return src_; }
  std::span<const NodeId> csr_dsts() const noexcept { return dst_; }
  std::span<const Sign> csr_signs() const noexcept { return sign_; }
  std::span<const double> csr_weights() const noexcept { return weight_; }
  std::span<const EdgeId> csr_in_offsets() const noexcept {
    return in_offsets_;
  }
  std::span<const EdgeId> csr_in_edges() const noexcept { return in_edge_; }

  /// The reversed graph: edge (u, v) becomes (v, u) with the same sign and
  /// weight. This is exactly the paper's social -> diffusion transformation.
  /// Every edge is kept, self-loops and parallel edges included; reversed
  /// edge k is in_edge_ids order position k of this graph.
  SignedGraph reversed() const;

  /// Structural + weight equality (same CSR content).
  bool operator==(const SignedGraph& other) const = default;

  /// Total bytes of the CSR arrays (for capacity-planning reports).
  std::size_t memory_bytes() const noexcept;

 private:
  friend class SignedGraphBuilder;

  // CSR over out-edges. EdgeId == index into src_/dst_/sign_/weight_.
  std::vector<EdgeId> out_offsets_;  // size n+1
  std::vector<NodeId> src_;          // size m (src of each edge, CSR-ordered)
  std::vector<NodeId> dst_;          // size m
  std::vector<Sign> sign_;           // size m
  std::vector<double> weight_;       // size m

  // In-adjacency: for each node, the EdgeIds of incoming edges.
  std::vector<EdgeId> in_offsets_;  // size n+1
  std::vector<EdgeId> in_edge_;     // size m
};

}  // namespace rid::graph
