// Dense node ids for sparse file labels, shared by the text loaders
// (graph_io) and the streaming converter (columnar_stream) so both number
// nodes identically.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace rid::graph {

/// Label -> id map. Ids are handed out in order of first appearance; each
/// label is stored once, in id order, which is what release_labels() returns.
/// A label below direct_size() finds its id in a direct table with one load
/// (SNAP dumps number nodes 0..n-1). The rest go through an open-addressing
/// (linear probing) table whose slots hold ids, never labels. The direct
/// table's size is 0 or a power of two, never more than
/// 8 * (size() + 65,536): a new label below that bound, rounded down to a
/// power of two, doubles the table until it covers the label, and the
/// hashed labels it now covers move across.
class LabelCompactor {
 public:
  /// Id of `label`, assigning the next id on first sight. Returns
  /// kInvalidNode, assigning nothing, when a new label would bring the
  /// count to kInvalidNode (node counts must stay below it).
  NodeId insert(std::uint64_t label) {
    if (label >= direct_.size() &&
        label < std::bit_floor(8 * (labels_.size() + 65536)))
      grow_direct(label);
    if (label < direct_.size()) {
      NodeId& id = direct_[label];
      if (id == kInvalidNode) id = assign(label);
      return id;
    }
    if (2 * hashed_ >= slots_.size())
      rehash(slots_.empty() ? 1024 : 2 * slots_.size());
    for (std::size_t i = slot_of(label);; i = (i + 1) & mask_) {
      NodeId& id = slots_[i];
      if (id == kInvalidNode) {
        id = assign(label);
        hashed_ += id != kInvalidNode;
        return id;
      }
      if (labels_[id] == label) return id;
    }
  }

  /// Id of `label`, or kInvalidNode when it was never inserted.
  NodeId find(std::uint64_t label) const noexcept {
    if (label < direct_.size()) return direct_[label];
    if (slots_.empty()) return kInvalidNode;
    for (std::size_t i = slot_of(label);; i = (i + 1) & mask_) {
      const NodeId id = slots_[i];
      if (id == kInvalidNode || labels_[id] == label) return id;
    }
  }

  std::size_t size() const noexcept { return labels_.size(); }

  /// Labels below this look up their id directly.
  std::size_t direct_size() const noexcept { return direct_.size(); }

  /// Labels in id order (the loaders' original_label column).
  std::vector<std::uint64_t> release_labels() && { return std::move(labels_); }

 private:
  NodeId assign(std::uint64_t label) {
    if (labels_.size() >= kInvalidNode - 1) return kInvalidNode;
    labels_.push_back(label);
    return static_cast<NodeId>(labels_.size() - 1);
  }

  std::size_t slot_of(std::uint64_t label) const noexcept {
    // Fibonacci hashing on the folded label: sequential and strided labels
    // spread evenly, and high-bit-only labels still reach the top bits.
    return static_cast<std::size_t>(((label ^ (label >> 32)) *
                                     0x9E3779B97F4A7C15ull) >>
                                    shift_);
  }

  /// Doubles the direct table until it covers `label`; the hashed labels
  /// it now covers move across.
  void grow_direct(std::uint64_t label) {
    direct_.resize(std::max<std::uint64_t>(std::bit_ceil(label + 1), 1024),
                   kInvalidNode);
    if (hashed_ > 0) rehash(slots_.size());
  }

  /// Sizes the hash table to `capacity` (a power of two) and files every
  /// label again: in the direct table when it covers the label, else here.
  void rehash(std::size_t capacity) {
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    mask_ = capacity - 1;
    slots_.assign(capacity, kInvalidNode);
    hashed_ = 0;
    for (std::size_t id = 0; id < labels_.size(); ++id) {
      if (labels_[id] < direct_.size()) {
        direct_[labels_[id]] = static_cast<NodeId>(id);
        continue;
      }
      ++hashed_;
      std::size_t i = slot_of(labels_[id]);
      while (slots_[i] != kInvalidNode) i = (i + 1) & mask_;
      slots_[i] = static_cast<NodeId>(id);
    }
  }

  std::vector<NodeId> direct_;  // label -> id; kInvalidNode marks no label
  std::vector<NodeId> slots_;   // kInvalidNode marks an empty slot
  std::vector<std::uint64_t> labels_;
  std::size_t hashed_ = 0;  // labels at or above direct_.size()
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace rid::graph
