// Dense node ids for sparse file labels, shared by the text loaders
// (graph_io) and the streaming converter (columnar_stream) so both number
// nodes identically.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace rid::graph {

/// Open-addressing (linear probing) label -> id map. Ids are handed out in
/// order of first appearance. A slot holds an id, never a label: each label
/// is stored once, in id order, which is what release_labels() returns.
class LabelCompactor {
 public:
  /// Id of `label`, assigning the next id on first sight. Returns
  /// kInvalidNode, assigning nothing, when a new label would bring the
  /// count to kInvalidNode (node counts must stay below it).
  NodeId insert(std::uint64_t label) {
    if (2 * labels_.size() >= slots_.size()) grow();
    for (std::size_t i = slot_of(label);; i = (i + 1) & mask_) {
      const NodeId id = slots_[i];
      if (id == kInvalidNode) {
        if (labels_.size() >= kInvalidNode - 1) return kInvalidNode;
        slots_[i] = static_cast<NodeId>(labels_.size());
        labels_.push_back(label);
        return slots_[i];
      }
      if (labels_[id] == label) return id;
    }
  }

  /// Id of `label`, or kInvalidNode when it was never inserted.
  NodeId find(std::uint64_t label) const noexcept {
    if (slots_.empty()) return kInvalidNode;
    for (std::size_t i = slot_of(label);; i = (i + 1) & mask_) {
      const NodeId id = slots_[i];
      if (id == kInvalidNode || labels_[id] == label) return id;
    }
  }

  std::size_t size() const noexcept { return labels_.size(); }

  /// Labels in id order (the loaders' original_label column).
  std::vector<std::uint64_t> release_labels() && { return std::move(labels_); }

 private:
  std::size_t slot_of(std::uint64_t label) const noexcept {
    // Fibonacci hashing on the folded label: sequential and strided labels
    // spread evenly, and high-bit-only labels still reach the top bits.
    return static_cast<std::size_t>(((label ^ (label >> 32)) *
                                     0x9E3779B97F4A7C15ull) >>
                                    shift_);
  }

  /// Doubles the table (load factor stays <= 1/2) and re-inserts every id.
  void grow() {
    const std::size_t capacity = slots_.empty() ? 1024 : 2 * slots_.size();
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    mask_ = capacity - 1;
    slots_.assign(capacity, kInvalidNode);
    for (std::size_t id = 0; id < labels_.size(); ++id) {
      std::size_t i = slot_of(labels_[id]);
      while (slots_[i] != kInvalidNode) i = (i + 1) & mask_;
      slots_[i] = static_cast<NodeId>(id);
    }
  }

  std::vector<NodeId> slots_;  // kInvalidNode marks an empty slot
  std::vector<std::uint64_t> labels_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace rid::graph
