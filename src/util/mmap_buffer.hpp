// Memory-mapped storage primitives shared by the columnar graph format and
// the DP arena spill path.
//
//  * MappedFile — a read-only, page-cache-backed view of a whole file.
//    Opening is O(1) (no parse, no copy); pages fault in on first touch and
//    can be reclaimed by the kernel under memory pressure, which is what
//    makes graph loads zero-copy and sharded workers cheap. On platforms
//    without mmap the file is read into an anonymous heap buffer instead —
//    same API, no zero-copy benefit.
//
//  * SpillableBuffer — a large scratch allocation that lives on the heap
//    below a caller-chosen threshold and in a mapping of an *unlinked*
//    temporary file above it. Spilled pages are file-backed, so the kernel
//    can write cold table regions out instead of OOM-killing the process —
//    this is what lifts the DP choice-arena cap (core/tree_dp.cpp) for
//    ~100k-node trees. The backing file is unlinked immediately after
//    creation: it vanishes with the process, crash included.
//
// Both classes are move-only; moved-from objects are empty and safe to
// destroy.
#pragma once

#include <cstddef>
#include <string>

namespace rid::util {

/// Read-only mapping of an entire file. Throws util::InputError when the
/// file cannot be opened, stat-ed, or mapped.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  static MappedFile open(const std::string& path);

  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// True when the bytes are an actual mmap (false: heap fallback).
  bool mapped() const noexcept { return mapped_; }

  /// Tells the kernel the resident pages are not needed soon (MADV_DONTNEED
  /// on a read-only file mapping: pages are dropped and re-faulted from the
  /// file on the next access). run_rid_sharded calls this after extraction
  /// so forked workers do not inherit O(graph) resident pages. No-op on the
  /// heap fallback. The mapping stays valid.
  void advise_dontneed() const noexcept;

  /// Ranged MADV_DONTNEED over bytes [offset, offset + length): extraction
  /// drops a large .ridg's edge columns this way so its resident set stays
  /// bounded, not O(file). The range is shrunk inward to page boundaries
  /// (a sub-page range is a no-op); no-op on the heap fallback.
  void advise_dontneed(std::size_t offset, std::size_t length) const noexcept;

  /// Unmaps/frees; the object becomes empty.
  void close() noexcept;

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

/// Heap-or-file-backed scratch allocation (uninitialized on the heap path,
/// zero pages on the spill path — callers must treat it as uninitialized).
class SpillableBuffer {
 public:
  SpillableBuffer() = default;
  ~SpillableBuffer();
  SpillableBuffer(SpillableBuffer&& other) noexcept;
  SpillableBuffer& operator=(SpillableBuffer&& other) noexcept;
  SpillableBuffer(const SpillableBuffer&) = delete;
  SpillableBuffer& operator=(const SpillableBuffer&) = delete;

  /// Allocates `bytes` of storage. With `spill` true, the storage is a
  /// shared mapping of an unlinked temp file (in $TMPDIR, else /tmp);
  /// when the temp-file path fails (no mmap, no writable tmp, quota) the
  /// allocation silently falls back to the heap — callers only lose the
  /// reclaimability, never correctness. Throws std::bad_alloc (heap) or
  /// std::runtime_error (pathological size) on failure.
  static SpillableBuffer allocate(std::size_t bytes, bool spill);

  void* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  /// True when the storage is file-backed (the spill actually happened).
  bool spilled() const noexcept { return spilled_; }

  void reset() noexcept;

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
  bool spilled_ = false;
};

}  // namespace rid::util
