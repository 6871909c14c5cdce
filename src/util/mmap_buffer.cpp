#include "util/mmap_buffer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <utility>

#include "util/errors.hpp"

#if !defined(_WIN32)
#define RID_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace rid::util {

namespace {

#if defined(RID_HAVE_MMAP)
/// Creates an unlinked temp file of `bytes` and maps it shared; returns
/// nullptr (not an error) when any step fails so callers can fall back.
void* map_unlinked_tempfile(std::size_t bytes) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  std::string tmpl = std::string(dir) + "/ridnet-spill-XXXXXX";
  const int fd = ::mkstemp(tmpl.data());
  if (fd < 0) return nullptr;
  ::unlink(tmpl.c_str());  // backing vanishes with the last mapping
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    return nullptr;
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  return p == MAP_FAILED ? nullptr : p;
}
#endif

}  // namespace

// --- MappedFile ------------------------------------------------------------

MappedFile::~MappedFile() { close(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_), mapped_(other.mapped_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    close();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

MappedFile MappedFile::open(const std::string& path) {
  MappedFile out;
#if defined(RID_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw InputError("mmap: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    throw InputError("mmap: " + path + " is not a regular file");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return out;  // empty file: empty view
  }
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) throw InputError("mmap: cannot map " + path);
  out.data_ = static_cast<const std::byte*>(p);
  out.size_ = size;
  out.mapped_ = true;
#else
  // No mmap on this platform: same API over a heap copy of the file.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw InputError("mmap: cannot open " + path);
  std::string buffer;
  char chunk[1 << 16];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
    buffer.append(chunk, got);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) throw InputError("mmap: read error on " + path);
  if (!buffer.empty()) {
    auto* heap = new std::byte[buffer.size()];
    std::memcpy(heap, buffer.data(), buffer.size());
    out.data_ = heap;
    out.size_ = buffer.size();
  }
  out.mapped_ = false;
#endif
  return out;
}

void MappedFile::advise_dontneed() const noexcept {
#if defined(RID_HAVE_MMAP)
  if (mapped_ && data_ != nullptr)
    ::madvise(const_cast<std::byte*>(data_), size_, MADV_DONTNEED);
#endif
}

void MappedFile::advise_dontneed(std::size_t offset,
                                 std::size_t length) const noexcept {
#if defined(RID_HAVE_MMAP)
  if (!mapped_ || data_ == nullptr) return;
  if (offset >= size_) return;
  length = std::min(length, size_ - offset);
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t first = (offset + page - 1) & ~(page - 1);
  const std::size_t last = (offset + length) & ~(page - 1);
  if (first >= last) return;  // range does not cover a whole page
  ::madvise(const_cast<std::byte*>(data_) + first, last - first,
            MADV_DONTNEED);
#else
  (void)offset;
  (void)length;
#endif
}

void MappedFile::close() noexcept {
  if (data_ != nullptr) {
#if defined(RID_HAVE_MMAP)
    if (mapped_) ::munmap(const_cast<std::byte*>(data_), size_);
#else
    delete[] data_;
#endif
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

// --- SpillableBuffer -------------------------------------------------------

SpillableBuffer::~SpillableBuffer() { reset(); }

SpillableBuffer::SpillableBuffer(SpillableBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_), spilled_(other.spilled_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.spilled_ = false;
}

SpillableBuffer& SpillableBuffer::operator=(SpillableBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    spilled_ = std::exchange(other.spilled_, false);
  }
  return *this;
}

SpillableBuffer SpillableBuffer::allocate(std::size_t bytes, bool spill) {
  SpillableBuffer out;
  if (bytes == 0) return out;
#if defined(RID_HAVE_MMAP)
  if (spill) {
    void* p = map_unlinked_tempfile(bytes);
    if (p != nullptr) {
      out.data_ = p;
      out.size_ = bytes;
      out.spilled_ = true;
      return out;
    }
    // Fall through: correctness over reclaimability.
  }
#else
  (void)spill;
#endif
  out.data_ = ::operator new(bytes);
  out.size_ = bytes;
  out.spilled_ = false;
  return out;
}

void SpillableBuffer::reset() noexcept {
  if (data_ != nullptr) {
#if defined(RID_HAVE_MMAP)
    if (spilled_) {
      ::munmap(data_, size_);
    } else {
      ::operator delete(data_);
    }
#else
    ::operator delete(data_);
#endif
  }
  data_ = nullptr;
  size_ = 0;
  spilled_ = false;
}

}  // namespace rid::util
