// Little-endian wire (de)serialization primitives shared by every framed
// byte format in the tree: the checkpoint record stream (core/checkpoint),
// the shard-worker socket protocol (core/shard_transport), and the serve
// job journal (core/serve). One canonical implementation keeps the formats
// byte-compatible with each other — a checkpoint record payload is valid as
// a socket frame payload verbatim — and with the stdlib Python re-readers
// under scripts/.
//
// Writers append to a std::string; the Reader is bounds-checked and throws
// util::InputError on underflow, so a truncated or garbled payload can
// never read out of bounds. Doubles travel as raw IEEE-754 bit patterns
// (bit-identity across machines is part of the resume contract).
//
// All three formats frame their records the same way:
//
//     u32 payload length | u32 FNV-1a32 checksum of payload | payload
//
// put_frame() is the one encoder; FrameScanner walks a buffered stream of
// such records (checkpoint files, the journal) and stops at the first torn
// or damaged one; decode_frame_header() is all the incremental socket
// reader (util/net) shares.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "util/errors.hpp"
#include "util/fnv.hpp"

namespace rid::util::wire {

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// Signed 64-bit as its two's-complement bit pattern (span tag values can
/// legitimately be negative).
inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

inline void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Length-prefixed byte string (u32 length + raw bytes).
inline void put_bytes(std::string& out, std::string_view bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

/// Bounds-checked reader over a payload. `context` prefixes every error so
/// the caller's format name survives into diagnostics ("checkpoint record:
/// payload truncated", "serve journal: payload truncated", ...).
class Reader {
 public:
  explicit Reader(std::string_view data,
                  const char* context = "wire payload")
      : data_(data), context_(context) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint32_t u32() {
    const auto* p = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    const auto* p = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string bytes(std::size_t n) {
    const auto* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }

  /// Length-prefixed byte string (inverse of put_bytes).
  std::string str() { return bytes(u32()); }

  /// Validates a count just decoded from the payload before anything is
  /// sized by it: each of the `n` elements still to come needs at least
  /// `min_element_bytes`, so a garbled count throws instead of driving a
  /// huge reserve(). Returns `n`.
  std::size_t count(std::uint64_t n, std::size_t min_element_bytes) const {
    const std::size_t left = data_.size() - pos_;
    if (n > left / min_element_bytes)
      throw InputError(std::string(context_) + ": count " +
                       std::to_string(n) + " exceeds the " +
                       std::to_string(left) + " bytes left");
    return static_cast<std::size_t>(n);
  }

  bool done() const noexcept { return pos_ == data_.size(); }

  /// Throws unless the payload was consumed exactly.
  void expect_done() const {
    if (!done())
      throw InputError(std::string(context_) + ": trailing bytes in payload");
  }

 private:
  const unsigned char* take(std::size_t n) {
    if (data_.size() - pos_ < n)
      throw InputError(std::string(context_) + ": payload truncated");
    const auto* p =
        reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    pos_ += n;
    return p;
  }

  std::string_view data_;
  const char* context_;
  std::size_t pos_ = 0;
};

inline constexpr std::size_t kFrameHeaderSize = 8;

/// Appends one framed record: length, checksum, payload.
inline void put_frame(std::string& out, std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, fnv1a32(payload));
  out.append(payload);
}

/// (length, checksum) from the kFrameHeaderSize bytes before a payload.
inline std::pair<std::uint32_t, std::uint32_t> decode_frame_header(
    std::string_view header) {
  Reader in(header.substr(0, kFrameHeaderSize), "frame header");
  const std::uint32_t length = in.u32();
  return {length, in.u32()};
}

/// Walks a buffered stream of framed records. next() yields each
/// checksum-clean payload in order; any other status is the stream's end
/// or the first damage, after which the scanner stays put — readers keep
/// the valid prefix and decide what the damage means.
class FrameScanner {
 public:
  enum class Status {
    kRecord,       // *payload holds the next record's payload
    kEnd,          // clean end of stream
    kTornHeader,   // fewer than kFrameHeaderSize bytes left
    kTornPayload,  // the header promises more bytes than are left
    kBadChecksum,  // the payload does not match its checksum
  };

  explicit FrameScanner(std::string_view stream) : stream_(stream) {}

  Status next(std::string_view* payload) {
    if (remaining() == 0) return Status::kEnd;
    if (remaining() < kFrameHeaderSize) return Status::kTornHeader;
    std::uint32_t checksum = 0;
    std::tie(length_, checksum) = decode_frame_header(stream_.substr(pos_));
    if (remaining() - kFrameHeaderSize < length_) return Status::kTornPayload;
    const std::string_view body =
        stream_.substr(pos_ + kFrameHeaderSize, length_);
    if (fnv1a32(body) != checksum) return Status::kBadChecksum;
    pos_ += kFrameHeaderSize + length_;
    *payload = body;
    return Status::kRecord;
  }

  /// Bytes not yet consumed (at damage: from the damaged record on).
  std::size_t remaining() const noexcept { return stream_.size() - pos_; }
  /// Payload length the last decoded header declared (for kTornPayload).
  std::uint32_t declared_length() const noexcept { return length_; }

 private:
  std::string_view stream_;
  std::size_t pos_ = 0;
  std::uint32_t length_ = 0;
};

}  // namespace rid::util::wire
