#include "util/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/trace.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

namespace rid::util::flight {
namespace {

// Per-slot guard: a writer claims seq = g_seq.fetch_add(1)+1 and spins on
// its slot's guard, which only another record a whole lap away (or a
// reader's copy) can hold; the newer seq wins the slot. Readers try the
// guard once and skip a busy slot, so the fatal-signal dump never spins.
struct Slot {
  std::atomic<bool> busy{false};
  Event event;

  bool try_lock() noexcept {
    return !busy.exchange(true, std::memory_order_acquire);
  }
  void lock() noexcept { while (!try_lock()) continue; }
  void unlock() noexcept { busy.store(false, std::memory_order_release); }
};

Slot g_ring[kRingCapacity];
std::atomic<std::uint64_t> g_seq{0};

void copy_field(char* dst, std::size_t cap, std::string_view src) noexcept {
  const std::size_t n = src.size() < cap ? src.size() : cap;
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

// --- async-signal-safe formatting helpers (no allocation, no locks) ---

std::size_t format_u64(std::uint64_t value, char* out) noexcept {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

// Escapes `src` (NUL-terminated) into `out` as JSON string contents.
// Returns bytes written; guarantees < cap (truncates over-long input —
// cannot happen for ring fields given the buffer sizes below).
std::size_t escape_json(const char* src, char* out, std::size_t cap) noexcept {
  static const char kHex[] = "0123456789abcdef";
  std::size_t n = 0;
  for (const char* p = src; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (n + 8 > cap) break;
    if (c == '"' || c == '\\') {
      out[n++] = '\\';
      out[n++] = static_cast<char>(c);
    } else if (c == '\n') {
      out[n++] = '\\';
      out[n++] = 'n';
    } else if (c == '\t') {
      out[n++] = '\\';
      out[n++] = 't';
    } else if (c < 0x20) {
      out[n++] = '\\';
      out[n++] = 'u';
      out[n++] = '0';
      out[n++] = '0';
      out[n++] = kHex[(c >> 4) & 0xF];
      out[n++] = kHex[c & 0xF];
    } else {
      out[n++] = static_cast<char>(c);
    }
  }
  return n;
}

// Formats one event as a JSONL line into `out`. Buffer must hold the
// worst case: fixed syntax + 2x u64 + escaped category + escaped message
// (every byte can expand 6x as \u00XX), comfortably under 1.5 KiB.
std::size_t format_event_line(const Event& e, char* out) noexcept {
  std::size_t n = 0;
  const auto lit = [&](const char* s) {
    while (*s != '\0') out[n++] = *s++;
  };
  lit("{\"seq\": ");
  n += format_u64(e.seq, out + n);
  lit(", \"t_ns\": ");
  n += format_u64(e.t_ns, out + n);
  lit(", \"category\": \"");
  n += escape_json(e.category, out + n, kMaxCategoryLength * 6 + 8);
  lit("\", \"message\": \"");
  n += escape_json(e.message, out + n, kMaxMessageLength * 6 + 8);
  lit("\"}\n");
  return n;
}

constexpr std::size_t kLineBufferSize =
    64 + (kMaxCategoryLength + kMaxMessageLength) * 6 + 32;

#ifndef _WIN32
void write_all(int fd, const char* data, std::size_t size) noexcept {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t w = ::write(fd, data + off, size - off);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(w);
  }
}

char g_fatal_path[512] = {};

void fatal_signal_handler(int sig) noexcept {
  // SA_RESETHAND restored the default disposition before we got here, so
  // re-raising after the dump produces the normal crash (core + wait
  // status). O_APPEND keeps a pre-existing dump from a clean shutdown.
  const int fd = ::open(g_fatal_path, O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    char line[kLineBufferSize];
    std::size_t n = 0;
    const auto lit = [&](const char* s) {
      while (*s != '\0') line[n++] = *s++;
    };
    lit("{\"seq\": 0, \"t_ns\": 0, \"category\": \"fatal\", \"message\": "
        "\"signal ");
    n += format_u64(static_cast<std::uint64_t>(sig), line + n);
    lit(" received; dumping flight recorder\"}\n");
    write_all(fd, line, n);
    dump_jsonl_fd(fd);
    ::close(fd);
  }
  ::raise(sig);
}
#endif  // !_WIN32

}  // namespace

void record(std::string_view category, std::string_view message) noexcept {
  const std::uint64_t seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t t_ns = trace::now_ns();
  Slot& slot = g_ring[(seq - 1) % kRingCapacity];
  slot.lock();
  if (slot.event.seq < seq) {
    slot.event.seq = seq;
    slot.event.t_ns = t_ns;
    copy_field(slot.event.category, kMaxCategoryLength, category);
    copy_field(slot.event.message, kMaxMessageLength, message);
  }
  slot.unlock();
}

std::vector<Event> snapshot() {
  std::vector<Event> out;
  out.reserve(kRingCapacity);
  for (Slot& slot : g_ring) {
    if (!slot.try_lock()) continue;  // mid-write: skip
    const Event copy = slot.event;
    slot.unlock();
    if (copy.seq != 0) out.push_back(copy);
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

std::uint64_t total_recorded() noexcept {
  return g_seq.load(std::memory_order_relaxed);
}

std::uint64_t dropped() noexcept {
  const std::uint64_t total = total_recorded();
  return total > kRingCapacity ? total - kRingCapacity : 0;
}

void reset() noexcept {
  for (Slot& slot : g_ring) {
    slot.lock();
    slot.event = Event{};
    slot.unlock();
  }
  g_seq.store(0, std::memory_order_relaxed);
}

std::string to_jsonl() {
  std::string out;
  char line[kLineBufferSize];
  for (const Event& e : snapshot()) {
    out.append(line, format_event_line(e, line));
  }
  return out;
}

bool dump_jsonl_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string body = to_jsonl();
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

void dump_jsonl_fd(int fd) noexcept {
#ifndef _WIN32
  char line[kLineBufferSize];
  // Walk slots in ring order; ordering by seq would need a sort, which
  // is fine to skip under a fatal signal (consumers sort by "seq").
  for (Slot& slot : g_ring) {
    if (!slot.try_lock()) continue;  // mid-write, maybe by this thread
    const std::size_t n = slot.event.seq != 0
                              ? format_event_line(slot.event, line)
                              : 0;
    slot.unlock();
    write_all(fd, line, n);
  }
#else
  (void)fd;
#endif
}

void install_fatal_dump(const std::string& path) {
#ifndef _WIN32
  std::size_t n = path.size();
  if (n >= sizeof(g_fatal_path)) n = sizeof(g_fatal_path) - 1;
  std::memcpy(g_fatal_path, path.data(), n);
  g_fatal_path[n] = '\0';
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = fatal_signal_handler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::sigaction(sig, &sa, nullptr);
  }
#else
  (void)path;
#endif
}

}  // namespace rid::util::flight
