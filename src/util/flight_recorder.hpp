// Crash-surviving flight recorder: a bounded in-memory ring of structured
// operational events (job lifecycle, worker kills/requeues, failpoint hits,
// admission rejections, frame damage) that can be dumped as JSONL — on
// demand (`ridnet_cli stats --events`), at daemon shutdown, or from a
// fatal-signal handler so a crashed process still leaves its last ~N events
// on disk.
//
// Design constraints (see DESIGN.md §14):
//  * storage is a fixed static array of POD slots — recording never
//    allocates, so it is safe on error paths (including bad_alloc unwind);
//  * writers claim a slot with one atomic fetch_add and fill it under the
//    slot's one-flag guard; two records contend only when the ring wraps
//    onto the same slot (the newer seq wins), and readers try the guard
//    once and skip a slot that is mid-write instead of tearing it;
//  * the fatal-dump path uses only async-signal-safe primitives (open/
//    write/close, hand-rolled integer formatting, a guard try that never
//    waits) — no malloc, no stdio — as it runs in SIGSEGV/SIGABRT handlers;
//  * events older than the ring capacity are overwritten oldest-first; the
//    overwrite count is reported (`dropped`), never silent.
//
// The recorder is always compiled (like the metrics registry): every
// recording site fires at job/worker/frame granularity, never in a hot
// loop.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rid::util::flight {

/// Events kept before the ring wraps (oldest overwritten first).
inline constexpr std::size_t kRingCapacity = 256;
inline constexpr std::size_t kMaxCategoryLength = 23;
inline constexpr std::size_t kMaxMessageLength = 159;

/// One recorded event (fixed size; lives in the static ring).
struct Event {
  std::uint64_t seq = 0;   // global record order, counting from 1
  std::uint64_t t_ns = 0;  // trace::now_ns() monotonic timestamp
  char category[kMaxCategoryLength + 1] = {};
  char message[kMaxMessageLength + 1] = {};
};

/// Records one event (never allocates; truncates over-long fields; waits
/// only while a record a ring lap away or a reader holds its slot). Categories
/// are short dotted slugs mirroring the metrics naming ("serve.job",
/// "shard.worker", "net.frame", "failpoint").
void record(std::string_view category, std::string_view message) noexcept;

/// Point-in-time copy of the ring, oldest-first by seq. Slots that are
/// being overwritten concurrently are skipped, never torn.
std::vector<Event> snapshot();

/// Total events ever recorded / lost to wrap-around since reset().
std::uint64_t total_recorded() noexcept;
std::uint64_t dropped() noexcept;

/// Clears the ring (tests and daemon restarts).
void reset() noexcept;

/// snapshot() rendered as JSON Lines, one event per line:
///   {"seq": 12, "t_ns": 123, "category": "serve.job", "message": "..."}
std::string to_jsonl();

/// Writes to_jsonl() to `path` (truncating). False when the file cannot be
/// opened.
bool dump_jsonl_file(const std::string& path);

/// Async-signal-safe dump of the ring as JSONL to an open fd: write(2)
/// only, no allocation, never waits (a slot being written is skipped).
/// Used by the fatal-signal path; safe to call from normal code too.
void dump_jsonl_fd(int fd) noexcept;

/// Installs SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT handlers that dump the
/// ring to `path` and re-raise (so the default crash disposition — core
/// dump, nonzero wait status — is preserved). The path is copied into
/// static storage; calling again replaces it. No-op on platforms without
/// sigaction.
void install_fatal_dump(const std::string& path);

}  // namespace rid::util::flight
