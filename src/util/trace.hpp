// Low-overhead pipeline tracing: RAII spans recorded into per-thread ring
// buffers, exported as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Design (see DESIGN.md §9 "Observability"):
//  * recording is per-thread and lock-free — each thread owns a fixed-size
//    ring of SpanRecord slots and is the only writer; the global collector
//    only takes a lock to register rings and to snapshot;
//  * spans carry a name (copied into an inline buffer, so dynamic labels
//    are fine) plus up to kMaxTags key/value tags. Tag keys and string tag
//    values must be string literals or otherwise outlive the trace;
//  * timestamps come from a monotonic clock (now_ns); Chrome export is
//    relative to the start() call;
//  * recording is off until start() and stops at stop(); snapshots are
//    meant to be taken after stop() (a mid-run snapshot may miss records
//    that are being overwritten in a wrapped ring);
//  * span *content* (names, tags, counts) is deterministic across thread
//    counts for the instrumented pipeline — only timings and thread
//    attribution vary. Worker-infrastructure activity is deliberately kept
//    in the metrics registry (util/metrics.hpp), not the trace, to preserve
//    this.
//
// Compile-out: building with -DRID_TRACING=OFF (CMake) removes the
// RID_TRACING_ENABLED definition and every API below collapses to an
// inline no-op — except the TraceSpan clock, which stays live so callers
// (ScopedTimer, run diagnostics) can still read elapsed seconds. No ring
// is ever allocated and no output file is ever written in such builds.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rid::util::trace {

/// True when the library was built with tracing compiled in (RID_TRACING).
constexpr bool compiled() noexcept {
#if defined(RID_TRACING_ENABLED)
  return true;
#else
  return false;
#endif
}

/// Monotonic nanoseconds (steady_clock). Live in every build — span timing
/// and diagnostics use it even when tracing is compiled out.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One span tag. `sval` non-null means a string tag (static lifetime
/// required); otherwise `ival` holds an integer tag.
struct TagValue {
  const char* key = nullptr;
  const char* sval = nullptr;
  std::int64_t ival = 0;
};

inline constexpr std::size_t kMaxTags = 4;
inline constexpr std::size_t kMaxNameLength = 47;

/// POD record of one completed span (fixed size; lives in the ring).
struct SpanRecord {
  char name[kMaxNameLength + 1] = {};
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
  std::uint8_t num_tags = 0;
  TagValue tags[kMaxTags] = {};
};

/// Point-in-time copy of every recorded span, oldest-first per ring and
/// globally sorted by (start_ns, end_ns, name).
struct TraceSnapshot {
  std::vector<SpanRecord> spans;
  std::uint64_t start_ns = 0;  // now_ns() at the start() call
  std::uint64_t dropped = 0;   // spans lost to ring wrap-around
};

/// Aggregated per-span-name totals (the per-stage breakdown shown by
/// RunDiagnostics::summary()).
struct StageTotal {
  std::string name;
  std::uint64_t count = 0;
  double seconds = 0.0;
};

// --- Cross-process span merging (DESIGN.md §14) ---------------------------
//
// Shard workers run in their own processes; their spans arrive back at the
// parent in kTelemetry frames (core/shard_transport) and are staged here so
// chrome_trace_json() can emit one
// merged trace with correct pid/tid process metadata. Remote span strings
// are owned (they come off the wire, not from static literals). These
// structs stay available in RID_TRACING=OFF builds so the telemetry codec
// always compiles; the store functions below collapse to no-ops there.

/// One tag on a remote span (owned strings).
struct RemoteTag {
  std::string key;
  bool is_string = false;
  std::string sval;
  std::int64_t ival = 0;
};

/// One completed span from another process.
struct RemoteSpan {
  std::string name;
  std::uint64_t start_ns = 0;  // same CLOCK_MONOTONIC domain as now_ns():
  std::uint64_t end_ns = 0;    // workers share the host clock, no translation
  std::uint32_t tid = 0;
  std::vector<RemoteTag> tags;
};

/// All spans reported by one remote process (one worker attempt).
struct ProcessSpans {
  std::uint64_t pid = 0;
  std::string name;  // process_name label, e.g. "worker shard 2 attempt 1"
  std::uint64_t spans_dropped = 0;
  std::vector<RemoteSpan> spans;
};

/// Remote processes kept before the oldest is evicted (bounds daemon
/// memory across many jobs).
inline constexpr std::size_t kMaxRemoteProcesses = 128;

#if defined(RID_TRACING_ENABLED)

/// True between start() and stop().
bool enabled() noexcept;

/// Clears every ring and begins recording.
void start();

/// Stops recording (records already in the rings are kept for snapshot()).
void stop();

/// Stable per-thread index (registration order). 0 when tracing is not
/// enabled — the query must not allocate a ring for an idle trace.
std::uint32_t current_tid() noexcept;

/// Records an already-timed span, e.g. one measured on a worker thread but
/// tagged and emitted later once its outcome is known. `tid` attributes the
/// span to the thread that did the work (use current_tid() there).
void emit_span(std::string_view name, std::uint64_t start_ns,
               std::uint64_t end_ns, std::uint32_t tid,
               std::span<const TagValue> tags);

TraceSnapshot snapshot();

/// Per-name {count, total seconds} over the current snapshot, name-sorted.
std::vector<StageTotal> aggregate_stage_totals();

/// Chrome trace-event JSON ("traceEvents" array of complete events). With
/// remote processes staged (add_remote_process), the output is a merged
/// multi-process trace: real pids, process_name/thread_name metadata per
/// process, remote spans on their own pid lanes, droppedSpans summed
/// across processes. With none staged it is byte-identical to the
/// single-process format of earlier releases (pid 1).
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; false when the file cannot be
/// opened. (The RID_TRACING=OFF overload never creates the file.)
bool write_chrome_trace_file(const std::string& path);

/// Stages spans from another process for the next chrome_trace_json().
/// Keeps at most kMaxRemoteProcesses entries (oldest evicted, its dropped
/// count folded into the survivor accounting). Cleared by start().
void add_remote_process(ProcessSpans process);

/// Copies of the staged remote processes (merge order).
std::vector<ProcessSpans> remote_processes();

/// Spans lost remotely: sum of per-process spans_dropped plus spans lost
/// with evicted processes.
std::uint64_t remote_spans_dropped() noexcept;

void clear_remote_processes();

/// RAII span: times a scope and records it on destruction when tracing is
/// enabled. Construction snapshots the clock unconditionally so seconds()
/// works with tracing idle or compiled out (ScopedTimer relies on this).
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) noexcept
      : start_(now_ns()), active_(enabled()) {
    if (active_) {
      const std::size_t n = std::min(name.size(), kMaxNameLength);
      std::memcpy(name_, name.data(), n);
      name_[n] = '\0';
    }
  }

  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void tag(const char* key, std::int64_t value) noexcept {
    if (active_ && num_tags_ < kMaxTags)
      tags_[num_tags_++] = {key, nullptr, value};
  }

  void tag(const char* key, const char* literal) noexcept {
    if (active_ && num_tags_ < kMaxTags)
      tags_[num_tags_++] = {key, literal, 0};
  }

  /// Elapsed seconds since construction (always live).
  double seconds() const noexcept {
    return static_cast<double>(now_ns() - start_) * 1e-9;
  }

 private:
  std::uint64_t start_;
  bool active_;
  std::uint8_t num_tags_ = 0;
  char name_[kMaxNameLength + 1];
  TagValue tags_[kMaxTags];
};

#else  // !RID_TRACING_ENABLED — whole API collapses to inline no-ops.

inline bool enabled() noexcept { return false; }
inline void start() noexcept {}
inline void stop() noexcept {}
inline std::uint32_t current_tid() noexcept { return 0; }
inline void emit_span(std::string_view, std::uint64_t, std::uint64_t,
                      std::uint32_t, std::span<const TagValue>) noexcept {}
inline TraceSnapshot snapshot() { return {}; }
inline std::vector<StageTotal> aggregate_stage_totals() { return {}; }
inline std::string chrome_trace_json() { return {}; }
inline bool write_chrome_trace_file(const std::string&) { return false; }
inline void add_remote_process(ProcessSpans) {}
inline std::vector<ProcessSpans> remote_processes() { return {}; }
inline std::uint64_t remote_spans_dropped() noexcept { return 0; }
inline void clear_remote_processes() {}

class TraceSpan {
 public:
  explicit TraceSpan(std::string_view) noexcept : start_(now_ns()) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void tag(const char*, std::int64_t) noexcept {}
  void tag(const char*, const char*) noexcept {}

  double seconds() const noexcept {
    return static_cast<double>(now_ns() - start_) * 1e-9;
  }

 private:
  std::uint64_t start_;
};

#endif  // RID_TRACING_ENABLED

}  // namespace rid::util::trace
