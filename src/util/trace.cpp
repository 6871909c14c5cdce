#include "util/trace.hpp"

#if defined(RID_TRACING_ENABLED)

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "util/metrics.hpp"
#include "util/proc_supervisor.hpp"

#ifndef _WIN32
#include <pthread.h>
#endif

namespace rid::util::trace {

namespace {

/// Spans kept per thread before the ring wraps (oldest records drop first).
constexpr std::size_t kRingCapacity = 1 << 14;

struct ThreadRing {
  std::uint32_t tid = 0;
  /// Total records ever pushed; the owning thread is the only writer and
  /// publishes each record with a release store so snapshot readers never
  /// see a half-written slot below the count they load.
  std::atomic<std::uint64_t> count{0};
  std::vector<SpanRecord> slots;
};

struct Collector {
  std::atomic<bool> enabled{false};
  std::uint64_t trace_start_ns = 0;
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::uint32_t next_tid = 0;
};

Collector& collector() {
  static Collector instance;
  return instance;
}

// The shared_ptr keeps a ring (and its records) alive in the collector
// after its thread exits — pool workers are short-lived but their spans
// must survive until export.
thread_local std::shared_ptr<ThreadRing> t_ring;

ThreadRing& local_ring() {
  if (!t_ring) {
    auto ring = std::make_shared<ThreadRing>();
    ring->slots.resize(kRingCapacity);
    Collector& c = collector();
    const std::lock_guard<std::mutex> lock(c.mutex);
    ring->tid = c.next_tid++;
    c.rings.push_back(ring);
    t_ring = std::move(ring);
  }
  return *t_ring;
}

void push_record(const SpanRecord& record) {
  ThreadRing& ring = local_ring();
  const std::uint64_t n = ring.count.load(std::memory_order_relaxed);
  if (n >= kRingCapacity) {
    // The slot being written over holds the ring's oldest span: wrap-around
    // loss. Counted here (not just derived at snapshot time) so the drop is
    // visible live in the metrics registry and in RunDiagnostics.
    static metrics::Counter& drops =
        metrics::global().counter("trace.spans_dropped");
    drops.add(1);
  }
  ring.slots[n % kRingCapacity] = record;
  ring.count.store(n + 1, std::memory_order_release);
}

/// Spans merged in from other processes (worker telemetry). Guarded by its
/// own mutex — recorded on dispatcher/supervisor threads while local
/// tracing continues.
struct RemoteStore {
  std::mutex mutex;
  std::vector<ProcessSpans> processes;
  std::uint64_t evicted_dropped = 0;  // spans lost with evicted processes
};

RemoteStore& remote_store() {
  static RemoteStore instance;
  return instance;
}

#ifndef _WIN32
// A forked shard worker restarts the trace (start() takes both locks) while
// the parent's stream threads may be merging worker spans: hold both across
// fork() (see util/failpoint.cpp).
[[maybe_unused]] const int kForkHandlers = ::pthread_atfork(
    [] {
      remote_store().mutex.lock();
      collector().mutex.lock();
    },
    [] {
      collector().mutex.unlock();
      remote_store().mutex.unlock();
    },
    [] {
      collector().mutex.unlock();
      remote_store().mutex.unlock();
    });
#endif

double rel_us(std::uint64_t t, std::uint64_t base) {
  // Workers share the host monotonic clock, but a clock read racing the
  // parent's start() can land a hair early — keep the sign instead of
  // wrapping the unsigned difference.
  return t >= base ? static_cast<double>(t - base) * 1e-3
                   : -static_cast<double>(base - t) * 1e-3;
}

}  // namespace

bool enabled() noexcept {
  return collector().enabled.load(std::memory_order_acquire);
}

void start() {
  clear_remote_processes();
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  for (const auto& ring : c.rings)
    ring->count.store(0, std::memory_order_relaxed);
  c.trace_start_ns = now_ns();
  c.enabled.store(true, std::memory_order_release);
}

void stop() { collector().enabled.store(false, std::memory_order_release); }

std::uint32_t current_tid() noexcept {
  if (!enabled()) return 0;
  return local_ring().tid;
}

void emit_span(std::string_view name, std::uint64_t start_ns,
               std::uint64_t end_ns, std::uint32_t tid,
               std::span<const TagValue> tags) {
  if (!enabled()) return;
  SpanRecord record;
  const std::size_t n = std::min(name.size(), kMaxNameLength);
  std::memcpy(record.name, name.data(), n);
  record.name[n] = '\0';
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.tid = tid;
  record.num_tags =
      static_cast<std::uint8_t>(std::min(tags.size(), kMaxTags));
  for (std::size_t i = 0; i < record.num_tags; ++i) record.tags[i] = tags[i];
  push_record(record);
}

TraceSpan::~TraceSpan() {
  if (!active_ || !enabled()) return;
  SpanRecord record;
  std::memcpy(record.name, name_, sizeof(record.name));
  record.start_ns = start_;
  record.end_ns = now_ns();
  record.tid = local_ring().tid;
  record.num_tags = num_tags_;
  for (std::size_t i = 0; i < num_tags_; ++i) record.tags[i] = tags_[i];
  push_record(record);
}

TraceSnapshot snapshot() {
  TraceSnapshot out;
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  out.start_ns = c.trace_start_ns;
  for (const auto& ring : c.rings) {
    const std::uint64_t n = ring->count.load(std::memory_order_acquire);
    const std::uint64_t take = std::min<std::uint64_t>(n, kRingCapacity);
    out.dropped += n - take;
    for (std::uint64_t i = 0; i < take; ++i)
      out.spans.push_back(ring->slots[(n - take + i) % kRingCapacity]);
  }
  std::sort(out.spans.begin(), out.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.end_ns != b.end_ns) return a.end_ns < b.end_ns;
              return std::strcmp(a.name, b.name) < 0;
            });
  return out;
}

std::vector<StageTotal> aggregate_stage_totals() {
  const TraceSnapshot snap = snapshot();
  std::map<std::string, StageTotal> totals;
  for (const SpanRecord& span : snap.spans) {
    StageTotal& total = totals[span.name];
    ++total.count;
    total.seconds +=
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  std::vector<StageTotal> out;
  out.reserve(totals.size());
  for (auto& [name, total] : totals) {
    total.name = name;
    out.push_back(std::move(total));
  }
  return out;
}

namespace {

/// Single-process format, unchanged from earlier releases: every event on
/// pid 1, no process metadata. Kept byte-identical so existing trace
/// consumers (and the untagged check_trace.py mode) see no difference when
/// no worker telemetry was merged.
std::string chrome_trace_json_single(const TraceSnapshot& snap) {
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  // Thread-name metadata so Perfetto labels the lanes.
  std::map<std::uint32_t, bool> tids;
  for (const SpanRecord& span : snap.spans) tids.emplace(span.tid, true);
  bool first = true;
  for (const auto& [tid, unused] : tids) {
    if (!first) out << ",\n";
    first = false;
    out << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": "
        << tid << ", \"args\": {\"name\": \""
        << (tid == 0 ? std::string("main") : "worker-" + std::to_string(tid))
        << "\"}}";
  }
  for (const SpanRecord& span : snap.spans) {
    if (!first) out << ",\n";
    first = false;
    // Complete ("X") events; timestamps in microseconds relative to start().
    out << "  {\"name\": ";
    out << metrics::json_quote(span.name);
    out << ", \"cat\": \"rid\", \"ph\": \"X\", \"ts\": "
        << static_cast<double>(span.start_ns - snap.start_ns) * 1e-3
        << ", \"dur\": "
        << static_cast<double>(span.end_ns - span.start_ns) * 1e-3
        << ", \"pid\": 1, \"tid\": " << span.tid;
    if (span.num_tags > 0) {
      out << ", \"args\": {";
      for (std::size_t i = 0; i < span.num_tags; ++i) {
        if (i) out << ", ";
        out << metrics::json_quote(span.tags[i].key);
        out << ": ";
        if (span.tags[i].sval) {
          out << metrics::json_quote(span.tags[i].sval);
        } else {
          out << span.tags[i].ival;
        }
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"";
  if (snap.dropped > 0) out << ", \"droppedSpans\": " << snap.dropped;
  out << "}\n";
  return out.str();
}

/// Merged multi-process format: each process gets its real pid, a
/// process_name metadata event, and per-(pid, tid) thread_name lanes.
/// Worker timestamps share the host CLOCK_MONOTONIC, so every ts is simply
/// relative to the parent's start() — no clock translation.
std::string chrome_trace_json_merged(const TraceSnapshot& snap,
                                     const std::vector<ProcessSpans>& remote,
                                     std::uint64_t remote_dropped) {
  const std::uint64_t pid = own_pid();
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  const auto meta = [&](const char* what, std::uint64_t p, std::int64_t tid,
                        const std::string& name) {
    if (!first) out << ",\n";
    first = false;
    out << "  {\"name\": \"" << what << "\", \"ph\": \"M\", \"pid\": " << p;
    if (tid >= 0) out << ", \"tid\": " << tid;
    out << ", \"args\": {\"name\": ";
    out << metrics::json_quote(name);
    out << "}}";
  };
  meta("process_name", pid, -1, "parent");
  for (const ProcessSpans& p : remote) meta("process_name", p.pid, -1, p.name);
  std::set<std::pair<std::uint64_t, std::uint32_t>> lanes;
  for (const SpanRecord& span : snap.spans) lanes.emplace(pid, span.tid);
  for (const ProcessSpans& p : remote)
    for (const RemoteSpan& span : p.spans) lanes.emplace(p.pid, span.tid);
  for (const auto& [lane_pid, tid] : lanes) {
    const bool local = lane_pid == pid;
    meta("thread_name", lane_pid, static_cast<std::int64_t>(tid),
         tid == 0 ? std::string(local ? "main" : "worker-main")
                  : "worker-" + std::to_string(tid));
  }
  const auto event = [&](std::string_view name, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::uint64_t p,
                         std::uint32_t tid) {
    if (!first) out << ",\n";
    first = false;
    out << "  {\"name\": ";
    out << metrics::json_quote(name);
    out << ", \"cat\": \"rid\", \"ph\": \"X\", \"ts\": "
        << rel_us(start_ns, snap.start_ns)
        << ", \"dur\": " << static_cast<double>(end_ns - start_ns) * 1e-3
        << ", \"pid\": " << p << ", \"tid\": " << tid;
  };
  for (const SpanRecord& span : snap.spans) {
    event(span.name, span.start_ns, span.end_ns, pid, span.tid);
    if (span.num_tags > 0) {
      out << ", \"args\": {";
      for (std::size_t i = 0; i < span.num_tags; ++i) {
        if (i) out << ", ";
        out << metrics::json_quote(span.tags[i].key);
        out << ": ";
        if (span.tags[i].sval) {
          out << metrics::json_quote(span.tags[i].sval);
        } else {
          out << span.tags[i].ival;
        }
      }
      out << "}";
    }
    out << "}";
  }
  for (const ProcessSpans& p : remote) {
    for (const RemoteSpan& span : p.spans) {
      event(span.name, span.start_ns, span.end_ns, p.pid, span.tid);
      if (!span.tags.empty()) {
        out << ", \"args\": {";
        for (std::size_t i = 0; i < span.tags.size(); ++i) {
          if (i) out << ", ";
          out << metrics::json_quote(span.tags[i].key);
          out << ": ";
          if (span.tags[i].is_string) {
            out << metrics::json_quote(span.tags[i].sval);
          } else {
            out << span.tags[i].ival;
          }
        }
        out << "}";
      }
      out << "}";
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"";
  const std::uint64_t dropped = snap.dropped + remote_dropped;
  if (dropped > 0) out << ", \"droppedSpans\": " << dropped;
  out << "}\n";
  return out.str();
}

}  // namespace

std::string chrome_trace_json() {
  const TraceSnapshot snap = snapshot();
  std::vector<ProcessSpans> remote;
  std::uint64_t remote_dropped = 0;
  {
    RemoteStore& store = remote_store();
    const std::lock_guard<std::mutex> lock(store.mutex);
    remote = store.processes;
    remote_dropped = store.evicted_dropped;
    for (const ProcessSpans& p : store.processes)
      remote_dropped += p.spans_dropped;
  }
  if (remote.empty()) return chrome_trace_json_single(snap);
  return chrome_trace_json_merged(snap, remote, remote_dropped);
}

void add_remote_process(ProcessSpans process) {
  RemoteStore& store = remote_store();
  const std::lock_guard<std::mutex> lock(store.mutex);
  if (store.processes.size() >= kMaxRemoteProcesses) {
    const ProcessSpans& oldest = store.processes.front();
    store.evicted_dropped += oldest.spans_dropped + oldest.spans.size();
    store.processes.erase(store.processes.begin());
  }
  store.processes.push_back(std::move(process));
}

std::vector<ProcessSpans> remote_processes() {
  RemoteStore& store = remote_store();
  const std::lock_guard<std::mutex> lock(store.mutex);
  return store.processes;
}

std::uint64_t remote_spans_dropped() noexcept {
  RemoteStore& store = remote_store();
  const std::lock_guard<std::mutex> lock(store.mutex);
  std::uint64_t total = store.evicted_dropped;
  for (const ProcessSpans& p : store.processes) total += p.spans_dropped;
  return total;
}

void clear_remote_processes() {
  RemoteStore& store = remote_store();
  const std::lock_guard<std::mutex> lock(store.mutex);
  store.processes.clear();
  store.evicted_dropped = 0;
}

bool write_chrome_trace_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  const std::string json = chrome_trace_json();
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  return true;
}

}  // namespace rid::util::trace

#endif  // RID_TRACING_ENABLED
