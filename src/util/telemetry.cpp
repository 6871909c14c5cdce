#include "util/telemetry.hpp"

#include <utility>

#include "util/errors.hpp"
#include "util/proc_supervisor.hpp"
#include "util/wire.hpp"

namespace rid::util::telemetry {

namespace {

constexpr const char* kContext = "telemetry payload";

}  // namespace

std::string encode(const WorkerTelemetry& t) {
  std::string out;
  wire::put_u32(out, kTelemetryVersion);
  wire::put_u64(out, t.trace_id);
  wire::put_u64(out, t.spans.pid);
  wire::put_bytes(out, t.spans.name);
  wire::put_u64(out, t.spans.spans_dropped);
  wire::put_u32(out, static_cast<std::uint32_t>(t.spans.spans.size()));
  for (const trace::RemoteSpan& span : t.spans.spans) {
    wire::put_bytes(out, span.name);
    wire::put_u64(out, span.start_ns);
    wire::put_u64(out, span.end_ns);
    wire::put_u32(out, span.tid);
    wire::put_u8(out, static_cast<std::uint8_t>(span.tags.size()));
    for (const trace::RemoteTag& tag : span.tags) {
      wire::put_bytes(out, tag.key);
      wire::put_u8(out, tag.is_string ? 1 : 0);
      if (tag.is_string) {
        wire::put_bytes(out, tag.sval);
      } else {
        wire::put_i64(out, tag.ival);
      }
    }
  }
  wire::put_u32(out, static_cast<std::uint32_t>(t.metrics.counters.size()));
  for (const metrics::CounterSample& c : t.metrics.counters) {
    wire::put_bytes(out, c.name);
    wire::put_u64(out, c.value);
  }
  wire::put_u32(out, static_cast<std::uint32_t>(t.metrics.gauges.size()));
  for (const metrics::GaugeSample& g : t.metrics.gauges) {
    wire::put_bytes(out, g.name);
    wire::put_f64(out, g.value);
  }
  wire::put_u32(out, static_cast<std::uint32_t>(t.metrics.histograms.size()));
  for (const metrics::HistogramSample& h : t.metrics.histograms) {
    wire::put_bytes(out, h.name);
    wire::put_u64(out, h.count);
    wire::put_u64(out, h.sum);
    wire::put_u64(out, h.min);
    wire::put_u64(out, h.max);
    wire::put_u32(out, static_cast<std::uint32_t>(h.buckets.size()));
    for (const auto& [le, n] : h.buckets) {
      wire::put_u64(out, le);
      wire::put_u64(out, n);
    }
  }
  return out;
}

WorkerTelemetry decode(std::string_view payload) {
  wire::Reader r(payload, kContext);
  const std::uint32_t version = r.u32();
  if (version != kTelemetryVersion) {
    throw InputError(std::string(kContext) + ": version skew (got " +
                     std::to_string(version) + ", want " +
                     std::to_string(kTelemetryVersion) + ")");
  }
  WorkerTelemetry t;
  t.trace_id = r.u64();
  t.spans.pid = r.u64();
  t.spans.name = r.str();
  t.spans.spans_dropped = r.u64();
  // Minimum encoded sizes: a span is an empty name (4) + start/end (16) +
  // tid (4) + tag count (1); a tag an empty key (4) + kind (1) + an empty
  // string value (4).
  const std::size_t num_spans = r.count(r.u32(), 25);
  t.spans.spans.reserve(num_spans);
  for (std::size_t i = 0; i < num_spans; ++i) {
    trace::RemoteSpan span;
    span.name = r.str();
    span.start_ns = r.u64();
    span.end_ns = r.u64();
    span.tid = r.u32();
    const std::size_t num_tags = r.count(r.u8(), 9);
    span.tags.reserve(num_tags);
    for (std::size_t k = 0; k < num_tags; ++k) {
      trace::RemoteTag tag;
      tag.key = r.str();
      tag.is_string = r.u8() != 0;
      if (tag.is_string) {
        tag.sval = r.str();
      } else {
        tag.ival = r.i64();
      }
      span.tags.push_back(std::move(tag));
    }
    t.spans.spans.push_back(std::move(span));
  }
  const std::size_t num_counters = r.count(r.u32(), 4 + 8);
  t.metrics.counters.reserve(num_counters);
  for (std::size_t i = 0; i < num_counters; ++i) {
    metrics::CounterSample c;
    c.name = r.str();
    c.value = r.u64();
    t.metrics.counters.push_back(std::move(c));
  }
  const std::size_t num_gauges = r.count(r.u32(), 4 + 8);
  t.metrics.gauges.reserve(num_gauges);
  for (std::size_t i = 0; i < num_gauges; ++i) {
    metrics::GaugeSample g;
    g.name = r.str();
    g.value = r.f64();
    t.metrics.gauges.push_back(std::move(g));
  }
  const std::size_t num_histograms = r.count(r.u32(), 4 + 4 * 8 + 4);
  t.metrics.histograms.reserve(num_histograms);
  for (std::size_t i = 0; i < num_histograms; ++i) {
    metrics::HistogramSample h;
    h.name = r.str();
    h.count = r.u64();
    h.sum = r.u64();
    h.min = r.u64();
    h.max = r.u64();
    const std::size_t num_buckets = r.count(r.u32(), 8 + 8);
    h.buckets.reserve(num_buckets);
    for (std::size_t b = 0; b < num_buckets; ++b) {
      const std::uint64_t le = r.u64();
      const std::uint64_t n = r.u64();
      h.buckets.emplace_back(le, n);
    }
    t.metrics.histograms.push_back(std::move(h));
  }
  r.expect_done();
  return t;
}

WorkerTelemetry collect(std::uint64_t trace_id, std::string process_label) {
  WorkerTelemetry t;
  t.trace_id = trace_id;
  t.spans.pid = own_pid();
  t.spans.name = std::move(process_label);
  const trace::TraceSnapshot snap = trace::snapshot();
  t.spans.spans_dropped = snap.dropped;
  t.spans.spans.reserve(snap.spans.size());
  for (const trace::SpanRecord& record : snap.spans) {
    trace::RemoteSpan span;
    span.name = record.name;
    span.start_ns = record.start_ns;
    span.end_ns = record.end_ns;
    span.tid = record.tid;
    span.tags.reserve(record.num_tags);
    for (std::uint8_t i = 0; i < record.num_tags; ++i) {
      const trace::TagValue& tag = record.tags[i];
      trace::RemoteTag out;
      out.key = tag.key != nullptr ? tag.key : "";
      out.is_string = tag.sval != nullptr;
      if (out.is_string) {
        out.sval = tag.sval;
      } else {
        out.ival = tag.ival;
      }
      span.tags.push_back(std::move(out));
    }
    t.spans.spans.push_back(std::move(span));
  }
  t.metrics = metrics::global().snapshot();
  return t;
}

void merge_into_process(WorkerTelemetry telemetry) {
  metrics::global().merge(telemetry.metrics);
  if (!telemetry.spans.spans.empty() || telemetry.spans.spans_dropped > 0) {
    trace::add_remote_process(std::move(telemetry.spans));
  }
}

}  // namespace rid::util::telemetry
