// Worker telemetry: the bundle a shard-worker process reports back to its
// parent — its span rings and its metrics registry, stamped with the run's
// trace id — plus the codec that moves it across process boundaries.
//
// Every worker, forked or exec'd, sends it as one checksummed kTelemetry
// frame right before kDone, and the dispatcher's stream phase merges it
// (core/shard_transport, DESIGN.md §14). That frame is the only way
// telemetry comes into the parent.
//
// Telemetry is strictly best-effort: a damaged frame bumps the
// "telemetry.damaged" counter and is otherwise ignored — detection results
// never depend on it. The codec is always compiled; in RID_TRACING=OFF
// builds collect() simply carries no spans (the metrics half still flows).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rid::util::telemetry {

/// Payload format version (bumped on any layout change; decode throws on
/// mismatch, which callers treat as damage).
inline constexpr std::uint32_t kTelemetryVersion = 1;

/// Everything one worker attempt reports back.
struct WorkerTelemetry {
  std::uint64_t trace_id = 0;  // echoed from the assignment; 0 = untagged
  trace::ProcessSpans spans;
  metrics::MetricsSnapshot metrics;
};

/// Serializes to the versioned kTelemetry frame payload.
std::string encode(const WorkerTelemetry& telemetry);

/// Parses an encoded payload. Throws util::InputError on truncation,
/// trailing bytes, an implausible element count, or version skew.
WorkerTelemetry decode(std::string_view payload);

/// Snapshots this process's telemetry: pid, the trace span rings (empty
/// when tracing is compiled out or idle), and the full metrics registry.
/// `process_label` becomes the process_name lane in the merged trace.
WorkerTelemetry collect(std::uint64_t trace_id, std::string process_label);

/// Folds a worker's telemetry into this process: spans into the trace
/// remote-process store, metrics into the global registry.
void merge_into_process(WorkerTelemetry telemetry);

}  // namespace rid::util::telemetry
