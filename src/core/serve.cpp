#include "core/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "graph/columnar.hpp"
#include "util/errors.hpp"
#include "util/flight_recorder.hpp"
#include "util/metrics.hpp"
#include "util/net.hpp"
#include "util/trace.hpp"
#include "util/wire.hpp"

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

#include "core/snapshot_io.hpp"

namespace rid::core {
namespace {

namespace fs = std::filesystem;
namespace net = util::net;
namespace trace = util::trace;
namespace wire = util::wire;

// --- journal format -------------------------------------------------------
// header:  8-byte magic "RIDNSRV1" | u32 version | u32 reserved(0)
// record:  u32 payload length | u32 FNV-1a32 checksum | payload
// payload: u8 type
//          type 1 (submitted): u64 job_id | JobSpec (str graph | f64 beta
//                              | u64 shards)
//          type 2 (completed): u64 job_id | u8 status (0 ok, 1 degraded,
//                              2 failed)
//          type 3 (job stats): u64 job_id | f64 wall_seconds
//                              | f64 cpu_seconds | u64 rss_peak_kb
// Read back as a valid prefix, exactly like a checkpoint file: a record
// torn by a daemon crash hides nothing before it. Type 3 needed no version
// bump: the reader has always skipped unknown record types, so old builds
// replay a new journal losing only the stats.
constexpr char kJournalMagic[8] = {'R', 'I', 'D', 'N', 'S', 'R', 'V', '1'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::uint8_t kRecordSubmitted = 1;
constexpr std::uint8_t kRecordCompleted = 2;
constexpr std::uint8_t kRecordJobStats = 3;
constexpr const char* kJournalName = "jobs.journal";

// Control protocol over one request/reply frame pair per connection.
enum class ServeMessage : std::uint8_t {
  kSubmit = 1,    // client->daemon: JobSpec
  kAccepted = 2,  // u64 job_id | str job_dir
  kRejected = 3,  // u8 permanent | f64 retry_after_seconds | str reason
  kQuery = 4,     // client->daemon: u64 job_id
  kPending = 5,   // (empty)
  kResult = 6,    // u8 status | str result_path | str message
                  // | u8 has_stats | f64 wall | f64 cpu | u64 rss_kb
  kUnknown = 7,   // (empty)
  kStats = 8,     // client->daemon: u8 include_events | u8 format (0 json,
                  //                 1 prometheus)
  kStatsReply = 9,  // str stats_json | str events_jsonl
};

constexpr double kClientReplyTimeoutSeconds = 30.0;
constexpr double kAcceptPollSeconds = 0.25;
constexpr std::chrono::milliseconds kRunnerPoll{100};

enum class JobStatus : std::uint8_t { kOk = 0, kDegraded = 1, kFailed = 2 };

struct ServeMetrics {
  util::metrics::Counter& submitted =
      util::metrics::global().counter("serve.jobs_submitted");
  util::metrics::Counter& rejected =
      util::metrics::global().counter("serve.jobs_rejected");
  util::metrics::Counter& completed =
      util::metrics::global().counter("serve.jobs_completed");
  util::metrics::Counter& degraded =
      util::metrics::global().counter("serve.jobs_degraded");
  util::metrics::Counter& failed =
      util::metrics::global().counter("serve.jobs_failed");
  util::metrics::Gauge& queue_depth =
      util::metrics::global().gauge("serve.queue_depth");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m;
  return m;
}

std::string encode_job_spec(const JobSpec& spec) {
  std::string out;
  wire::put_bytes(out, spec.graph_path);
  wire::put_f64(out, spec.beta);
  wire::put_u64(out, spec.num_shards);
  return out;
}

JobSpec decode_job_spec(wire::Reader& in) {
  JobSpec spec;
  spec.graph_path = in.str();
  spec.beta = in.f64();
  spec.num_shards = static_cast<std::size_t>(in.u64());
  return spec;
}

/// Per-job resource story, measured by the runner and journaled at
/// completion so it survives a daemon restart (journal record type 3).
struct JobStats {
  bool has_stats = false;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t rss_peak_kb = 0;
};

struct Job {
  std::uint64_t id = 0;
  JobSpec spec;
  std::uint64_t num_nodes = 0;  // admission accounting (from .ridg header)
  bool done = false;
  JobStatus status = JobStatus::kOk;
  std::string message;
  JobStats stats;
};

struct Daemon {
  explicit Daemon(const ServeOptions& opts) : options(opts) {}

  ServeOptions options;  // by value: the daemon outlives the caller's frame
  ServeReport report;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::uint64_t> queue;  // job ids awaiting a runner
  std::map<std::uint64_t, Job> jobs;
  std::uint64_t next_job_id = 1;
  std::uint64_t pending_nodes = 0;  // queued + running
  std::size_t running_jobs = 0;
  std::FILE* journal = nullptr;
  std::optional<util::WorkerSlots> slots;
  /// Daemon birth (monotonic): the uptime base for kStats.
  std::uint64_t start_ns = trace::now_ns();

  std::string job_dir(std::uint64_t id) const {
    return options.run_dir + "/job-" + std::to_string(id);
  }
};

// Every daemon event — job lifecycle, admission rejections, journal and
// frame damage — funnels through here, so one flight::record call makes
// the whole control plane reconstructable from a post-mortem ring dump.
void log_event_locked(Daemon& d, std::string message) {
  util::flight::record("serve", message);
  d.report.events.push_back(std::move(message));
}

void log_event(Daemon& d, std::string message) {
  std::lock_guard<std::mutex> lock(d.mu);
  log_event_locked(d, std::move(message));
}

void update_queue_depth_locked(const Daemon& d) {
  serve_metrics().queue_depth.set(
      static_cast<std::int64_t>(d.queue.size() + d.running_jobs));
}

// Journal appends are best-effort durable: an I/O failure degrades crash
// recovery but must not take down the daemon, so it is logged, not thrown.
void append_journal_locked(Daemon& d, const std::string& payload) {
  if (d.journal == nullptr) return;
  std::string frame;
  wire::put_frame(frame, payload);
  if (std::fwrite(frame.data(), 1, frame.size(), d.journal) != frame.size() ||
      std::fflush(d.journal) != 0) {
    log_event_locked(d, "journal: append failed - recovery may recompute");
  }
}

void journal_submitted_locked(Daemon& d, const Job& job) {
  std::string payload;
  wire::put_u8(payload, kRecordSubmitted);
  wire::put_u64(payload, job.id);
  payload += encode_job_spec(job.spec);
  append_journal_locked(d, payload);
}

void journal_completed_locked(Daemon& d, std::uint64_t id, JobStatus status) {
  std::string payload;
  wire::put_u8(payload, kRecordCompleted);
  wire::put_u64(payload, id);
  wire::put_u8(payload, static_cast<std::uint8_t>(status));
  append_journal_locked(d, payload);
}

void journal_stats_locked(Daemon& d, std::uint64_t id, const JobStats& stats) {
  std::string payload;
  wire::put_u8(payload, kRecordJobStats);
  wire::put_u64(payload, id);
  wire::put_f64(payload, stats.wall_seconds);
  wire::put_f64(payload, stats.cpu_seconds);
  wire::put_u64(payload, stats.rss_peak_kb);
  append_journal_locked(d, payload);
}

struct JournalReplay {
  std::map<std::uint64_t, JobSpec> submitted;
  std::map<std::uint64_t, JobStatus> completed;
  std::map<std::uint64_t, JobStats> stats;
  std::vector<std::string> notes;
};

// Valid-prefix read: stop (with a note) at the first damaged byte, keeping
// everything before it — a crash mid-append must not hide earlier jobs.
JournalReplay read_journal(const std::string& path) {
  JournalReplay replay;
  std::ifstream in(path, std::ios::binary);
  if (!in) return replay;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();
  if (data.size() < 16 ||
      std::string_view(data.data(), 8) != std::string_view(kJournalMagic, 8)) {
    replay.notes.push_back(path + ": bad or truncated journal header");
    return replay;
  }
  {
    wire::Reader header(std::string_view(data).substr(8, 8), "journal header");
    const std::uint32_t version = header.u32();
    header.u32();  // reserved
    if (version != kJournalVersion) {
      replay.notes.push_back(path + ": unsupported journal version " +
                             std::to_string(version));
      return replay;
    }
  }
  wire::FrameScanner scanner(std::string_view(data).substr(16));
  while (true) {
    std::string_view payload;
    switch (scanner.next(&payload)) {
      case wire::FrameScanner::Status::kRecord:
        break;
      case wire::FrameScanner::Status::kEnd:
        return replay;
      case wire::FrameScanner::Status::kTornHeader:
      case wire::FrameScanner::Status::kTornPayload:
        replay.notes.push_back(path + ": torn trailing record dropped");
        return replay;
      case wire::FrameScanner::Status::kBadChecksum:
        replay.notes.push_back(path +
                               ": damaged record - rest of journal dropped");
        return replay;
    }
    try {
      wire::Reader record(payload, "journal record");
      const std::uint8_t type = record.u8();
      if (type == kRecordSubmitted) {
        const std::uint64_t id = record.u64();
        const JobSpec spec = decode_job_spec(record);
        record.expect_done();
        replay.submitted[id] = spec;
      } else if (type == kRecordCompleted) {
        const std::uint64_t id = record.u64();
        const std::uint8_t status = record.u8();
        record.expect_done();
        replay.completed[id] = static_cast<JobStatus>(
            std::min<std::uint8_t>(status, 2));
      } else if (type == kRecordJobStats) {
        const std::uint64_t id = record.u64();
        JobStats stats;
        stats.has_stats = true;
        stats.wall_seconds = record.f64();
        stats.cpu_seconds = record.f64();
        stats.rss_peak_kb = record.u64();
        record.expect_done();
        replay.stats[id] = stats;
      } else {
        replay.notes.push_back(path + ": unknown record type " +
                               std::to_string(type) + " ignored");
      }
    } catch (const std::exception& e) {
      replay.notes.push_back(path + ": " + e.what() +
                             " - rest of journal dropped");
      return replay;
    }
  }
}

/// Opens the .ridg header and validates it is usable as a job input.
/// Throws util::InputError with the reason otherwise. Returns node count
/// (the admission-control size proxy).
std::uint64_t validate_job_graph(const std::string& path) {
  const auto view = graph::ColumnarGraphView::open(path);
  if ((view.flags() & graph::kRidgFlagDiffusion) == 0)
    throw util::InputError(path +
                           ": holds the social graph; jobs need the "
                           "diffusion reversal (convert without --social)");
  if (!view.has_states())
    throw util::InputError(path +
                           ": no embedded state snapshot (reconvert with "
                           "--snapshot) - jobs must be self-contained");
  return view.num_nodes();
}

void validate_job_spec(const JobSpec& spec) {
  if (spec.graph_path.empty())
    throw util::InputError("job spec: graph path is empty");
  if (!std::isfinite(spec.beta) || spec.beta < 0.0)
    throw util::InputError("job spec: beta must be finite and >= 0");
  if (spec.num_shards == 0)
    throw util::InputError("job spec: num_shards must be >= 1");
}

// --- job execution --------------------------------------------------------

struct JobOutcome {
  JobStatus status = JobStatus::kOk;
  std::string message;
};

JobOutcome execute_job(Daemon& d, const Job& job) {
  trace::TraceSpan span("serve_job");
  const std::string dir = d.job_dir(job.id);
  std::error_code ec;
  fs::create_directories(dir, ec);

  const auto view = graph::ColumnarGraphView::open(job.spec.graph_path);
  validate_job_graph(job.spec.graph_path);

  RidConfig config = d.options.base_config;
  config.beta = job.spec.beta;
  config.budget.cancel = d.options.cancel;

  ShardedConfig sharded;
  sharded.num_shards = job.spec.num_shards;
  sharded.run_dir = dir;
  // Always resume inside the job dir: a job re-run after a daemon crash
  // (journal-incomplete) picks up the trees its workers already made
  // durable instead of recomputing them.
  sharded.resume = true;
  sharded.supervisor = d.options.supervisor;
  sharded.supervisor.cancel = d.options.cancel;
  if (d.slots) sharded.supervisor.slots = &*d.slots;
  sharded.transport = d.options.transport;
  sharded.worker_command = d.options.worker_command;
  sharded.auth_token = d.options.auth_token;
  sharded.graph_cache_dir = d.options.graph_cache_dir;
  sharded.remote_grace_seconds = d.options.remote_grace_seconds;
  sharded.graph_path = job.spec.graph_path;
  // Stamp the job id into worker assignments: their telemetry echoes it
  // back, so merged traces and late reports attribute to the right job.
  sharded.trace_id = job.id;

  const DetectionResult result =
      run_rid_sharded(view, view.states(), config, sharded);

  if (d.options.cancel.cancel_requested())
    return {JobStatus::kFailed, "cancelled"};  // caller discards this

  // Server-side result file, byte-identical to what `detect --out` writes
  // for the same snapshot and config (tmp + rename so a crash mid-write
  // never leaves a torn result that query_job would report as done).
  std::vector<graph::NodeState> detected(view.num_nodes(),
                                         graph::NodeState::kInactive);
  for (std::size_t i = 0; i < result.initiators.size(); ++i) {
    detected[result.initiators[i]] =
        graph::is_opinion(result.states[i]) ? result.states[i]
                                            : graph::NodeState::kUnknown;
  }
  const std::string tmp = dir + "/result.txt.tmp";
  save_snapshot_file(detected, tmp);
  fs::rename(tmp, dir + "/result.txt", ec);
  if (ec)
    throw util::InputError(dir + "/result.txt: rename failed: " + ec.message());

  JobOutcome outcome;
  outcome.status =
      result.diagnostics.all_ok() ? JobStatus::kOk : JobStatus::kDegraded;
  std::ostringstream message;
  message << result.initiators.size() << " initiators from "
          << result.num_trees << " trees, " << result.num_components
          << " components";
  if (outcome.status == JobStatus::kDegraded)
    message << " (" << result.diagnostics.num_degraded << " degraded, "
            << result.diagnostics.num_failed << " failed trees)";
  outcome.message = message.str();
  return outcome;
}

/// Daemon-process CPU consumed so far, self plus reaped worker children.
/// A before/after delta bounds one job's CPU (an upper bound when jobs run
/// concurrently — the journal keeps it honest by being per-job anyway).
double process_cpu_seconds() {
#if !defined(_WIN32)
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  rusage self{};
  rusage children{};
  double total = 0.0;
  if (getrusage(RUSAGE_SELF, &self) == 0)
    total += seconds(self.ru_utime) + seconds(self.ru_stime);
  if (getrusage(RUSAGE_CHILDREN, &children) == 0)
    total += seconds(children.ru_utime) + seconds(children.ru_stime);
  return total;
#else
  return 0.0;
#endif
}

void finish_job_locked(Daemon& d, std::uint64_t id, const JobOutcome& outcome,
                       const JobStats& stats) {
  auto it = d.jobs.find(id);
  if (it == d.jobs.end()) return;
  Job& job = it->second;
  job.done = true;
  job.status = outcome.status;
  job.message = outcome.message;
  job.stats = stats;
  d.pending_nodes -= std::min(d.pending_nodes, job.num_nodes);
  journal_completed_locked(d, id, outcome.status);
  if (stats.has_stats) journal_stats_locked(d, id, stats);
  d.report.jobs_completed++;
  serve_metrics().completed.add(1);
  if (outcome.status == JobStatus::kDegraded) serve_metrics().degraded.add(1);
  if (outcome.status == JobStatus::kFailed) serve_metrics().failed.add(1);
  log_event_locked(d, "job " + std::to_string(id) + ": " +
                          (outcome.status == JobStatus::kOk       ? "ok"
                           : outcome.status == JobStatus::kDegraded
                               ? "degraded"
                               : "failed") +
                          " - " + outcome.message);
}

void runner_loop(Daemon& d) {
  for (;;) {
    std::uint64_t id = 0;
    {
      std::unique_lock<std::mutex> lock(d.mu);
      for (;;) {
        if (d.options.cancel.cancel_requested()) return;
        if (!d.queue.empty()) {
          id = d.queue.front();
          d.queue.pop_front();
          d.running_jobs++;
          break;
        }
        d.cv.wait_for(lock, kRunnerPoll);
      }
    }

    JobOutcome outcome;
    JobStats stats;
    bool cancelled = false;
    const std::uint64_t wall_start_ns = trace::now_ns();
    const double cpu_start = process_cpu_seconds();
    try {
      Job job;
      {
        std::lock_guard<std::mutex> lock(d.mu);
        job = d.jobs.at(id);
      }
      outcome = execute_job(d, job);
      cancelled = d.options.cancel.cancel_requested();
      stats.has_stats = true;
    } catch (const std::exception& e) {
      cancelled = d.options.cancel.cancel_requested();
      outcome.status = JobStatus::kFailed;
      outcome.message = e.what();
    }
    stats.wall_seconds =
        static_cast<double>(trace::now_ns() - wall_start_ns) * 1e-9;
    stats.cpu_seconds = std::max(0.0, process_cpu_seconds() - cpu_start);
    // The supervisor's high-water gauge: peak worker RSS observed so far
    // (daemon-wide, so with concurrent jobs it is the fleet's peak).
    stats.rss_peak_kb = static_cast<std::uint64_t>(std::max(
        0.0, util::metrics::global().gauge("shard.rss_peak_kb").value()));

    std::lock_guard<std::mutex> lock(d.mu);
    d.running_jobs--;
    if (cancelled) {
      // Deliberately no completed record and no done flag: the job stays
      // journal-incomplete, so `serve --resume` re-queues it and its job
      // directory's checkpoints make the rerun incremental.
      d.queue.push_front(id);
      update_queue_depth_locked(d);
      return;
    }
    finish_job_locked(d, id, outcome, stats);
    update_queue_depth_locked(d);
  }
}

// --- control-plane handlers ----------------------------------------------

std::string rejected_reply(bool permanent, double retry_after,
                           const std::string& reason) {
  std::string reply;
  wire::put_u8(reply, static_cast<std::uint8_t>(ServeMessage::kRejected));
  wire::put_u8(reply, permanent ? 1 : 0);
  wire::put_f64(reply, retry_after);
  wire::put_bytes(reply, reason);
  return reply;
}

std::string handle_submit(Daemon& d, const JobSpec& spec) {
  // Validate outside the lock: it opens the graph file.
  std::uint64_t num_nodes = 0;
  try {
    validate_job_spec(spec);
    num_nodes = validate_job_graph(spec.graph_path);
  } catch (const std::exception& e) {
    serve_metrics().rejected.add(1);
    std::lock_guard<std::mutex> lock(d.mu);
    d.report.jobs_rejected++;
    log_event_locked(d, std::string("submit rejected (bad spec): ") + e.what());
    return rejected_reply(/*permanent=*/true, 0.0, e.what());
  }

  std::lock_guard<std::mutex> lock(d.mu);
  const std::size_t pending_jobs = d.queue.size() + d.running_jobs;
  // Retry-after scales with the backlog: a deterministic hint, not a
  // promise — clients poll-and-retry around it.
  const double retry_after = 1.0 + 2.0 * static_cast<double>(pending_jobs);
  if (pending_jobs >= d.options.max_queued_jobs) {
    serve_metrics().rejected.add(1);
    d.report.jobs_rejected++;
    log_event_locked(d, "submit rejected: queue full (" +
                            std::to_string(pending_jobs) + " pending)");
    return rejected_reply(/*permanent=*/false, retry_after,
                          "queue full: " + std::to_string(pending_jobs) +
                              " jobs pending");
  }
  if (d.options.max_pending_nodes != 0 &&
      d.pending_nodes + num_nodes > d.options.max_pending_nodes) {
    serve_metrics().rejected.add(1);
    d.report.jobs_rejected++;
    log_event_locked(d, "submit rejected: node budget (" +
                            std::to_string(d.pending_nodes) + " pending + " +
                            std::to_string(num_nodes) + " requested)");
    return rejected_reply(/*permanent=*/false, retry_after,
                          "pending work over node budget");
  }

  Job job;
  job.id = d.next_job_id++;
  job.spec = spec;
  job.num_nodes = num_nodes;
  journal_submitted_locked(d, job);
  const std::string dir = d.job_dir(job.id);
  d.pending_nodes += num_nodes;
  d.jobs[job.id] = job;
  d.queue.push_back(job.id);
  d.report.jobs_accepted++;
  serve_metrics().submitted.add(1);
  update_queue_depth_locked(d);
  log_event_locked(d, "job " + std::to_string(job.id) + ": accepted " +
                          spec.graph_path + " (beta=" +
                          std::to_string(spec.beta) + ", shards=" +
                          std::to_string(spec.num_shards) + ")");
  d.cv.notify_one();

  std::string reply;
  wire::put_u8(reply, static_cast<std::uint8_t>(ServeMessage::kAccepted));
  wire::put_u64(reply, job.id);
  wire::put_bytes(reply, dir);
  return reply;
}

std::string handle_query(Daemon& d, std::uint64_t id) {
  std::lock_guard<std::mutex> lock(d.mu);
  std::string reply;
  const auto it = d.jobs.find(id);
  if (it == d.jobs.end()) {
    wire::put_u8(reply, static_cast<std::uint8_t>(ServeMessage::kUnknown));
    return reply;
  }
  if (!it->second.done) {
    wire::put_u8(reply, static_cast<std::uint8_t>(ServeMessage::kPending));
    return reply;
  }
  wire::put_u8(reply, static_cast<std::uint8_t>(ServeMessage::kResult));
  wire::put_u8(reply, static_cast<std::uint8_t>(it->second.status));
  wire::put_bytes(reply, d.job_dir(id) + "/result.txt");
  wire::put_bytes(reply, it->second.message);
  const JobStats& stats = it->second.stats;
  wire::put_u8(reply, stats.has_stats ? 1 : 0);
  wire::put_f64(reply, stats.wall_seconds);
  wire::put_f64(reply, stats.cpu_seconds);
  wire::put_u64(reply, stats.rss_peak_kb);
  return reply;
}

// --- live introspection (kStats) ------------------------------------------

std::string format_double(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

/// The whole daemon in one flat JSON object, assembled under d.mu so the
/// job table, queue, and admission ledger are mutually consistent. The
/// metrics snapshot is taken outside the lock — the registry has its own.
std::string stats_json(Daemon& d, bool prometheus_metrics) {
  const util::metrics::MetricsSnapshot metrics =
      util::metrics::global().snapshot();
  const double uptime =
      static_cast<double>(trace::now_ns() - d.start_ns) * 1e-9;

  std::string out;
  out += '{';
  std::lock_guard<std::mutex> lock(d.mu);
  out += "\"uptime_seconds\": " + format_double(uptime);
  out += ", \"jobs_accepted\": " + std::to_string(d.report.jobs_accepted);
  out += ", \"jobs_rejected\": " + std::to_string(d.report.jobs_rejected);
  out += ", \"jobs_completed\": " + std::to_string(d.report.jobs_completed);
  out += ", \"jobs_recovered\": " + std::to_string(d.report.jobs_recovered);
  out += ", \"queue_depth\": " + std::to_string(d.queue.size());
  out += ", \"running_jobs\": " + std::to_string(d.running_jobs);
  out += ", \"pending_nodes\": " + std::to_string(d.pending_nodes);
  out += ", \"worker_slots\": " +
         std::to_string(d.slots ? d.slots->capacity() : 0);
  out += ", \"worker_slots_in_use\": " +
         std::to_string(d.slots ? d.slots->in_use() : 0);
  out += ", \"flight_events_recorded\": " +
         std::to_string(util::flight::total_recorded());
  out += ", \"flight_events_dropped\": " +
         std::to_string(util::flight::dropped());

  // Wire health at a glance: the transport-robustness counters operators
  // alert on, pulled out of the flat metrics dump (which still carries
  // them — and their Prometheus form — in full).
  const auto wire_counter = [](const char* name) {
    return util::metrics::global().counter(name).value();
  };
  out += ", \"wire\": {";
  out += "\"torn_frames\": " + std::to_string(wire_counter("net.torn_frame"));
  out += ", \"checksum_errors\": " +
         std::to_string(wire_counter("net.checksum_error"));
  out += ", \"frames_dropped\": " +
         std::to_string(wire_counter("net.frames_dropped"));
  out += ", \"partition_faults\": " +
         std::to_string(wire_counter("net.partition_faults"));
  out += ", \"connect_retries\": " +
         std::to_string(wire_counter("net.connect_retries"));
  out += ", \"client_connect_retries\": " +
         std::to_string(wire_counter("net.client_connect_retries"));
  out += ", \"handshakes\": " + std::to_string(wire_counter("net.handshakes"));
  out += ", \"handshakes_rejected\": " +
         std::to_string(wire_counter("net.handshakes_rejected"));
  out += ", \"graph_ship_requests\": " +
         std::to_string(wire_counter("net.graph_ship_requests"));
  out += ", \"graph_bytes_shipped\": " +
         std::to_string(wire_counter("net.graph_bytes_shipped"));
  out += ", \"graph_cache_hits\": " +
         std::to_string(wire_counter("net.graph_cache_hits"));
  out += ", \"transport_fallbacks\": " +
         std::to_string(wire_counter("net.transport_fallbacks"));
  out += '}';

  std::set<std::uint64_t> queued(d.queue.begin(), d.queue.end());
  out += ", \"jobs\": [";
  bool first = true;
  for (const auto& [id, job] : d.jobs) {
    if (!first) out += ", ";
    first = false;
    out += "{\"id\": " + std::to_string(id);
    out += ", \"state\": ";
    out += util::metrics::json_quote(job.done                ? "done"
                                     : queued.count(id) != 0 ? "queued"
                                                             : "running");
    out += ", \"graph\": ";
    out += util::metrics::json_quote(job.spec.graph_path);
    out += ", \"beta\": " + format_double(job.spec.beta);
    out += ", \"shards\": " + std::to_string(job.spec.num_shards);
    out += ", \"nodes\": " + std::to_string(job.num_nodes);
    if (job.done) {
      out += ", \"status\": ";
      out += util::metrics::json_quote(
          job.status == JobStatus::kOk         ? "ok"
          : job.status == JobStatus::kDegraded ? "degraded"
                                               : "failed");
      out += ", \"message\": ";
      out += util::metrics::json_quote(job.message);
      if (job.stats.has_stats) {
        out += ", \"wall_seconds\": " + format_double(job.stats.wall_seconds);
        out += ", \"cpu_seconds\": " + format_double(job.stats.cpu_seconds);
        out += ", \"rss_peak_kb\": " + std::to_string(job.stats.rss_peak_kb);
      }
    }
    out += '}';
  }
  out += ']';

  if (prometheus_metrics) {
    out += ", \"metrics_prom\": ";
    out += util::metrics::json_quote(metrics.to_prometheus());
  } else {
    out += ", \"metrics\": " + metrics.to_json();
  }
  out += '}';
  return out;
}

std::string handle_stats(Daemon& d, bool include_events,
                         bool prometheus_metrics) {
  std::string reply;
  wire::put_u8(reply, static_cast<std::uint8_t>(ServeMessage::kStatsReply));
  wire::put_bytes(reply, stats_json(d, prometheus_metrics));
  wire::put_bytes(reply,
                  include_events ? util::flight::to_jsonl() : std::string());
  return reply;
}

void handle_client(Daemon& d, net::Socket socket) {
  try {
    std::string payload;
    const net::FrameStatus status =
        socket.read_frame(payload, kClientReplyTimeoutSeconds);
    if (status != net::FrameStatus::kOk) {
      if (status == net::FrameStatus::kChecksumError)
        log_event(d, "client: damaged request frame dropped");
      return;
    }
    wire::Reader in(payload, "serve request");
    const auto type = static_cast<ServeMessage>(in.u8());
    std::string reply;
    if (type == ServeMessage::kSubmit) {
      const JobSpec spec = decode_job_spec(in);
      in.expect_done();
      reply = handle_submit(d, spec);
    } else if (type == ServeMessage::kQuery) {
      const std::uint64_t id = in.u64();
      in.expect_done();
      reply = handle_query(d, id);
    } else if (type == ServeMessage::kStats) {
      const bool include_events = in.u8() != 0;
      const bool prometheus_metrics = in.u8() != 0;
      in.expect_done();
      reply = handle_stats(d, include_events, prometheus_metrics);
    } else {
      log_event(d, "client: unexpected message type " +
                       std::to_string(static_cast<int>(type)));
      return;
    }
    socket.write_frame(reply);  // a vanished client is its own problem
  } catch (const std::exception& e) {
    log_event(d, std::string("client handler failed: ") + e.what());
  }
}

// --- startup: fresh-vs-resume state --------------------------------------

void clear_state(Daemon& d) {
  std::error_code ec;
  fs::remove(d.options.run_dir + "/" + kJournalName, ec);
  for (const auto& entry : fs::directory_iterator(d.options.run_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("job-", 0) == 0) fs::remove_all(entry.path(), ec);
  }
}

void replay_journal(Daemon& d) {
  const JournalReplay replay =
      read_journal(d.options.run_dir + "/" + kJournalName);
  std::lock_guard<std::mutex> lock(d.mu);
  for (const std::string& note : replay.notes)
    log_event_locked(d, "journal: " + note);
  for (const auto& [id, spec] : replay.submitted) {
    Job job;
    job.id = id;
    job.spec = spec;
    d.next_job_id = std::max(d.next_job_id, id + 1);
    const auto done = replay.completed.find(id);
    if (done != replay.completed.end()) {
      job.done = true;
      job.status = done->second;
      job.message = "recovered from journal";
      const auto stats = replay.stats.find(id);
      if (stats != replay.stats.end()) job.stats = stats->second;
      d.jobs[id] = job;
      continue;
    }
    // Submitted but never completed: the daemon died with this job queued
    // or in flight. Re-admit it (re-validating the graph, whose size feeds
    // the admission ledger); a graph that vanished since submission is a
    // permanent failure, journaled so the next resume stops retrying it.
    try {
      job.num_nodes = validate_job_graph(spec.graph_path);
    } catch (const std::exception& e) {
      job.done = true;
      job.status = JobStatus::kFailed;
      job.message = e.what();
      journal_completed_locked(d, id, JobStatus::kFailed);
      d.jobs[id] = job;
      d.report.jobs_completed++;
      serve_metrics().failed.add(1);
      log_event_locked(d, "job " + std::to_string(id) +
                              ": failed on recovery - " + job.message);
      continue;
    }
    d.pending_nodes += job.num_nodes;
    d.jobs[id] = job;
    d.queue.push_back(id);
    d.report.jobs_recovered++;
    log_event_locked(d, "job " + std::to_string(id) + ": recovered (queued)");
  }
  update_queue_depth_locked(d);
}

std::FILE* open_journal(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr)
    throw util::InputError(path + ": cannot open job journal for append");
  long size = 0;
  if (std::fseek(file, 0, SEEK_END) == 0) size = std::ftell(file);
  if (size <= 0) {
    std::string header(kJournalMagic, sizeof(kJournalMagic));
    wire::put_u32(header, kJournalVersion);
    wire::put_u32(header, 0);  // reserved
    if (std::fwrite(header.data(), 1, header.size(), file) != header.size() ||
        std::fflush(file) != 0) {
      std::fclose(file);
      throw util::InputError(path + ": cannot write journal header");
    }
  }
  return file;
}

}  // namespace

ServeReport run_serve(const ServeOptions& options) {
  if (options.run_dir.empty())
    throw util::InputError("serve: run_dir is required");
  if (!net::supported())
    throw util::InputError(
        "serve: no socket support on this platform - the control plane "
        "cannot run");
  if (options.transport == ShardTransport::kSocket &&
      options.worker_command.empty())
    throw util::InputError(
        "serve: socket transport needs worker_command (the binary exec'd "
        "as '<cmd> worker')");

  std::error_code ec;
  fs::create_directories(options.run_dir, ec);

  Daemon daemon{options};
  if (options.worker_slots != 0) daemon.slots.emplace(options.worker_slots);

  if (!options.resume) clear_state(daemon);
  daemon.journal =
      open_journal(options.run_dir + "/" + kJournalName);
  if (options.resume) replay_journal(daemon);

  const net::Endpoint endpoint =
      options.endpoint.empty()
          ? net::Endpoint::unix_path(options.run_dir + "/serve.sock")
          : net::Endpoint::parse(options.endpoint);
  net::Listener listener = net::Listener::listen(endpoint);
  log_event(daemon, "serving on " + listener.endpoint().to_string());
  if (options.on_listening) options.on_listening(listener.endpoint().to_string());

  std::vector<std::thread> runners;
  const std::size_t runner_count = std::max<std::size_t>(
      1, options.max_concurrent_jobs);
  runners.reserve(runner_count);
  for (std::size_t i = 0; i < runner_count; ++i)
    runners.emplace_back([&daemon] { runner_loop(daemon); });

  std::vector<std::thread> handlers;
  while (!options.cancel.cancel_requested()) {
    // A transient accept fault (fd exhaustion, an injected net.accept
    // failpoint) drops that one connection, never the daemon: the client
    // sees a failed request and retries; the control loop keeps serving.
    net::Socket client;
    try {
      client = listener.accept(kAcceptPollSeconds);
    } catch (const std::exception& e) {
      log_event(daemon, std::string("accept failed (transient): ") + e.what());
      continue;
    }
    if (!client.valid()) continue;
    handlers.emplace_back(
        [&daemon](net::Socket socket) {
          handle_client(daemon, std::move(socket));
        },
        std::move(client));
  }

  listener.close();
  daemon.cv.notify_all();
  for (std::thread& t : runners) t.join();
  for (std::thread& t : handlers) t.join();
  {
    std::lock_guard<std::mutex> lock(daemon.mu);
    if (daemon.journal != nullptr) {
      std::fclose(daemon.journal);
      daemon.journal = nullptr;
    }
    update_queue_depth_locked(daemon);
    log_event_locked(daemon,
                     "shutdown: " + std::to_string(daemon.queue.size()) +
                         " jobs left queued (resumable)");
  }
  return std::move(daemon.report);
}

// --- client side ----------------------------------------------------------

namespace {

/// One request/reply exchange with the daemon. Transient connect()
/// failures (daemon restarting, listen backlog overflow, injected
/// partition) are retried a few times with short bounded backoff — enough
/// to ride out a blip, far too little to hang a script; exhaustion throws
/// the same util::InputError a single failure used to, so the CLI's
/// bad-input exit code is unchanged. Connection loss *after* connecting is
/// not retried: the request may have been acted on.
std::string request_reply(const std::string& endpoint_text,
                     const std::string& request) {
  const net::Endpoint endpoint = net::Endpoint::parse(endpoint_text);
  constexpr int kConnectAttempts = 5;
  net::Socket socket;
  double backoff_ms = 50.0;
  for (int attempt = 1;; ++attempt) {
    try {
      socket = net::connect(endpoint, kClientReplyTimeoutSeconds);
      break;
    } catch (const util::InputError&) {
      if (attempt >= kConnectAttempts) throw;
      util::metrics::global().counter("net.client_connect_retries").add(1);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          backoff_ms));
      backoff_ms = std::min(backoff_ms * 2.0, 800.0);
    }
  }
  if (!socket.write_frame(request))
    throw util::InputError(endpoint_text + ": connection lost mid-request");
  std::string reply;
  const net::FrameStatus status =
      socket.read_frame(reply, kClientReplyTimeoutSeconds);
  if (status != net::FrameStatus::kOk)
    throw util::InputError(endpoint_text + ": no usable reply (" +
                           net::to_string(status) + ")");
  return reply;
}

}  // namespace

SubmitOutcome submit_job(const std::string& endpoint_text,
                         const JobSpec& spec) {
  std::string request;
  wire::put_u8(request, static_cast<std::uint8_t>(ServeMessage::kSubmit));
  request += encode_job_spec(spec);
  const std::string reply = request_reply(endpoint_text, request);

  wire::Reader in(reply, "submit reply");
  const auto type = static_cast<ServeMessage>(in.u8());
  SubmitOutcome outcome;
  if (type == ServeMessage::kAccepted) {
    outcome.accepted = true;
    outcome.job_id = in.u64();
    outcome.job_dir = in.str();
    in.expect_done();
    return outcome;
  }
  if (type == ServeMessage::kRejected) {
    outcome.permanent = in.u8() != 0;
    outcome.retry_after_seconds = in.f64();
    outcome.reason = in.str();
    in.expect_done();
    return outcome;
  }
  throw util::InputError("submit reply: unexpected message type " +
                         std::to_string(static_cast<int>(type)));
}

JobQueryResult query_job(const std::string& endpoint_text,
                         std::uint64_t job_id) {
  std::string request;
  wire::put_u8(request, static_cast<std::uint8_t>(ServeMessage::kQuery));
  wire::put_u64(request, job_id);
  const std::string reply = request_reply(endpoint_text, request);

  wire::Reader in(reply, "query reply");
  const auto type = static_cast<ServeMessage>(in.u8());
  JobQueryResult result;
  if (type == ServeMessage::kUnknown) {
    in.expect_done();
    result.phase = JobPhase::kUnknown;
    result.message = "job " + std::to_string(job_id) + " is unknown";
    return result;
  }
  if (type == ServeMessage::kPending) {
    in.expect_done();
    result.phase = JobPhase::kPending;
    result.message = "job " + std::to_string(job_id) + " is pending";
    return result;
  }
  if (type == ServeMessage::kResult) {
    const auto status = static_cast<JobStatus>(in.u8());
    result.result_path = in.str();
    result.message = in.str();
    result.has_stats = in.u8() != 0;
    result.wall_seconds = in.f64();
    result.cpu_seconds = in.f64();
    result.rss_peak_kb = in.u64();
    in.expect_done();
    result.phase = JobPhase::kDone;
    result.ok = status == JobStatus::kOk;
    result.degraded = status == JobStatus::kDegraded;
    return result;
  }
  throw util::InputError("query reply: unexpected message type " +
                         std::to_string(static_cast<int>(type)));
}

DaemonStats query_stats(const std::string& endpoint_text, bool include_events,
                        bool prometheus_metrics) {
  std::string request;
  wire::put_u8(request, static_cast<std::uint8_t>(ServeMessage::kStats));
  wire::put_u8(request, include_events ? 1 : 0);
  wire::put_u8(request, prometheus_metrics ? 1 : 0);
  const std::string reply = request_reply(endpoint_text, request);

  wire::Reader in(reply, "stats reply");
  const auto type = static_cast<ServeMessage>(in.u8());
  if (type != ServeMessage::kStatsReply)
    throw util::InputError("stats reply: unexpected message type " +
                           std::to_string(static_cast<int>(type)));
  DaemonStats stats;
  stats.stats_json = in.str();
  stats.events_jsonl = in.str();
  in.expect_done();
  return stats;
}

}  // namespace rid::core
