// ridnet_serve — the long-lived detection service (DESIGN.md §13).
//
// run_serve() turns the batch pipeline into a daemon: clients submit
// snapshot-analysis jobs over a control socket (`ridnet_cli submit`), the
// daemon queues them under admission control, runs each as a sharded
// detection (fork or socket transport, multiplexing workers across jobs
// through a shared WorkerSlots pool), and persists every state transition
// to a crash-safe job journal so `serve --resume` recovers queued and
// in-flight jobs after a daemon crash or restart.
//
// Durability model, mirroring the checkpoint layer one level up:
//  * the journal (`<run_dir>/jobs.journal`, magic "RIDNSRV1") is an
//    append-only stream of checksum-framed records — submitted{id, spec}
//    and completed{id, status} — flushed per record and read back as a
//    valid prefix, so a torn trailing record never hides earlier jobs;
//  * each job runs in its own `<run_dir>/job-<id>/` directory: the sharded
//    runner's checkpoints live there, and the final answer is written
//    *server-side* as `result.txt` (the same snapshot format `detect
//    --out` writes) via tmp+rename, so results survive client
//    disconnects and daemon restarts, and a drill can `cmp` them against a
//    batch `detect` run;
//  * a job with a submitted record but no completed record is re-queued on
//    resume — its job directory's checkpoints make the rerun incremental;
//  * a cancelled (daemon-shutdown) job intentionally skips the completed
//    record so it stays recoverable.
//
// Admission control is budget-shaped, not best-effort: a submit that would
// push the queue past max_queued_jobs, or the queued work past
// max_pending_nodes (summed .ridg node counts — the same deterministic
// size proxy WorkBudget::max_tree_nodes caps with), is *rejected with a
// retry-after hint* rather than queued into an unbounded backlog. Malformed
// submissions are rejected permanently (no retry-after).
//
// Introspection (DESIGN.md §14): a kStats request returns a live flat-JSON
// snapshot of the daemon — job table, worker-slot occupancy, queue depth,
// uptime, and the full metrics registry (JSON or Prometheus text) — plus,
// on request, the flight-recorder ring as JSONL. Each finished job's
// resource story (wall clock, CPU including worker children, peak worker
// RSS) is journaled as a stats record, so `query` reports it even after a
// daemon restart.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/rid.hpp"
#include "util/work_budget.hpp"

namespace rid::core {

/// One snapshot-analysis job: a self-contained .ridg (diffusion reversal
/// with an embedded state snapshot) plus the per-job solve knobs.
struct JobSpec {
  std::string graph_path;
  double beta = 2.0;
  std::size_t num_shards = 2;
};

struct ServeOptions {
  /// Daemon state root: job journal + one subdirectory per job. Required.
  std::string run_dir;
  /// Control endpoint (util::net::Endpoint::parse syntax). Empty = a Unix
  /// socket at `<run_dir>/serve.sock`.
  std::string endpoint;
  /// true: recover queued/in-flight jobs from the journal (completed jobs
  /// keep their results). false: fresh start — the journal and job
  /// directories are cleared.
  bool resume = false;
  /// Admission: jobs queued or running before submits are rejected with a
  /// retry-after hint.
  std::size_t max_queued_jobs = 8;
  /// Admission: cap on the summed node counts of queued+running jobs
  /// (0 = unlimited). Rejections carry a retry-after hint.
  std::uint64_t max_pending_nodes = 0;
  /// Jobs running concurrently (runner threads).
  std::size_t max_concurrent_jobs = 2;
  /// Global worker-process cap shared by every concurrent job's supervisor
  /// (0 = no shared pool; each job runs one worker per shard).
  std::size_t worker_slots = 0;
  /// Worker transport for job execution. kSocket requires worker_command.
  ShardTransport transport = ShardTransport::kFork;
  std::string worker_command;
  /// kSocket: shared secret for the worker handshake's HMAC challenge
  /// (ShardedConfig::auth_token — reaches workers via RID_AUTH_TOKEN,
  /// never argv). Empty = workers are not challenged.
  std::string auth_token;
  /// kSocket: per-job grace budget before falling back to the fork
  /// transport (ShardedConfig::remote_grace_seconds). 0 = never.
  double remote_grace_seconds = 0.0;
  /// Per-job solve configuration; JobSpec::beta overrides base_config.beta.
  RidConfig base_config;
  /// Per-job worker lifecycle policy (slots/cancel are wired internally).
  util::SupervisorOptions supervisor;
  /// Trips the daemon loop: running workers are killed, in-flight jobs stay
  /// journal-incomplete (recoverable), the control socket closes.
  util::CancelToken cancel;
  /// Called once the control socket is bound and accepting, with the
  /// resolved endpoint text (e.g. the ephemeral port of "tcp:0") — the
  /// readiness signal clients and tests synchronize on.
  std::function<void(const std::string& endpoint)> on_listening;
};

struct ServeReport {
  std::uint64_t jobs_accepted = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_completed = 0;  // reached a terminal status
  std::uint64_t jobs_recovered = 0;  // re-queued from the journal on resume
  std::vector<std::string> events;
};

/// Runs the daemon until options.cancel trips. Throws util::InputError on
/// unusable options (missing run_dir, unbindable endpoint, socket transport
/// without a worker command).
ServeReport run_serve(const ServeOptions& options);

// --- client side (used by `ridnet_cli submit`) ----------------------------

struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t job_id = 0;
  std::string job_dir;  // where result.txt will appear
  /// Rejection detail: permanent = the submission itself is unusable (bad
  /// spec — retrying cannot help); otherwise retry_after_seconds hints when
  /// the admission budget may have drained.
  bool permanent = false;
  double retry_after_seconds = 0.0;
  std::string reason;
};

/// Submits one job. Throws util::InputError when the daemon is unreachable
/// or the reply is damaged.
SubmitOutcome submit_job(const std::string& endpoint_text,
                         const JobSpec& spec);

enum class JobPhase { kUnknown, kPending, kDone };

struct JobQueryResult {
  JobPhase phase = JobPhase::kUnknown;
  bool ok = false;        // done: every tree solved exactly
  bool degraded = false;  // done: some trees fell back / failed
  std::string result_path;  // done: server-side result file
  std::string message;
  /// Per-job resource stats, journaled at completion (survive a daemon
  /// restart). has_stats is false for jobs recovered from pre-stats
  /// journals or failed before running.
  bool has_stats = false;
  double wall_seconds = 0.0;
  /// Daemon CPU delta over the job (self + reaped worker children) — an
  /// upper bound when jobs run concurrently.
  double cpu_seconds = 0.0;
  /// Peak worker RSS observed by the supervisor up to job completion.
  std::uint64_t rss_peak_kb = 0;
};

/// Polls one job's state. Throws util::InputError when the daemon is
/// unreachable or the reply is damaged.
JobQueryResult query_job(const std::string& endpoint_text,
                         std::uint64_t job_id);

struct DaemonStats {
  /// Flat JSON object: uptime, job table, queue/slot occupancy, admission
  /// ledger, and the metrics registry ("metrics" sub-object, or
  /// "metrics_prom" text when Prometheus format was requested).
  std::string stats_json;
  /// Flight-recorder ring as JSONL (empty unless include_events was set).
  std::string events_jsonl;
};

/// Fetches a live stats snapshot from the daemon (`ridnet_cli stats`).
/// prometheus_metrics selects the text exposition for the metrics half.
/// Throws util::InputError when the daemon is unreachable or the reply is
/// damaged.
DaemonStats query_stats(const std::string& endpoint_text, bool include_events,
                        bool prometheus_metrics);

}  // namespace rid::core
