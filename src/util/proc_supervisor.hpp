// Crash-isolating process supervisor for sharded work.
//
// The RID pipeline's per-tree fault isolation (core/rid.cpp) catches C++
// exceptions, but a segfault, OOM kill, or runaway allocation in one tree
// still takes down the whole process. The supervisor moves that isolation
// boundary across a process boundary: work is partitioned into *shards*,
// one worker process per shard attempt, and the parent watches worker
// lifetimes instead of trusting them.
//
// Supervisor state machine per shard (see DESIGN.md §11):
//
//   kReady --spawn--> kRunning --exit(0), all items durable--> kDone
//     ^                  |
//     |                  +--crash / nonzero exit / kill------> requeue:
//     +--[backoff]-------+   * completed items (durable set) are kept;
//                            * the first *incomplete* item in shard order
//                              is the suspect — an item that was in flight
//                              when `poison_threshold` workers died is
//                              demoted (reported in `poisoned_items`) and
//                              never requeued;
//                            * remaining items respawn after a capped
//                              exponential backoff, up to
//                              `max_shard_attempts` attempts, after which
//                              they are reported in `abandoned_items`.
//
// Workers are monitored two ways while running: a *heartbeat* (the durable
// item count must grow within heartbeat_timeout_seconds) and a per-attempt
// wall-clock deadline. A worker that violates either is SIGKILLed and
// treated as a crash — this is how hangs (e.g. a deadlock or a failpoint
// sleep) are converted into the same requeue path as crashes.
//
// The supervisor only ever sees pids. How a worker comes to exist, and how
// its results become durable, belongs to the caller's ShardLauncher (the
// RID runner streams worker frames into checkpoint files,
// core/shard_transport.hpp), and `durable` must report, from the parent,
// which items of a shard are already persisted. Every path that reaps a
// worker (exit, cancel kill, waitpid failure) first calls the launcher's
// drain() for that pid and only then probes durable(), so results a worker
// wrote before it died are never mistaken for lost work.
//
// POSIX only (fork/waitpid/kill). On non-POSIX builds supervise_shards()
// does nothing; callers check process_isolation_supported() and fall back
// to in-process execution.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/work_budget.hpp"

namespace rid::util {

/// One shard: an id plus the items it must complete, in processing order.
/// Item ids are caller-defined (the RID runner uses forest tree indices).
struct ShardWork {
  std::size_t shard_id = 0;
  std::vector<std::size_t> items;
};

/// Optional cross-supervisor worker pool. When SupervisorOptions::slots
/// points at one, every spawn first acquires a slot and every reap releases
/// it, so several concurrent supervise_shards() calls — the serve daemon's
/// jobs — share one global worker cap instead of each running max_parallel
/// workers. A shard that cannot get a slot simply stays queued (no attempt
/// is consumed). Thread-safe.
class WorkerSlots {
 public:
  explicit WorkerSlots(std::size_t capacity) : capacity_(capacity) {}

  bool try_acquire() noexcept {
    std::size_t current = in_use_.load(std::memory_order_relaxed);
    while (current < capacity_) {
      if (in_use_.compare_exchange_weak(current, current + 1,
                                        std::memory_order_relaxed))
        return true;
    }
    return false;
  }

  void release() noexcept { in_use_.fetch_sub(1, std::memory_order_relaxed); }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t in_use() const noexcept {
    return in_use_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> in_use_{0};
  std::size_t capacity_;
};

struct SupervisorOptions {
  /// Workers running concurrently (0 = one per shard).
  std::size_t max_parallel = 0;
  /// Worker attempts per shard before its remaining items are abandoned.
  std::uint32_t max_shard_attempts = 5;
  /// Capped exponential backoff between a shard's attempts:
  /// min(backoff_max_ms, backoff_initial_ms * 2^(attempt-1)).
  double backoff_initial_ms = 20.0;
  double backoff_max_ms = 1000.0;
  /// Kill a worker whose durable item count has not grown for this long
  /// (unlimited = no hang detection; per-item granularity, so set it above
  /// the slowest expected single item).
  double heartbeat_timeout_seconds = kUnlimitedSeconds;
  /// Kill a worker attempt that outlives this wall-clock allowance.
  double shard_deadline_seconds = kUnlimitedSeconds;
  /// Workers an in-flight item may kill before it is demoted (poisoned).
  std::uint32_t poison_threshold = 2;
  /// Parent polling cadence (waitpid/heartbeat/backoff timers).
  double poll_interval_ms = 5.0;
  /// Per-worker resource caps, applied in the child pre-exec via
  /// setrlimit(RLIMIT_AS / RLIMIT_CPU). 0 = unlimited. A worker that blows
  /// either cap dies (bad_alloc → exit 99, or SIGKILL/SIGXCPU) and follows
  /// the normal crash → backoff → requeue path.
  std::uint64_t mem_limit_bytes = 0;
  double cpu_limit_seconds = 0.0;
  /// Optional shared worker pool (see WorkerSlots). Not owned; must outlive
  /// the supervise_shards() call. nullptr = this supervisor caps itself with
  /// max_parallel only.
  WorkerSlots* slots = nullptr;
  /// Cooperative cancellation: running workers are killed, nothing is
  /// requeued, and the report is marked cancelled.
  CancelToken cancel;
};

/// What happened, for diagnostics and tests. Item-level outcomes matter to
/// the caller: durable items are in its own store; poisoned/abandoned ones
/// need a caller-side fallback.
struct SupervisorReport {
  bool cancelled = false;
  std::uint64_t crashes = 0;  // nonzero exits, signals, and supervisor kills
  std::uint64_t retries = 0;  // shard requeues after a failure
  std::vector<std::size_t> poisoned_items;   // demoted via poison_threshold
  std::vector<std::size_t> abandoned_items;  // attempts exhausted
  std::vector<std::string> events;           // human-readable log
};

/// Transport abstraction: how a shard attempt becomes a worker process.
/// `launch` spawns a process for the attempt and returns its pid, or -1 on
/// launch failure — which the supervisor treats exactly like a crash
/// (backoff + requeue), so a missing binary or an exec error cannot wedge a
/// run. `drain` (optional) is called for every reaped pid before durable():
/// it must return once everything that worker wrote has been made durable,
/// without waiting for anything the worker can no longer send.
///
/// Launchers that fork call apply_worker_rlimits() in the child so
/// SupervisorOptions resource caps apply to every worker.
struct ShardLauncher {
  std::function<pid_t(std::size_t shard_id,
                      const std::vector<std::size_t>& items,
                      std::uint32_t attempt)>
      launch;
  std::function<void(pid_t pid)> drain;
};

/// Parent-side durability probe: which of `shard`'s items are persisted
/// right now. Called on worker exit (to decide completion vs requeue) and
/// periodically while running (heartbeat).
using ShardDurableItems =
    std::function<std::vector<std::size_t>(std::size_t shard_id)>;

/// Supervises the shards to completion (or cancellation). Blocking;
/// single-threaded parent loop. See the file header for semantics: the
/// heartbeat, deadline, backoff, poison-pill, and cancellation work the same
/// for every launcher.
SupervisorReport supervise_shards(const std::vector<ShardWork>& shards,
                                  const SupervisorOptions& options,
                                  const ShardLauncher& launcher,
                                  const ShardDurableItems& durable);

/// Applies SupervisorOptions::{mem_limit_bytes, cpu_limit_seconds} to the
/// calling process (setrlimit RLIMIT_AS / RLIMIT_CPU; no-op for 0 / on
/// non-POSIX builds). Launchers call it in the forked child (before exec,
/// when they exec).
void apply_worker_rlimits(const SupervisorOptions& options) noexcept;

/// True when this platform can fork workers (POSIX).
bool process_isolation_supported() noexcept;

/// This process's pid (0 on platforms without processes).
std::uint64_t own_pid() noexcept;

}  // namespace rid::util
