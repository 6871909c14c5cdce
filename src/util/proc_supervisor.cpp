#include "util/proc_supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/flight_recorder.hpp"
#include "util/fnv.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

#if !defined(_WIN32)
#define RID_HAS_FORK 1
#include <cerrno>
#include <csignal>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define RID_HAS_FORK 0
#endif

namespace rid::util {

bool process_isolation_supported() noexcept { return RID_HAS_FORK != 0; }

std::uint64_t own_pid() noexcept {
#if RID_HAS_FORK
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

#if RID_HAS_FORK

namespace {

using Clock = std::chrono::steady_clock;

/// Supervisor-side metrics (names shared with the RID diagnostics).
struct ShardMetrics {
  metrics::Counter& spawned =
      metrics::global().counter("shard.workers_spawned");
  metrics::Counter& crashes = metrics::global().counter("shard.crashes");
  metrics::Counter& retries = metrics::global().counter("shard.retries");
  metrics::Counter& kills = metrics::global().counter("shard.kills");
  metrics::Counter& poisoned = metrics::global().counter("shard.poison_trees");
  /// High-water of any reaped worker's peak RSS (ru_maxrss, KiB) — the max
  /// across *all* worker attempts since the last reset (set_max), so one
  /// small final shard cannot mask an earlier peak. This is the number that
  /// proves columnar workers run at O(shard trees) instead of O(graph) —
  /// bench_columnar_load resets it between scenarios.
  metrics::Gauge& rss_peak = metrics::global().gauge("shard.rss_peak_kb");
  /// Full per-attempt RSS distribution backing the high-water gauge.
  metrics::Histogram& rss = metrics::global().histogram("shard.rss_kb");
};

/// Per-child peak RSS via wait4's rusage (unlike RUSAGE_CHILDREN, which is
/// a cumulative high-water across every reaped child and can't be reset).
pid_t wait_child(pid_t pid, int* status, int flags, ShardMetrics& sm) {
  struct rusage usage {};
  const pid_t r = ::wait4(pid, status, flags, &usage);
  if (r == pid && usage.ru_maxrss > 0) {
    sm.rss_peak.set_max(static_cast<double>(usage.ru_maxrss));
    sm.rss.observe(static_cast<std::uint64_t>(usage.ru_maxrss));
  }
  return r;
}

ShardMetrics& shard_metrics() {
  static ShardMetrics instance;
  return instance;
}

struct ShardState {
  enum class Phase { kReady, kRunning, kDone };

  std::size_t shard_id = 0;
  std::vector<std::size_t> remaining;  // processing order
  std::uint32_t attempts = 0;          // workers spawned so far
  Phase phase = Phase::kReady;
  Clock::time_point ready_at{};  // backoff gate (kReady)
  pid_t pid = -1;
  bool holds_slot = false;  // owns one WorkerSlots slot while running
  Clock::time_point attempt_start{};
  Clock::time_point last_progress{};
  std::size_t last_durable = 0;
  std::uint64_t span_start_ns = 0;
};

double backoff_ms(const SupervisorOptions& options, std::size_t shard_id,
                  std::uint32_t attempts) {
  double ms = options.backoff_initial_ms;
  for (std::uint32_t i = 1; i < attempts && ms < options.backoff_max_ms; ++i)
    ms *= 2.0;
  ms = std::min(ms, options.backoff_max_ms);
  // Deterministic decorrelation jitter (0-25% of the base, keyed by shard
  // and attempt): shards knocked over by the same event — a dispatcher
  // restart, a healed partition — fan out instead of retrying in lockstep.
  const std::uint64_t mix =
      fnv1a64_step(fnv1a64_step(kFnv64Basis, shard_id), attempts);
  return ms * (1.0 + 0.25 * static_cast<double>((mix >> 13) % 1024) / 1024.0);
}

/// Encodes an attempt's end for the trace span: exit code, or 128+signal
/// for a signal death (the shell convention), or -1 while unknowable.
int encode_exit(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace

SupervisorReport supervise_shards(const std::vector<ShardWork>& shards,
                                  const SupervisorOptions& options,
                                  const ShardLauncher& launcher,
                                  const ShardDurableItems& durable) {
  SupervisorReport report;
  ShardMetrics& sm = shard_metrics();

  std::vector<ShardState> states;
  states.reserve(shards.size());
  const Clock::time_point start = Clock::now();
  for (const ShardWork& shard : shards) {
    ShardState state;
    state.shard_id = shard.shard_id;
    state.remaining = shard.items;
    state.ready_at = start;
    if (state.remaining.empty()) state.phase = ShardState::Phase::kDone;
    states.push_back(std::move(state));
  }

  // item -> workers it was in flight on when they died (poison detection).
  std::unordered_map<std::size_t, std::uint32_t> suspect_kills;
  const std::size_t max_parallel =
      options.max_parallel == 0 ? states.size() : options.max_parallel;
  const bool heartbeat_enabled =
      options.heartbeat_timeout_seconds != kUnlimitedSeconds;
  const bool deadline_enabled =
      options.shard_deadline_seconds != kUnlimitedSeconds;

  const auto log_event = [&](const std::string& text) {
    // Every supervisor event (spawn, crash, kill, requeue, poison,
    // abandon, cancel) also lands in the flight recorder, so a crashed or
    // killed parent still leaves the worker history on disk.
    flight::record("shard.worker", text);
    report.events.push_back(text);
  };

  const auto emit_attempt_span = [&](const ShardState& state, int exit_code) {
    const trace::TagValue tags[] = {
        {"shard", nullptr, static_cast<std::int64_t>(state.shard_id)},
        {"attempt", nullptr, static_cast<std::int64_t>(state.attempts)},
        {"exit", nullptr, static_cast<std::int64_t>(exit_code)},
    };
    trace::emit_span("shard_worker", state.span_start_ns, trace::now_ns(),
                     trace::current_tid(), tags);
  };

  const auto release_slot = [&](ShardState& state) {
    if (state.holds_slot) {
      options.slots->release();
      state.holds_slot = false;
    }
  };

  /// Every reaping path ends an attempt here: the slot and trace span are
  /// closed, the worker's stream is drained (drain before durable), and
  /// the durable items are removed from state.remaining (keeping order).
  /// Returns how many were completed.
  const auto end_attempt = [&](ShardState& state, int exit_code) {
    const pid_t reaped = std::exchange(state.pid, -1);
    release_slot(state);
    emit_attempt_span(state, exit_code);
    if (launcher.drain) launcher.drain(reaped);
    const std::vector<std::size_t> done = durable(state.shard_id);
    const std::unordered_set<std::size_t> done_set(done.begin(), done.end());
    const std::size_t before = state.remaining.size();
    std::erase_if(state.remaining, [&](std::size_t item) {
      return done_set.count(item) > 0;
    });
    return before - state.remaining.size();
  };

  /// Requeues (with backoff), abandons, or completes a shard after a worker
  /// ended. `abnormal` = crash/signal/kill (runs poison detection).
  const auto after_attempt = [&](ShardState& state, bool abnormal) {
    if (abnormal && !state.remaining.empty()) {
      const std::size_t suspect = state.remaining.front();
      const std::uint32_t kills = ++suspect_kills[suspect];
      if (kills >= options.poison_threshold) {
        report.poisoned_items.push_back(suspect);
        sm.poisoned.add(1);
        state.remaining.erase(state.remaining.begin());
        std::ostringstream event;
        event << "shard " << state.shard_id << ": item " << suspect
              << " killed " << kills << " workers - poisoned";
        log_event(event.str());
      }
    }
    if (state.remaining.empty()) {
      state.phase = ShardState::Phase::kDone;
      return;
    }
    if (state.attempts >= options.max_shard_attempts) {
      std::ostringstream event;
      event << "shard " << state.shard_id << ": attempts exhausted - "
            << "abandoning " << state.remaining.size() << " items";
      log_event(event.str());
      for (const std::size_t item : state.remaining)
        report.abandoned_items.push_back(item);
      state.remaining.clear();
      state.phase = ShardState::Phase::kDone;
      return;
    }
    const double wait_ms =
        backoff_ms(options, state.shard_id, state.attempts);
    ++report.retries;
    sm.retries.add(1);
    state.phase = ShardState::Phase::kReady;
    state.ready_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double, std::milli>(
                                            wait_ms));
    std::ostringstream event;
    event << "shard " << state.shard_id << ": requeued "
          << state.remaining.size() << " items (next attempt "
          << state.attempts + 1 << ", backoff " << wait_ms << " ms)";
    log_event(event.str());
  };

  const auto spawn = [&](ShardState& state) {
    if (options.slots != nullptr && !state.holds_slot) {
      // Shared pool exhausted by other jobs: stay queued, no attempt burned.
      if (!options.slots->try_acquire()) return;
      state.holds_slot = true;
    }
    ++state.attempts;
    state.span_start_ns = trace::now_ns();
    const pid_t pid =
        launcher.launch(state.shard_id, state.remaining, state.attempts);
    if (pid < 0) {
      // Launch failure (fork EAGAIN under load, exec error, transport
      // refusal): same path as a crash, so the backoff gives the system
      // room.
      release_slot(state);
      std::ostringstream event;
      event << "shard " << state.shard_id << ": worker launch failed (errno "
            << errno << ")";
      log_event(event.str());
      ++report.crashes;
      sm.crashes.add(1);
      after_attempt(state, /*abnormal=*/false);
      return;
    }
    sm.spawned.add(1);
    state.pid = pid;
    state.phase = ShardState::Phase::kRunning;
    state.attempt_start = state.last_progress = Clock::now();
    state.last_durable = heartbeat_enabled ? durable(state.shard_id).size() : 0;
    std::ostringstream event;
    event << "shard " << state.shard_id << ": spawned worker (attempt "
          << state.attempts << ", " << state.remaining.size() << " items)";
    log_event(event.str());
  };

  const auto reap = [&](ShardState& state, int status) {
    const std::size_t completed = end_attempt(state, encode_exit(status));
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::ostringstream event;
    event << "shard " << state.shard_id << ": worker ";
    if (WIFSIGNALED(status)) {
      event << "died on signal " << WTERMSIG(status);
    } else {
      event << "exited " << WEXITSTATUS(status);
    }
    event << " (attempt " << state.attempts << ", " << completed
          << " items completed, " << state.remaining.size() << " left)";
    log_event(event.str());
    if (clean && !state.remaining.empty()) {
      // A clean exit that skipped items is a worker bug, but the recovery
      // path is the same requeue (minus poison suspicion).
      after_attempt(state, /*abnormal=*/false);
      return;
    }
    if (!clean) {
      ++report.crashes;
      sm.crashes.add(1);
      after_attempt(state, /*abnormal=*/true);
      return;
    }
    state.phase = ShardState::Phase::kDone;
  };

  const auto kill_worker = [&](ShardState& state, const char* why,
                               double seconds) {
    ::kill(state.pid, SIGKILL);
    sm.kills.add(1);
    std::ostringstream event;
    event << "shard " << state.shard_id << ": " << why << " for " << seconds
          << " s - killing worker (attempt " << state.attempts << ")";
    log_event(event.str());
    // The death is observed (and requeued) by the normal waitpid path.
  };

  while (true) {
    if (options.cancel.cancel_requested()) {
      report.cancelled = true;
      for (ShardState& state : states) {
        if (state.phase != ShardState::Phase::kRunning) continue;
        ::kill(state.pid, SIGKILL);
        sm.kills.add(1);
        int status = 0;
        while (wait_child(state.pid, &status, 0, sm) < 0 && errno == EINTR) {
        }
        end_attempt(state, encode_exit(status));
        state.phase = ShardState::Phase::kDone;
        std::ostringstream event;
        event << "shard " << state.shard_id << ": cancelled - killed worker";
        log_event(event.str());
      }
      break;
    }

    bool all_done = true;
    std::size_t running = 0;
    for (const ShardState& state : states) {
      if (state.phase != ShardState::Phase::kDone) all_done = false;
      if (state.phase == ShardState::Phase::kRunning) ++running;
    }
    if (all_done) break;

    const Clock::time_point now = Clock::now();
    for (ShardState& state : states) {
      if (running >= max_parallel) break;
      if (state.phase != ShardState::Phase::kReady || now < state.ready_at)
        continue;
      spawn(state);
      if (state.phase == ShardState::Phase::kRunning) ++running;
    }

    for (ShardState& state : states) {
      if (state.phase != ShardState::Phase::kRunning) continue;
      int status = 0;
      const pid_t r = wait_child(state.pid, &status, WNOHANG, sm);
      if (r == state.pid) {
        reap(state, status);
        continue;
      }
      if (r < 0 && errno != EINTR) {
        // Lost track of the child (should not happen) — treat as a crash.
        const int wait_errno = errno;
        end_attempt(state, -1);
        ++report.crashes;
        sm.crashes.add(1);
        std::ostringstream event;
        event << "shard " << state.shard_id << ": waitpid failed (errno "
              << wait_errno << ") - treating worker as crashed";
        log_event(event.str());
        after_attempt(state, /*abnormal=*/true);
        continue;
      }
      // Still running: heartbeat + per-attempt deadline.
      const Clock::time_point poll_now = Clock::now();
      if (heartbeat_enabled) {
        const std::size_t durable_count = durable(state.shard_id).size();
        if (durable_count > state.last_durable) {
          state.last_durable = durable_count;
          state.last_progress = poll_now;
        } else {
          const double stalled =
              std::chrono::duration<double>(poll_now - state.last_progress)
                  .count();
          if (stalled > options.heartbeat_timeout_seconds)
            kill_worker(state, "no progress", stalled);
        }
      }
      if (deadline_enabled) {
        const double alive =
            std::chrono::duration<double>(poll_now - state.attempt_start)
                .count();
        if (alive > options.shard_deadline_seconds)
          kill_worker(state, "attempt deadline exceeded", alive);
      }
    }

    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::max(0.1, options.poll_interval_ms)));
  }

  return report;
}

void apply_worker_rlimits(const SupervisorOptions& options) noexcept {
  if (options.mem_limit_bytes > 0) {
    struct rlimit limit {};
    limit.rlim_cur = limit.rlim_max =
        static_cast<rlim_t>(options.mem_limit_bytes);
    ::setrlimit(RLIMIT_AS, &limit);
  }
  if (options.cpu_limit_seconds > 0) {
    struct rlimit limit {};
    // Round up: RLIMIT_CPU is whole seconds. Soft limit delivers SIGXCPU
    // (fatal by default); the hard limit one second later is the SIGKILL
    // backstop for workers that catch SIGXCPU.
    const auto seconds =
        static_cast<rlim_t>(std::ceil(options.cpu_limit_seconds));
    limit.rlim_cur = seconds == 0 ? 1 : seconds;
    limit.rlim_max = limit.rlim_cur + 1;
    ::setrlimit(RLIMIT_CPU, &limit);
  }
}

#else  // !RID_HAS_FORK

void apply_worker_rlimits(const SupervisorOptions&) noexcept {}

SupervisorReport supervise_shards(const std::vector<ShardWork>&,
                                  const SupervisorOptions&,
                                  const ShardLauncher&,
                                  const ShardDurableItems&) {
  SupervisorReport report;
  report.events.emplace_back(
      "process isolation unsupported on this platform - run in-process");
  return report;
}

#endif

}  // namespace rid::util
