// Service layer: socket-dispatched shard workers (core/shard_transport.hpp)
// and the ridnet_serve daemon (core/serve.hpp). Workers here are real
// fork+exec'd ridnet_cli processes speaking the wire protocol over real
// sockets; daemons run against real journals; crashes are injected with
// armed failpoints (parent side) and $RID_FAILPOINTS (exec'd worker side).
//
// The contracts under test, from DESIGN.md §13:
//  * socket transport is bit-identical to the in-process pipeline for any
//    worker count and any injected crash schedule;
//  * the daemon's journal makes every accepted job either complete with a
//    durable result or stay recoverable across a daemon restart;
//  * admission control rejects with a retry-after hint, never queues
//    unboundedly, and rejects unusable submissions permanently.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/rid.hpp"
#include "core/serve.hpp"
#include "core/shard_transport.hpp"
#include "core/snapshot_io.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/columnar.hpp"
#include "util/failpoint.hpp"
#include "util/net.hpp"
#include "util/proc_supervisor.hpp"
#include "util/rng.hpp"

#ifndef RIDNET_CLI_PATH
#define RIDNET_CLI_PATH ""
#endif

namespace rid::core {
namespace {

namespace fs = std::filesystem;
using graph::NodeId;
using graph::NodeState;

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void expect_identical(const DetectionResult& got, const DetectionResult& want) {
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.num_trees, want.num_trees);
  EXPECT_EQ(got.initiators, want.initiators);
  EXPECT_EQ(got.states, want.states);
  EXPECT_EQ(double_bits(got.total_opt), double_bits(want.total_opt));
  EXPECT_EQ(double_bits(got.total_objective),
            double_bits(want.total_objective));
}

/// Multi-tree snapshot written to a self-contained .ridg (diffusion flag +
/// embedded states) — the only input shape socket workers and serve jobs
/// accept, since they re-map the file themselves.
struct Scenario {
  graph::SignedGraph graph;
  std::vector<NodeState> states;
  RidConfig config;
  std::string ridg_path;
};

const Scenario& scenario() {
  static const Scenario instance = [] {
    Scenario s;
    util::Rng rng(3);
    const auto el = gen::erdos_renyi(250, 500, rng);
    s.graph = gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
    for (graph::EdgeId e = 0; e < s.graph.num_edges(); ++e)
      s.graph.set_edge_weight(e, rng.uniform(0.02, 0.25));
    diffusion::SeedSet seeds;
    for (NodeId v = 0; v < 16; ++v) {
      seeds.nodes.push_back(v * 15);
      seeds.states.push_back(v % 2 ? NodeState::kNegative
                                   : NodeState::kPositive);
    }
    const diffusion::Cascade cascade =
        diffusion::simulate_mfc(s.graph, seeds, diffusion::MfcConfig{}, rng);
    s.states = cascade.state;
    s.config.beta = 0.1;
    s.config.num_threads = 2;
    // One file per test process: ctest runs these tests in parallel
    // processes, and two writers of one path share its temp file.
    s.ridg_path =
        (fs::path(::testing::TempDir()) /
         ("serve_scenario_p" + std::to_string(util::own_pid()) + ".ridg"))
            .string();
    graph::write_columnar_file(s.graph, s.states, s.ridg_path,
                               graph::kRidgFlagDiffusion);
    return s;
  }();
  return instance;
}

/// The states `detect --out` (and a serve job's result.txt) would write.
std::vector<NodeState> expected_detected(const DetectionResult& result,
                                         NodeId num_nodes) {
  std::vector<NodeState> detected(num_nodes, NodeState::kInactive);
  for (std::size_t i = 0; i < result.initiators.size(); ++i) {
    detected[result.initiators[i]] = graph::is_opinion(result.states[i])
                                         ? result.states[i]
                                         : NodeState::kUnknown;
  }
  return detected;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::process_isolation_supported() || !util::net::supported())
      GTEST_SKIP() << "no fork()/sockets on this platform";
    if (std::string(RIDNET_CLI_PATH).empty())
      GTEST_SKIP() << "ridnet_cli path not wired into this build";
    util::failpoint::disarm_all();
    ::unsetenv("RID_FAILPOINTS");
  }
  void TearDown() override {
    util::failpoint::disarm_all();
    ::unsetenv("RID_FAILPOINTS");
  }

  std::string run_dir(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("serve_" + name);
    fs::remove_all(dir);
    return dir.string();
  }

  /// Socket-transport sharded config with fast test supervision.
  ShardedConfig socket_sharded(std::size_t shards, const std::string& dir) {
    ShardedConfig config;
    config.num_shards = shards;
    config.run_dir = dir;
    config.resume = false;
    config.transport = ShardTransport::kSocket;
    config.worker_command = RIDNET_CLI_PATH;
    config.supervisor.backoff_initial_ms = 1.0;
    config.supervisor.backoff_max_ms = 20.0;
    return config;
  }
};

// --- socket transport -----------------------------------------------------

TEST_F(ServeTest, SocketTransportBitIdenticalAcrossWorkerCounts) {
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(s.ridg_path);
  const DetectionResult want = run_rid(view, view.states(), s.config);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const DetectionResult got = run_rid_sharded(
        view, view.states(), s.config,
        socket_sharded(shards, run_dir("sock_" + std::to_string(shards))));
    expect_identical(got, want);
    EXPECT_TRUE(got.diagnostics.all_ok()) << "shards=" << shards;
    EXPECT_EQ(got.diagnostics.shard_crashes, 0u);
  }
}

TEST_F(ServeTest, SocketTransportRunsEveryConfigTheForkTransportRuns) {
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(s.ridg_path);

  // No worker command: nothing to exec.
  ShardedConfig no_cmd = socket_sharded(2, run_dir("nocmd"));
  no_cmd.worker_command.clear();
  EXPECT_THROW(run_rid_sharded(view, view.states(), s.config, no_cmd),
               util::InputError);

  // Workers solve the trees the parent built, so a candidate mask and
  // repaired states reach them as the parent applied them. Both inputs
  // change the answer, so a worker that dropped either would diverge.
  const DetectionResult plain = run_rid(view, view.states(), s.config);
  RidConfig with_candidates = s.config;
  with_candidates.candidates.assign(view.num_nodes(), false);
  for (NodeId v = 0; v < view.num_nodes(); v += 3)
    with_candidates.candidates[v] = true;
  const DetectionResult masked =
      run_rid(view, view.states(), with_candidates);
  EXPECT_NE(masked.initiators, plain.initiators);
  expect_identical(run_rid_sharded(view, view.states(), with_candidates,
                                   socket_sharded(2, run_dir("cand"))),
                   masked);

  // Invalid state bytes on a few infected nodes: kRepair resets them to
  // inactive, which reshapes the forest the workers get.
  std::vector<NodeState> damaged(view.states().begin(), view.states().end());
  std::size_t hits = 0;
  for (NodeId v = 0; v < damaged.size() && hits < 4; ++v)
    if (graph::is_active(damaged[v])) {
      damaged[v] = static_cast<NodeState>(7);
      ++hits;
    }
  RidConfig with_repair = s.config;
  with_repair.repair_policy = RepairPolicy::kRepair;
  const DetectionResult repaired = run_rid(view, damaged, with_repair);
  EXPECT_FALSE(repaired.diagnostics.repairs.empty());
  EXPECT_NE(double_bits(repaired.total_opt), double_bits(plain.total_opt));
  const DetectionResult got = run_rid_sharded(
      view, damaged, with_repair, socket_sharded(2, run_dir("repair")));
  expect_identical(got, repaired);
  EXPECT_TRUE(got.diagnostics.all_ok());
}

TEST_F(ServeTest, SocketCrashSchedulesMergeBitIdentical) {
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(s.ridg_path);
  const DetectionResult want = run_rid(view, view.states(), s.config);

  // Each schedule injects a different wire-level failure mode; all must
  // recover through crash -> backoff -> requeue to the exact same answer.
  struct Schedule {
    const char* name;
    const char* parent_failpoints;  // armed in the dispatcher process
    const char* worker_env;         // $RID_FAILPOINTS for exec'd workers
    bool expect_crashes;
  };
  const Schedule schedules[] = {
      // Workers SIGABRT at their second tree, attempt after attempt.
      {"worker_abort", "", "shard.worker_tree=abort@2", true},
      // A worker dies mid-frame after one durable record (frame 1 is the
      // handshake, frame 2 the first record): the dispatcher keeps the
      // durable prefix and requeues the remainder.
      {"torn_frame", "", "net.torn_frame=abort@3", true},
      // The first fork+exec fails outright (launch failure, not a crash).
      {"launch_failure", "net.worker_exec=throw@1", "", false},
      // The dispatcher drops the 2nd freshly accepted connection; the
      // orphaned worker exits nonzero and the shard is retried.
      {"dropped_accept", "net.accept=throw@2", "", true},
  };

  for (const Schedule& schedule : schedules) {
    SCOPED_TRACE(schedule.name);
    if (*schedule.parent_failpoints)
      util::failpoint::arm(schedule.parent_failpoints);
    if (*schedule.worker_env)
      ::setenv("RID_FAILPOINTS", schedule.worker_env, 1);

    ShardedConfig config =
        socket_sharded(2, run_dir(std::string("sched_") + schedule.name));
    config.supervisor.max_shard_attempts = 64;
    const DetectionResult got =
        run_rid_sharded(view, view.states(), s.config, config);

    util::failpoint::disarm_all();
    ::unsetenv("RID_FAILPOINTS");

    expect_identical(got, want);
    EXPECT_TRUE(got.diagnostics.all_ok());
    if (schedule.expect_crashes) {
      EXPECT_GT(got.diagnostics.shard_crashes, 0u);
    }
  }
}

TEST_F(ServeTest, StalledSocketWorkerIsKilledByHeartbeat) {
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(s.ridg_path);
  const DetectionResult want = run_rid(view, view.states(), s.config);

  // The worker stalls "forever" at its second tree; its checkpoint stream
  // stops growing, so the heartbeat must SIGKILL it and requeue — the same
  // ladder as the fork transport, driven through streamed records here.
  ::setenv("RID_FAILPOINTS", "shard.worker_tree=sleep(60000)@2", 1);
  ShardedConfig config = socket_sharded(1, run_dir("hang"));
  config.supervisor.heartbeat_timeout_seconds = 0.5;
  config.supervisor.poison_threshold = 1000;
  config.supervisor.max_shard_attempts = 64;
  const DetectionResult got =
      run_rid_sharded(view, view.states(), s.config, config);
  ::unsetenv("RID_FAILPOINTS");

  expect_identical(got, want);
  EXPECT_TRUE(got.diagnostics.all_ok());
  EXPECT_GT(got.diagnostics.shard_crashes, 0u);
}

// --- the serve daemon -----------------------------------------------------

/// run_serve in a background thread with readiness and shutdown handles.
class DaemonHandle {
 public:
  explicit DaemonHandle(ServeOptions options) : options_(std::move(options)) {
    options_.cancel = util::CancelToken::create();
    std::promise<std::string> ready;
    auto ready_future = ready.get_future();
    options_.on_listening = [&ready](const std::string& endpoint) {
      ready.set_value(endpoint);
    };
    thread_ = std::thread([this] {
      try {
        report_ = run_serve(options_);
      } catch (const std::exception& e) {
        startup_error_ = e.what();
      }
    });
    // Either the daemon binds or it throws on startup.
    if (ready_future.wait_for(std::chrono::seconds(30)) ==
        std::future_status::ready) {
      endpoint_ = ready_future.get();
    } else {
      stop();
    }
  }
  ~DaemonHandle() { stop(); }

  const std::string& endpoint() const { return endpoint_; }
  const std::string& startup_error() const { return startup_error_; }

  ServeReport stop() {
    if (thread_.joinable()) {
      options_.cancel.request_cancel();
      thread_.join();
    }
    return report_;
  }

 private:
  ServeOptions options_;
  std::string endpoint_;
  std::string startup_error_;
  std::thread thread_;
  ServeReport report_;
};

ServeOptions serve_options(const std::string& dir) {
  ServeOptions options;
  options.run_dir = dir;
  options.base_config = scenario().config;
  options.supervisor.backoff_initial_ms = 1.0;
  options.supervisor.backoff_max_ms = 20.0;
  return options;
}

/// Polls until the job leaves kPending (tolerating a daemon restart gap).
JobQueryResult wait_done(const std::string& endpoint, std::uint64_t job_id,
                         double timeout_seconds = 60.0) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    try {
      const JobQueryResult result = query_job(endpoint, job_id);
      if (result.phase != JobPhase::kPending) return result;
    } catch (const util::InputError&) {
      // daemon briefly unreachable — retry below
    }
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (waited > timeout_seconds) {
      JobQueryResult timed_out;
      timed_out.message = "timed out waiting for job";
      return timed_out;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

TEST_F(ServeTest, DaemonRunsJobsAndResultsMatchBatchDetect) {
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(s.ridg_path);
  DaemonHandle daemon(serve_options(run_dir("basic")));
  ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();

  // Two jobs with different betas: results must match what batch detect
  // would produce for each, byte for byte in snapshot-file terms.
  const double betas[] = {0.1, 2.0};
  std::vector<std::uint64_t> ids;
  for (const double beta : betas) {
    JobSpec spec;
    spec.graph_path = s.ridg_path;
    spec.beta = beta;
    spec.num_shards = 2;
    const SubmitOutcome outcome = submit_job(daemon.endpoint(), spec);
    ASSERT_TRUE(outcome.accepted) << outcome.reason;
    ids.push_back(outcome.job_id);
  }
  EXPECT_EQ(ids[0] + 1, ids[1]) << "job ids must be sequential";

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobQueryResult done = wait_done(daemon.endpoint(), ids[i]);
    ASSERT_EQ(done.phase, JobPhase::kDone) << done.message;
    EXPECT_TRUE(done.ok) << done.message;

    RidConfig config = s.config;
    config.beta = betas[i];
    const DetectionResult want = run_rid(view, view.states(), config);
    const auto got_states =
        load_snapshot_file(done.result_path, view.num_nodes());
    EXPECT_EQ(got_states, expected_detected(want, view.num_nodes()))
        << "job " << ids[i];
  }

  // Unknown job ids answer kUnknown, not an error.
  EXPECT_EQ(query_job(daemon.endpoint(), 999).phase, JobPhase::kUnknown);

  const ServeReport report = daemon.stop();
  EXPECT_EQ(report.jobs_accepted, 2u);
  EXPECT_EQ(report.jobs_completed, 2u);
  EXPECT_EQ(report.jobs_rejected, 0u);
}

TEST_F(ServeTest, AdmissionRejectsWithRetryAfterAndPermanently) {
  const Scenario& s = scenario();

  // Queue capacity zero: every structurally valid submit is over budget and
  // must come back with a retry-after hint (the CLI maps this to exit 6).
  ServeOptions full = serve_options(run_dir("admission_full"));
  full.max_queued_jobs = 0;
  {
    DaemonHandle daemon(std::move(full));
    ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();
    JobSpec spec;
    spec.graph_path = s.ridg_path;
    const SubmitOutcome outcome = submit_job(daemon.endpoint(), spec);
    EXPECT_FALSE(outcome.accepted);
    EXPECT_FALSE(outcome.permanent);
    EXPECT_GT(outcome.retry_after_seconds, 0.0);
    EXPECT_EQ(daemon.stop().jobs_rejected, 1u);
  }

  // Node budget smaller than the graph: same retry-after path.
  ServeOptions tight = serve_options(run_dir("admission_nodes"));
  tight.max_pending_nodes = 10;
  {
    DaemonHandle daemon(std::move(tight));
    ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();
    JobSpec spec;
    spec.graph_path = s.ridg_path;
    const SubmitOutcome outcome = submit_job(daemon.endpoint(), spec);
    EXPECT_FALSE(outcome.accepted);
    EXPECT_FALSE(outcome.permanent);
    EXPECT_GT(outcome.retry_after_seconds, 0.0);
  }

  // Unusable submissions are permanent rejections: retrying cannot help,
  // and nothing lands in the journal or the queue.
  {
    DaemonHandle daemon(serve_options(run_dir("admission_bad")));
    ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();
    JobSpec missing;
    missing.graph_path = "/nonexistent/no.ridg";
    const SubmitOutcome outcome = submit_job(daemon.endpoint(), missing);
    EXPECT_FALSE(outcome.accepted);
    EXPECT_TRUE(outcome.permanent);
    JobSpec zero_shards;
    zero_shards.graph_path = s.ridg_path;
    zero_shards.num_shards = 0;
    EXPECT_TRUE(submit_job(daemon.endpoint(), zero_shards).permanent);
    const ServeReport report = daemon.stop();
    EXPECT_EQ(report.jobs_accepted, 0u);
  }
}

TEST_F(ServeTest, ShutdownMidJobThenResumeCompletesBitIdentical) {
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(s.ridg_path);
  const DetectionResult want = run_rid(view, view.states(), s.config);
  const std::string dir = run_dir("resume");

  // Phase 1: every tree stalls 150 ms (forked workers inherit the armed
  // failpoint), so the stop lands mid-job with high probability. The job
  // must stay journal-incomplete — no completed record, no result file
  // visible as done.
  util::failpoint::arm("shard.worker_tree=sleep(150)");
  std::uint64_t job_id = 0;
  {
    DaemonHandle daemon(serve_options(dir));
    ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();
    JobSpec spec;
    spec.graph_path = s.ridg_path;
    spec.beta = s.config.beta;
    spec.num_shards = 2;
    const SubmitOutcome outcome = submit_job(daemon.endpoint(), spec);
    ASSERT_TRUE(outcome.accepted) << outcome.reason;
    job_id = outcome.job_id;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const ServeReport report = daemon.stop();  // daemon dies mid-job
    EXPECT_EQ(report.jobs_accepted, 1u);
    EXPECT_EQ(report.jobs_completed, 0u);
  }
  util::failpoint::disarm_all();

  // Phase 2: a resumed daemon re-queues the journal-incomplete job, adopts
  // the checkpoints its workers already streamed, and finishes it. The
  // result must match the uninterrupted pipeline exactly.
  ServeOptions resumed = serve_options(dir);
  resumed.resume = true;
  DaemonHandle daemon(std::move(resumed));
  ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();
  const JobQueryResult done = wait_done(daemon.endpoint(), job_id);
  ASSERT_EQ(done.phase, JobPhase::kDone) << done.message;
  EXPECT_TRUE(done.ok) << done.message;
  const auto got_states = load_snapshot_file(done.result_path, view.num_nodes());
  EXPECT_EQ(got_states, expected_detected(want, view.num_nodes()));
  const ServeReport report = daemon.stop();
  EXPECT_EQ(report.jobs_recovered, 1u);
  EXPECT_EQ(report.jobs_completed, 1u);
}

TEST_F(ServeTest, JournalTornTailIsToleratedOnResume) {
  const Scenario& s = scenario();
  const std::string dir = run_dir("torn_journal");

  std::uint64_t job_id = 0;
  {
    DaemonHandle daemon(serve_options(dir));
    ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();
    JobSpec spec;
    spec.graph_path = s.ridg_path;
    const SubmitOutcome outcome = submit_job(daemon.endpoint(), spec);
    ASSERT_TRUE(outcome.accepted);
    job_id = outcome.job_id;
    ASSERT_EQ(wait_done(daemon.endpoint(), job_id).phase, JobPhase::kDone);
    daemon.stop();
  }

  // A daemon crash mid-append leaves a torn trailing record. The valid
  // prefix — the completed job — must survive.
  {
    std::ofstream journal(dir + "/jobs.journal",
                          std::ios::binary | std::ios::app);
    journal << "\x40\x00\x00\x00\x99\x99torn";
  }
  ServeOptions resumed = serve_options(dir);
  resumed.resume = true;
  DaemonHandle daemon(std::move(resumed));
  ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();
  const JobQueryResult done = wait_done(daemon.endpoint(), job_id, 10.0);
  EXPECT_EQ(done.phase, JobPhase::kDone) << "completed job lost to torn tail";
  const ServeReport report = daemon.stop();
  EXPECT_EQ(report.jobs_recovered, 0u) << "completed job must not re-run";
}

TEST_F(ServeTest, CrashStormSoakEveryJobTerminatesAndMatches) {
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(s.ridg_path);

  // Seeded storm: socket-transport workers abort at their second tree,
  // the first fork+exec fails, and the dispatcher drops an accepted
  // connection — all while 3 clients submit concurrently against a queue
  // of 2 and a shared 2-worker pool. Every job must terminate and match.
  util::Rng rng(20260808);
  util::failpoint::arm("net.worker_exec=throw@1;net.accept=throw@3");
  ::setenv("RID_FAILPOINTS", "shard.worker_tree=abort@2", 1);

  ServeOptions options = serve_options(run_dir("storm"));
  options.transport = ShardTransport::kSocket;
  options.worker_command = RIDNET_CLI_PATH;
  options.worker_slots = 2;
  options.max_queued_jobs = 2;
  options.max_concurrent_jobs = 2;
  options.supervisor.max_shard_attempts = 64;
  DaemonHandle daemon(std::move(options));
  ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();

  const double betas[] = {0.1, rng.uniform(0.05, 0.2), 2.0};
  std::vector<std::uint64_t> ids(3, 0);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      JobSpec spec;
      spec.graph_path = s.ridg_path;
      spec.beta = betas[i];
      spec.num_shards = 2;
      // Admission may bounce a submit while the queue is full, and the
      // dropped-accept failpoint may eat a whole request; honoring
      // retry-after (and plain client retry) must eventually get every
      // job in.
      for (;;) {
        try {
          const SubmitOutcome outcome = submit_job(daemon.endpoint(), spec);
          if (outcome.accepted) {
            ids[i] = outcome.job_id;
            return;
          }
          ASSERT_FALSE(outcome.permanent) << outcome.reason;
        } catch (const util::InputError&) {
          // connection dropped mid-request — retry
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_NE(ids[i], 0u);
    const JobQueryResult done = wait_done(daemon.endpoint(), ids[i], 120.0);
    ASSERT_EQ(done.phase, JobPhase::kDone) << done.message;
    EXPECT_TRUE(done.ok) << done.message;
    RidConfig config = s.config;
    config.beta = betas[i];
    const DetectionResult want = run_rid(view, view.states(), config);
    const auto got_states =
        load_snapshot_file(done.result_path, view.num_nodes());
    EXPECT_EQ(got_states, expected_detected(want, view.num_nodes()))
        << "job " << ids[i] << " diverged under the crash storm";
  }
  const ServeReport report = daemon.stop();
  EXPECT_EQ(report.jobs_completed, 3u);
}

// --- live introspection (kStats) ------------------------------------------

TEST_F(ServeTest, StatsSnapshotStaysConsistentUnderRacingJobs) {
  const Scenario& s = scenario();
  DaemonHandle daemon(serve_options(run_dir("stats_race")));
  ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();

  // 3 jobs race against a stats poller; every snapshot the poller sees
  // must be internally coherent (valid reply, job counts within bounds).
  constexpr std::size_t kJobs = 3;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.graph_path = s.ridg_path;
    spec.beta = 0.1;
    spec.num_shards = 2;
    const SubmitOutcome outcome = submit_job(daemon.endpoint(), spec);
    ASSERT_TRUE(outcome.accepted) << outcome.reason;
    ids.push_back(outcome.job_id);
  }

  std::atomic<bool> all_done{false};
  std::thread poller([&] {
    while (!all_done.load()) {
      const DaemonStats stats = query_stats(daemon.endpoint(),
                                            /*include_events=*/false,
                                            /*prometheus_metrics=*/false);
      EXPECT_EQ(stats.stats_json.front(), '{');
      EXPECT_EQ(stats.stats_json.back(), '}');
      EXPECT_NE(stats.stats_json.find("\"uptime_seconds\": "),
                std::string::npos);
      EXPECT_NE(stats.stats_json.find("\"jobs_accepted\": "),
                std::string::npos);
      EXPECT_NE(stats.stats_json.find("\"metrics\": {"), std::string::npos);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (const std::uint64_t id : ids) {
    const JobQueryResult done = wait_done(daemon.endpoint(), id);
    ASSERT_EQ(done.phase, JobPhase::kDone) << done.message;
    EXPECT_TRUE(done.ok) << done.message;
    // The per-job resource stats ride the query reply.
    EXPECT_TRUE(done.has_stats);
    EXPECT_GT(done.wall_seconds, 0.0);
    EXPECT_GE(done.cpu_seconds, 0.0);
  }
  all_done.store(true);
  poller.join();

  // Settled state: every job shows as done with stats, both formats work,
  // and the flight ring rode along when asked for.
  const DaemonStats settled = query_stats(daemon.endpoint(),
                                          /*include_events=*/true,
                                          /*prometheus_metrics=*/false);
  EXPECT_NE(settled.stats_json.find("\"jobs_accepted\": 3"),
            std::string::npos);
  EXPECT_NE(settled.stats_json.find("\"queue_depth\": 0"), std::string::npos);
  EXPECT_NE(settled.stats_json.find("\"running_jobs\": 0"), std::string::npos);
  for (const std::uint64_t id : ids)
    EXPECT_NE(settled.stats_json.find("{\"id\": " + std::to_string(id)),
              std::string::npos);
  EXPECT_NE(settled.stats_json.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(settled.stats_json.find("\"wall_seconds\": "), std::string::npos);
  EXPECT_NE(settled.events_jsonl.find("\"category\": \"serve\""),
            std::string::npos);
  EXPECT_NE(settled.events_jsonl.find("accepted"), std::string::npos);

  const DaemonStats prom = query_stats(daemon.endpoint(),
                                       /*include_events=*/false,
                                       /*prometheus_metrics=*/true);
  EXPECT_NE(prom.stats_json.find("\"metrics_prom\": \""), std::string::npos);
  EXPECT_NE(prom.stats_json.find("# TYPE serve_jobs_submitted counter"),
            std::string::npos);

  daemon.stop();
}

TEST_F(ServeTest, JobStatsSurviveDaemonRestartViaJournal) {
  const Scenario& s = scenario();
  const std::string dir = run_dir("stats_restart");

  std::uint64_t job_id = 0;
  double wall_before = 0.0;
  {
    DaemonHandle daemon(serve_options(dir));
    ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();
    JobSpec spec;
    spec.graph_path = s.ridg_path;
    spec.beta = 0.1;
    spec.num_shards = 2;
    const SubmitOutcome outcome = submit_job(daemon.endpoint(), spec);
    ASSERT_TRUE(outcome.accepted) << outcome.reason;
    job_id = outcome.job_id;
    const JobQueryResult done = wait_done(daemon.endpoint(), job_id);
    ASSERT_EQ(done.phase, JobPhase::kDone) << done.message;
    ASSERT_TRUE(done.has_stats);
    wall_before = done.wall_seconds;
    daemon.stop();
  }

  // The restarted daemon replays the type-3 journal record: the same
  // wall-clock figure comes back without re-running anything.
  ServeOptions resumed = serve_options(dir);
  resumed.resume = true;
  DaemonHandle daemon(std::move(resumed));
  ASSERT_FALSE(daemon.endpoint().empty()) << daemon.startup_error();
  const JobQueryResult recovered = query_job(daemon.endpoint(), job_id);
  ASSERT_EQ(recovered.phase, JobPhase::kDone);
  EXPECT_TRUE(recovered.has_stats);
  EXPECT_EQ(recovered.wall_seconds, wall_before);
  daemon.stop();
}

}  // namespace
}  // namespace rid::core
