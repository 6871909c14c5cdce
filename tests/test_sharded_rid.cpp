// Crash-isolated sharded RID runner (run_rid_sharded): bit-identity with
// the in-process pipeline across shard counts, checkpoint resume (including
// after injected worker crashes and corrupted checkpoint files), poison-pill
// demotion, hang kills, and cancellation. Workers really fork and really
// die here — every recovery decision is driven through armed failpoints,
// never simulated in-process.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/rid.hpp"
#include "core/snapshot_io.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/columnar.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/proc_supervisor.hpp"
#include "util/rng.hpp"

#if !defined(_WIN32)
#include <csignal>
#include <cstdlib>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#ifndef RIDNET_CLI_PATH
#define RIDNET_CLI_PATH ""
#endif

#if defined(__SANITIZE_ADDRESS__)
#define RIDNET_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RIDNET_ASAN 1
#endif
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

/// The bit-identity contract: everything a caller consumes from the merged
/// result must match the in-process run exactly, doubles included.
void expect_identical(const DetectionResult& got, const DetectionResult& want) {
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.num_trees, want.num_trees);
  EXPECT_EQ(got.initiators, want.initiators);
  EXPECT_EQ(got.states, want.states);
  EXPECT_EQ(double_bits(got.total_opt), double_bits(want.total_opt));
  EXPECT_EQ(double_bits(got.total_objective), double_bits(want.total_objective));
}

/// Simulated multi-tree snapshot: ~12 cascade trees of varied size (a few
/// nodes up to ~20) on a sparse 250-node ER signed graph, so shard counts
/// up to 8 stay meaningful.
struct Scenario {
  graph::SignedGraph graph;
  std::vector<NodeState> states;
  RidConfig config;
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
    return s;
  }();
  return instance;
}

class ShardedRidTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::process_isolation_supported())
      GTEST_SKIP() << "no fork() on this platform";
    util::failpoint::disarm_all();
  }
  void TearDown() override { util::failpoint::disarm_all(); }

  /// Fresh run directory for this test.
  std::string run_dir(const std::string& name) {
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("sharded_" + name);
    fs::remove_all(dir);
    return dir.string();
  }

  /// Fast supervision defaults for tests: tiny backoffs, quick polling.
  ShardedConfig sharded(std::size_t shards, const std::string& dir) {
    ShardedConfig config;
    config.num_shards = shards;
    config.run_dir = dir;
    config.resume = false;
    config.supervisor.backoff_initial_ms = 1.0;
    config.supervisor.backoff_max_ms = 20.0;
    config.supervisor.poll_interval_ms = 2.0;
    return config;
  }
};

TEST_F(ShardedRidTest, PlanIsDeterministicCompleteAndBalanced) {
  const Scenario& s = scenario();
  const CascadeForest forest =
      extract_cascade_forest(s.graph, s.states, s.config.extraction);
  ASSERT_GE(forest.trees.size(), 4u);

  const auto plan = plan_shards(forest, 4);
  const auto again = plan_shards(forest, 4);
  ASSERT_EQ(plan.size(), again.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].shard_id, again[i].shard_id);
    EXPECT_EQ(plan[i].items, again[i].items);
  }

  // Every tree appears exactly once, each shard's items are sorted.
  std::set<std::size_t> seen;
  for (const auto& shard : plan) {
    EXPECT_TRUE(std::is_sorted(shard.items.begin(), shard.items.end()));
    for (const std::size_t item : shard.items) {
      EXPECT_LT(item, forest.trees.size());
      EXPECT_TRUE(seen.insert(item).second) << "tree assigned twice";
    }
  }
  EXPECT_EQ(seen.size(), forest.trees.size());

  // Size balance: no shard carries more than the LPT bound of the total
  // node load (max load <= mean + largest tree).
  std::vector<std::size_t> load(plan.size(), 0);
  std::size_t total = 0;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    for (const std::size_t item : plan[i].items) {
      load[i] += forest.trees[item].size();
      largest = std::max(largest, forest.trees[item].size());
    }
    total += load[i];
  }
  for (const std::size_t l : load)
    EXPECT_LE(l, total / plan.size() + largest);

  // More shards than trees: one tree per shard, no empties.
  const auto wide = plan_shards(forest, forest.trees.size() + 50);
  EXPECT_EQ(wide.size(), forest.trees.size());
}

TEST_F(ShardedRidTest, BitIdenticalToInProcessAcrossShardCounts) {
  const Scenario& s = scenario();
  const DetectionResult want = run_rid(s.graph, s.states, s.config);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const std::string dir =
        run_dir("identity_" + std::to_string(shards));
    const DetectionResult got = run_rid_sharded(
        s.graph, s.states, s.config, sharded(shards, dir));
    expect_identical(got, want);
    EXPECT_EQ(got.diagnostics.num_ok, want.diagnostics.num_ok)
        << "shards=" << shards;
    EXPECT_GT(got.diagnostics.shard_count, 0u);
    EXPECT_EQ(got.diagnostics.shard_crashes, 0u);
    EXPECT_EQ(got.diagnostics.resumed_trees, 0u);
  }
}

TEST_F(ShardedRidTest, ResumeAdoptsEveryCompletedTree) {
  const Scenario& s = scenario();
  const std::string dir = run_dir("resume");
  const DetectionResult first =
      run_rid_sharded(s.graph, s.states, s.config, sharded(2, dir));

  ShardedConfig resume = sharded(2, dir);
  resume.resume = true;
  const DetectionResult second =
      run_rid_sharded(s.graph, s.states, s.config, resume);
  expect_identical(second, first);
  EXPECT_EQ(second.diagnostics.resumed_trees, second.num_trees);
  // Nothing left to shard out; no worker ran.
  EXPECT_EQ(second.diagnostics.shard_count, 0u);

  // resume = false wipes the stale files and recomputes from scratch.
  const DetectionResult fresh =
      run_rid_sharded(s.graph, s.states, s.config, sharded(2, dir));
  expect_identical(fresh, first);
  EXPECT_EQ(fresh.diagnostics.resumed_trees, 0u);
}

TEST_F(ShardedRidTest, CrashingWorkersRecoverBitIdentical) {
  const Scenario& s = scenario();
  const DetectionResult want = run_rid(s.graph, s.states, s.config);
  // Every worker dies (SIGABRT) when it reaches its second tree; each
  // attempt checkpoints one tree, so shards drain one tree per attempt.
  util::failpoint::arm("shard.worker_tree=abort@2");
  ShardedConfig config = sharded(2, run_dir("crashes"));
  config.supervisor.max_shard_attempts = 64;
  const DetectionResult got =
      run_rid_sharded(s.graph, s.states, s.config, config);
  util::failpoint::disarm_all();

  expect_identical(got, want);
  EXPECT_TRUE(got.diagnostics.all_ok());
  EXPECT_GT(got.diagnostics.shard_crashes, 0u);
  EXPECT_GT(got.diagnostics.shard_retries, 0u);
  EXPECT_EQ(got.diagnostics.shard_poison_trees, 0u);
}

TEST_F(ShardedRidTest, KillMidRunThenResumeIsBitIdentical) {
  const Scenario& s = scenario();
  const DetectionResult want = run_rid(s.graph, s.states, s.config);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const std::string dir = run_dir("kill_" + std::to_string(shards));

    // Phase 1: workers die at their second tree and the single attempt is
    // never retried — the run ends with a partial checkpoint directory and
    // in-memory demotions for the unfinished trees.
    util::failpoint::arm("shard.worker_tree=abort@2");
    ShardedConfig crash = sharded(shards, dir);
    crash.supervisor.max_shard_attempts = 1;
    const DetectionResult partial =
        run_rid_sharded(s.graph, s.states, s.config, crash);
    util::failpoint::disarm_all();
    EXPECT_GT(partial.diagnostics.shard_crashes, 0u);
    EXPECT_FALSE(partial.diagnostics.all_ok()) << "abandonment expected";

    // Phase 2: clean resume recomputes exactly the missing trees and must
    // merge to the uninterrupted in-process answer, bit for bit.
    ShardedConfig resume = sharded(shards, dir);
    resume.resume = true;
    const DetectionResult got =
        run_rid_sharded(s.graph, s.states, s.config, resume);
    expect_identical(got, want);
    EXPECT_TRUE(got.diagnostics.all_ok()) << "shards=" << shards;
    EXPECT_GT(got.diagnostics.resumed_trees, 0u);
    EXPECT_LT(got.diagnostics.resumed_trees, got.num_trees);
  }
}

TEST_F(ShardedRidTest, PoisonPillIsDemotedAndItsVerdictPersists) {
  const Scenario& s = scenario();
  // Every worker aborts on the first tree it touches: the suspect is the
  // same tree on both attempts, so it crosses poison_threshold = 2 and is
  // demoted; with attempts capped the rest of the shard is abandoned.
  util::failpoint::arm("shard.worker_tree=abort@1");
  const std::string dir = run_dir("poison");
  ShardedConfig config = sharded(1, dir);
  config.supervisor.max_shard_attempts = 6;
  const DetectionResult got =
      run_rid_sharded(s.graph, s.states, s.config, config);
  util::failpoint::disarm_all();

  EXPECT_GT(got.diagnostics.shard_poison_trees, 0u);
  std::size_t poisoned_seen = 0;
  for (const TreeDiagnostics& tree : got.diagnostics.trees) {
    if (tree.error.find("poison pill") == std::string::npos) continue;
    ++poisoned_seen;
    EXPECT_EQ(tree.status, TreeStatus::kDegraded);
    EXPECT_TRUE(tree.fallback_root_only);
  }
  EXPECT_EQ(poisoned_seen, got.diagnostics.shard_poison_trees);

  // The demotions were persisted: a clean resume adopts the poisoned
  // verdicts instead of re-running the killer trees.
  ShardedConfig resume = sharded(1, dir);
  resume.resume = true;
  const DetectionResult after =
      run_rid_sharded(s.graph, s.states, s.config, resume);
  std::size_t adopted = 0;
  for (const TreeDiagnostics& tree : after.diagnostics.trees) {
    if (tree.error.find("poison pill") != std::string::npos) ++adopted;
  }
  EXPECT_EQ(adopted, got.diagnostics.shard_poison_trees);
  // Everything that was merely abandoned (not poisoned) is recomputed.
  EXPECT_EQ(after.diagnostics.num_failed, 0u);
  EXPECT_EQ(after.diagnostics.num_degraded, adopted);
}

TEST_F(ShardedRidTest, HangingWorkerIsKilledAndWorkRecovered) {
  const Scenario& s = scenario();
  const DetectionResult want = run_rid(s.graph, s.states, s.config);
  // The worker stalls "forever" on its second tree; the heartbeat (durable
  // record count stagnant) must SIGKILL it and requeue the remainder.
  util::failpoint::arm("shard.worker_tree=sleep(60000)@2");
  ShardedConfig config = sharded(1, run_dir("hang"));
  config.supervisor.heartbeat_timeout_seconds = 0.3;
  config.supervisor.poison_threshold = 1000;  // isolate the kill path
  config.supervisor.max_shard_attempts = 64;
  const DetectionResult got =
      run_rid_sharded(s.graph, s.states, s.config, config);
  util::failpoint::disarm_all();

  expect_identical(got, want);
  EXPECT_TRUE(got.diagnostics.all_ok());
  EXPECT_GT(got.diagnostics.shard_crashes, 0u);
  bool saw_kill_event = false;
  for (const std::string& event : got.diagnostics.shard_events)
    if (event.find("no progress") != std::string::npos) saw_kill_event = true;
  EXPECT_TRUE(saw_kill_event);
}

TEST_F(ShardedRidTest, CorruptCheckpointIsReportedAndRecomputed) {
  const Scenario& s = scenario();
  const DetectionResult want = run_rid(s.graph, s.states, s.config);
  const std::string dir = run_dir("corrupt");
  run_rid_sharded(s.graph, s.states, s.config, sharded(2, dir));

  // Flip one byte near the end of every checkpoint file: the tail records
  // fail their checksum and must be recomputed on resume, the intact
  // prefix is still adopted, and nothing crashes.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    ASSERT_GT(size, 30);
    file.seekp(size - 5);
    char byte = 0;
    file.seekg(size - 5);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(size - 5);
    file.write(&byte, 1);
  }

  ShardedConfig resume = sharded(2, dir);
  resume.resume = true;
  const DetectionResult got =
      run_rid_sharded(s.graph, s.states, s.config, resume);
  expect_identical(got, want);
  EXPECT_TRUE(got.diagnostics.all_ok());
  bool noted = false;
  for (const std::string& event : got.diagnostics.shard_events)
    if (event.find("checkpoint:") != std::string::npos) noted = true;
  EXPECT_TRUE(noted) << "corruption must be surfaced, not silently dropped";
}

TEST_F(ShardedRidTest, CancelledRunCoversEveryTreeAndFlushesNothingBroken) {
  const Scenario& s = scenario();
  ShardedConfig config = sharded(2, run_dir("cancel"));
  config.supervisor.cancel = util::CancelToken::create();
  config.supervisor.cancel.request_cancel();  // cancelled before any spawn
  const DetectionResult got =
      run_rid_sharded(s.graph, s.states, s.config, config);
  ASSERT_EQ(got.diagnostics.trees.size(), got.num_trees);
  for (const TreeDiagnostics& tree : got.diagnostics.trees)
    EXPECT_NE(tree.error.find("cancelled"), std::string::npos);
}

TEST_F(ShardedRidTest, EmptyRunDirIsRejected) {
  const Scenario& s = scenario();
  ShardedConfig config;
  config.run_dir.clear();
  EXPECT_THROW(run_rid_sharded(s.graph, s.states, s.config, config),
               util::InputError);
}

TEST_F(ShardedRidTest, InProcessFailuresKeepPerTreeErrorTexts) {
  // Regression guard for the diagnostics contract the sharded merge relies
  // on: when several trees fail in one in-process run, each keeps its own
  // error line — the summary never collapses to the first exception.
  const Scenario& s = scenario();
  util::failpoint::arm("rid.solve_tree=throw");
  const DetectionResult got = run_rid(s.graph, s.states, s.config);
  util::failpoint::disarm_all();

  ASSERT_GE(got.num_trees, 2u);
  EXPECT_EQ(got.diagnostics.num_ok, 0u);
  for (const TreeDiagnostics& tree : got.diagnostics.trees) {
    EXPECT_NE(tree.status, TreeStatus::kOk);
    EXPECT_NE(tree.error.find("rid.solve_tree"), std::string::npos)
        << "tree " << tree.tree_index << " lost its error text";
  }
  const std::string summary = got.diagnostics.summary();
  for (const TreeDiagnostics& tree : got.diagnostics.trees) {
    EXPECT_NE(summary.find("tree " + std::to_string(tree.tree_index)),
              std::string::npos);
  }
}

// --- worker resource limits & observability (SupervisorOptions rlimits) ---

#if !defined(_WIN32)
TEST_F(ShardedRidTest, WorkerRlimitsAreAppliedInTheChild) {
  // The pre-exec hook must translate the options into real kernel limits:
  // RLIMIT_AS at the byte cap, RLIMIT_CPU rounded up with a +1s hard-limit
  // SIGKILL backstop. Checked in an actual forked child, like a worker.
  util::SupervisorOptions options;
  options.mem_limit_bytes = 512ull << 20;
  options.cpu_limit_seconds = 2.5;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    util::apply_worker_rlimits(options);
    struct rlimit as {}, cpu {};
    if (::getrlimit(RLIMIT_AS, &as) != 0 ||
        ::getrlimit(RLIMIT_CPU, &cpu) != 0)
      _exit(2);
    if (as.rlim_cur != static_cast<rlim_t>(512ull << 20)) _exit(3);
    if (cpu.rlim_cur != 3 || cpu.rlim_max != 4) _exit(4);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "rlimit mismatch in worker child";
}

TEST_F(ShardedRidTest, GenerousLimitsLeaveHealthyRunsBitIdentical) {
  // Caps far above real usage must be invisible: same answer, no crashes.
  const Scenario& s = scenario();
  const DetectionResult want = run_rid(s.graph, s.states, s.config);
  ShardedConfig config = sharded(2, run_dir("limits_healthy"));
  config.supervisor.mem_limit_bytes = 4ull << 30;
  config.supervisor.cpu_limit_seconds = 60.0;
  const DetectionResult got =
      run_rid_sharded(s.graph, s.states, s.config, config);
  expect_identical(got, want);
  EXPECT_TRUE(got.diagnostics.all_ok());
  EXPECT_EQ(got.diagnostics.shard_crashes, 0u);
}

TEST_F(ShardedRidTest, StarvedMemLimitKillsWorkersAndDegrades) {
  if (std::string(RIDNET_CLI_PATH).empty())
    GTEST_SKIP() << "ridnet_cli path not wired into this build";
  // 1 MiB of address space cannot even exec the worker binary: every
  // attempt dies at launch, the crash ladder runs dry, and the trees
  // degrade instead of hanging or diverging.
  const Scenario& s = scenario();
  const std::string ridg =
      (fs::path(::testing::TempDir()) / "memlimit.ridg").string();
  graph::write_columnar_file(s.graph, s.states, ridg,
                             graph::kRidgFlagDiffusion);
  ShardedConfig config = sharded(2, run_dir("memlimit"));
  config.transport = ShardTransport::kSocket;
  config.worker_command = RIDNET_CLI_PATH;
  config.graph_path = ridg;
  config.supervisor.mem_limit_bytes = 1ull << 20;
  config.supervisor.max_shard_attempts = 2;
  const auto view = graph::ColumnarGraphView::open(ridg);
  const DetectionResult got =
      run_rid_sharded(view, view.states(), s.config, config);
  EXPECT_GT(got.diagnostics.shard_crashes, 0u);
  EXPECT_FALSE(got.diagnostics.all_ok());
  EXPECT_EQ(got.diagnostics.trees.size(), got.num_trees)
      << "every tree still needs a verdict";
}

TEST_F(ShardedRidTest, WorkerRssIsRecordedPerAttemptAndAsPeak) {
  const Scenario& s = scenario();
  run_rid_sharded(s.graph, s.states, s.config, sharded(2, run_dir("rss")));

  // Every reaped attempt lands in the shard.rss_kb histogram; the
  // shard.rss_peak_kb gauge is the max across attempts (set_max), so it can
  // never sit below the histogram's observed maximum.
  const util::metrics::MetricsSnapshot snapshot =
      util::metrics::global().snapshot();
  double peak = -1.0;
  for (const auto& gauge : snapshot.gauges)
    if (gauge.name == "shard.rss_peak_kb") peak = gauge.value;
  ASSERT_GE(peak, 0.0) << "shard.rss_peak_kb gauge missing";
  EXPECT_GT(peak, 0.0);
  bool found = false;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name != "shard.rss_kb") continue;
    found = true;
    EXPECT_GT(histogram.count, 0u);
    EXPECT_GE(peak, static_cast<double>(histogram.max))
        << "peak gauge must be the max across all attempts";
  }
  EXPECT_TRUE(found) << "shard.rss_kb histogram missing";
}

// --- drain before durable --------------------------------------------------

/// Every checkpoint append stalls 100 ms in the parent's stream phase, so
/// each worker has written (and exited after) all of its frames long before
/// the parent has made them durable. The supervisor must drain a reaped
/// worker's stream before probing durability: no clean exit may be
/// mistaken for lost work (zero retries), and every tree lands on disk
/// exactly once.
void expect_drained_before_durable(const DetectionResult& got,
                                   const DetectionResult& want,
                                   const std::string& dir) {
  expect_identical(got, want);
  EXPECT_TRUE(got.diagnostics.all_ok());
  EXPECT_EQ(got.diagnostics.shard_retries, 0u);
  EXPECT_EQ(got.diagnostics.shard_crashes, 0u);
  const CheckpointLoad load = load_checkpoint_dir(dir, 0);
  EXPECT_TRUE(load.errors.empty());
  std::vector<std::size_t> copies(got.num_trees, 0);
  for (const TreeCheckpointRecord& record : load.records) {
    ASSERT_LT(record.tree_index, got.num_trees);
    ++copies[record.tree_index];
  }
  for (std::size_t t = 0; t < copies.size(); ++t)
    EXPECT_EQ(copies[t], 1u) << "tree " << t << " recorded " << copies[t]
                             << " times";
}

TEST_F(ShardedRidTest, ForkWorkerFramesAreDrainedBeforeDurability) {
  const Scenario& s = scenario();
  const DetectionResult want = run_rid(s.graph, s.states, s.config);
  const std::string dir = run_dir("drain_fork");
  util::failpoint::arm("checkpoint.append=sleep(100)");
  const DetectionResult got =
      run_rid_sharded(s.graph, s.states, s.config, sharded(2, dir));
  util::failpoint::disarm_all();
  expect_drained_before_durable(got, want, dir);
}

TEST_F(ShardedRidTest, SocketWorkerFramesAreDrainedBeforeDurability) {
  if (std::string(RIDNET_CLI_PATH).empty())
    GTEST_SKIP() << "ridnet_cli path not wired into this build";
  const Scenario& s = scenario();
  const std::string ridg =
      (fs::path(::testing::TempDir()) / "drain.ridg").string();
  graph::write_columnar_file(s.graph, s.states, ridg,
                             graph::kRidgFlagDiffusion);
  const auto view = graph::ColumnarGraphView::open(ridg);
  const DetectionResult want = run_rid(view, view.states(), s.config);
  const std::string dir = run_dir("drain_socket");
  ShardedConfig config = sharded(2, dir);
  config.transport = ShardTransport::kSocket;
  config.worker_command = RIDNET_CLI_PATH;
  config.graph_path = ridg;
  // Armed in this process only: exec'd workers read $RID_FAILPOINTS.
  util::failpoint::arm("checkpoint.append=sleep(100)");
  const DetectionResult got =
      run_rid_sharded(view, view.states(), s.config, config);
  util::failpoint::disarm_all();
  expect_drained_before_durable(got, want, dir);
}

// --- forking from a threaded parent ---------------------------------------

TEST_F(ShardedRidTest, ForkedWorkersNeverInheritAHeldRegistryLock) {
  // Workers are forked while other threads hold process-global locks: here
  // a thread hammers the metrics and failpoint registries for the whole
  // test. A child that inherited one of those locks held would hang in its
  // metrics reset or its first failpoint hit; the attempt deadline turns
  // such a hang into a kill this test counts.
#ifdef RIDNET_ASAN
  // The sanitizer's allocator is not fork-safe: with the stream threads
  // allocating, a child can inherit one of *its* locks held and hang in
  // malloc, which is not what this test measures.
  GTEST_SKIP() << "AddressSanitizer's allocator is not fork-safe";
#endif
  const Scenario& s = scenario();
  const DetectionResult want = run_rid(s.graph, s.states, s.config);
  // Any armed failpoint makes every RID_FAILPOINT hit take the registry
  // lock, in the children too.
  util::failpoint::arm("test.never_hit=throw");
  std::uint64_t kills = 0;
  {
    // The loop allocates nothing, so the allocator's own locks stay out of
    // the picture.
    const std::jthread contender([](std::stop_token stop) {
      while (!stop.stop_requested()) {
        util::metrics::global().counter("test.fork_contention").add(1);
        util::failpoint::hit_count("test.never_hit");
      }
    });
    for (int round = 0; round < 12 && kills == 0; ++round) {
      ShardedConfig config =
          sharded(8, run_dir("fork_safety_" + std::to_string(round)));
      config.supervisor.shard_deadline_seconds = 10.0;
      config.supervisor.max_shard_attempts = 1;
      const DetectionResult got =
          run_rid_sharded(s.graph, s.states, s.config, config);
      kills += got.diagnostics.shard_crashes;
      if (kills == 0) expect_identical(got, want);
    }
  }
  util::failpoint::disarm_all();
  EXPECT_EQ(kills, 0u) << "a forked worker hung on an inherited lock";
}

// --- SIGTERM of a real sharded CLI run ------------------------------------

TEST_F(ShardedRidTest, SigtermMidCliRunExitsInterruptedAndResumesIdentical) {
  if (std::string(RIDNET_CLI_PATH).empty())
    GTEST_SKIP() << "ridnet_cli path not wired into this build";
  const Scenario& s = scenario();
  const std::string ridg =
      (fs::path(::testing::TempDir()) / "sigterm.ridg").string();
  graph::write_columnar_file(s.graph, s.states, ridg,
                             graph::kRidgFlagDiffusion);
  const std::string dir = run_dir("sigterm_cli");
  const std::string out = dir + "_detected.txt";

  const auto spawn_detect = [&](bool resume) -> pid_t {
    std::vector<std::string> args = {RIDNET_CLI_PATH,
                                     "detect",
                                     "--graph=" + ridg,
                                     "--method=rid",
                                     "--beta=0.1",
                                     "--threads=2",
                                     "--shards=2",
                                     "--run-dir=" + dir,
                                     "--out=" + out};
    if (resume) args.push_back("--resume");
    const pid_t pid = fork();
    if (pid == 0) {
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(RIDNET_CLI_PATH, argv.data());
      _exit(127);
    }
    return pid;
  };

  // Phase 1: every tree stalls 300 ms (the CLI arms $RID_FAILPOINTS and its
  // forked workers inherit it), so SIGTERM at ~600 ms lands mid-run. The
  // first signal is cooperative cancellation and must map to exit 5.
  ::setenv("RID_FAILPOINTS", "shard.worker_tree=sleep(300)", 1);
  const pid_t pid = spawn_detect(false);
  ASSERT_GT(pid, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::unsetenv("RID_FAILPOINTS");
  ASSERT_TRUE(WIFEXITED(status)) << "CLI must exit cleanly on SIGTERM";
  EXPECT_EQ(WEXITSTATUS(status), 5) << "interrupted runs exit 5";

  // Phase 2: --resume adopts whatever the interrupted run checkpointed,
  // finishes the rest, and the written detection file is identical to an
  // uninterrupted run's.
  const pid_t resumed = spawn_detect(true);
  ASSERT_GT(resumed, 0);
  ASSERT_EQ(::waitpid(resumed, &status, 0), resumed);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const DetectionResult want = run_rid(s.graph, s.states, s.config);
  std::vector<NodeState> expected(s.graph.num_nodes(),
                                  NodeState::kInactive);
  for (std::size_t i = 0; i < want.initiators.size(); ++i) {
    expected[want.initiators[i]] = graph::is_opinion(want.states[i])
                                       ? want.states[i]
                                       : NodeState::kUnknown;
  }
  EXPECT_EQ(load_snapshot_file(out, s.graph.num_nodes()), expected);
}
#endif  // !_WIN32

}  // namespace
}  // namespace rid::core
