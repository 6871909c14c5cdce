// Cross-process telemetry (DESIGN.md §14): the flight recorder ring, the
// Prometheus metrics exposition, cross-process metrics merging, the worker
// telemetry codec (kTelemetry frames), and the merged multi-process Chrome
// trace — including the end-to-end contracts, under both the fork and the
// exec (socket) launcher:
//  * a sharded run with a crashed worker still produces one merged trace
//    with spans from at least two pids;
//  * a torn kTelemetry frame is counted ("telemetry.damaged"), never fatal,
//    and detection results stay bit-identical with telemetry damaged.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rid.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/columnar.hpp"
#include "util/failpoint.hpp"
#include "util/flight_recorder.hpp"
#include "util/metrics.hpp"
#include "util/net.hpp"
#include "util/proc_supervisor.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"
#include "util/wire.hpp"

#ifndef RIDNET_CLI_PATH
#define RIDNET_CLI_PATH ""
#endif

namespace rid::util {
namespace {

namespace fs = std::filesystem;

// --- flight recorder ------------------------------------------------------

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { flight::reset(); }
  void TearDown() override { flight::reset(); }
};

TEST_F(FlightRecorderTest, RecordsInOrderWithMonotonicSeq) {
  flight::record("test", "first");
  flight::record("test", "second");
  flight::record("other", "third");
  const std::vector<flight::Event> events = flight::snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_STREQ(events[0].message, "first");
  EXPECT_STREQ(events[2].category, "other");
  EXPECT_LE(events[0].t_ns, events[2].t_ns);
  EXPECT_EQ(flight::total_recorded(), 3u);
  EXPECT_EQ(flight::dropped(), 0u);
}

TEST_F(FlightRecorderTest, WrapKeepsNewestOldestFirstAndCountsDropped) {
  const std::size_t total = flight::kRingCapacity + 40;
  for (std::size_t i = 1; i <= total; ++i)
    flight::record("wrap", "event " + std::to_string(i));
  const std::vector<flight::Event> events = flight::snapshot();
  ASSERT_EQ(events.size(), flight::kRingCapacity);
  // The survivors are exactly the newest kRingCapacity, oldest-first.
  EXPECT_EQ(events.front().seq, total - flight::kRingCapacity + 1);
  EXPECT_EQ(events.back().seq, total);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  EXPECT_EQ(flight::total_recorded(), total);
  EXPECT_EQ(flight::dropped(), 40u);
}

TEST_F(FlightRecorderTest, TruncatesOverlongFieldsInsteadOfOverflowing) {
  flight::record(std::string(200, 'c'), std::string(500, 'm'));
  const std::vector<flight::Event> events = flight::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].category),
            std::string(flight::kMaxCategoryLength, 'c'));
  EXPECT_EQ(std::string(events[0].message),
            std::string(flight::kMaxMessageLength, 'm'));
}

TEST_F(FlightRecorderTest, JsonlEscapesControlAndQuoteCharacters) {
  flight::record("esc", "say \"hi\"\n\tback\\slash");
  const std::string jsonl = flight::to_jsonl();
  EXPECT_NE(jsonl.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\n"), std::string::npos);
  EXPECT_NE(jsonl.find("\\t"), std::string::npos);
  EXPECT_NE(jsonl.find("\\\\slash"), std::string::npos);
  // One line per event, newline-terminated.
  EXPECT_EQ(jsonl.back(), '\n');
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);
}

TEST_F(FlightRecorderTest, DumpFileWritesEveryEventAsOneJsonLine) {
  for (int i = 0; i < 5; ++i)
    flight::record("dump", "line " + std::to_string(i));
  const std::string path =
      (fs::path(::testing::TempDir()) / "flight_dump.jsonl").string();
  ASSERT_TRUE(flight::dump_jsonl_file(path));
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"seq\": "), std::string::npos);
    EXPECT_NE(line.find("\"category\": \"dump\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 5u);
}

TEST_F(FlightRecorderTest, ConcurrentRecordsAndSnapshotsNeverTear) {
  constexpr int kWriters = 4;
  constexpr int kRecords = 5000;
  // Counts events that are out of seq order or malformed. A writer records
  // "w<id> i<n>" with n rising, so within one writer n must rise with seq:
  // a seq paired with another record's message shows up here.
  const auto damaged = [](const std::vector<flight::Event>& events) {
    std::size_t bad = 0;
    std::array<int, kWriters> last;
    last.fill(-1);
    std::uint64_t prev = 0;
    for (const flight::Event& e : events) {
      int w = -1;
      int n = -1;
      char tail = 0;
      const bool parsed =
          std::sscanf(e.message, "w%d i%d%c", &w, &n, &tail) == 2 && w >= 0 &&
          w < kWriters;
      if (e.seq <= prev || std::string(e.category) != "race" || !parsed ||
          n <= last[w]) {
        ++bad;
      } else {
        last[w] = n;
      }
      prev = e.seq;
    }
    return bad;
  };

  std::atomic<bool> done{false};
  std::size_t snapshots = 0;
  std::size_t bad_in_flight = 0;
  std::thread reader([&] {
    do {
      bad_in_flight += damaged(flight::snapshot());
      ++snapshots;
    } while (!done.load());
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([w] {
      for (int n = 0; n < kRecords; ++n)
        flight::record("race",
                       "w" + std::to_string(w) + " i" + std::to_string(n));
    });
  for (std::thread& writer : writers) writer.join();
  done = true;
  reader.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(bad_in_flight, 0u);

  // Each slot keeps the newest of the seqs that mapped to it.
  const std::vector<flight::Event> events = flight::snapshot();
  EXPECT_EQ(damaged(events), 0u);
  const std::uint64_t total = std::uint64_t{kWriters} * kRecords;
  ASSERT_EQ(events.size(), flight::kRingCapacity);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq, total - flight::kRingCapacity + 1 + i);
}

// --- Prometheus exposition ------------------------------------------------

TEST(PrometheusExport, CountersGaugesAndNameMangling) {
  metrics::MetricsSnapshot snap;
  snap.counters.push_back({"rid.trees_ok", 14});
  snap.gauges.push_back({"serve.queue_depth", 3.0});
  const std::string text = snap.to_prometheus();
  EXPECT_NE(text.find("# TYPE rid_trees_ok counter\n"), std::string::npos);
  EXPECT_NE(text.find("rid_trees_ok 14\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("serve_queue_depth 3\n"), std::string::npos);
}

TEST(PrometheusExport, HistogramBucketsAreCumulativeAndEndAtInf) {
  // Through a real registry so the bucket layout is the production one.
  metrics::Registry registry;
  metrics::Histogram& h = registry.histogram("pool.task_ns");
  h.observe(0);   // bucket 0 (le 0)
  h.observe(1);   // bucket 1 (le 1)
  h.observe(3);   // bucket 2 (le 3)
  h.observe(3);
  const std::string text = registry.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE pool_task_ns histogram"), std::string::npos);
  // Cumulative: le="0" sees 1, le="1" sees 2, le="3" sees 4, +Inf == count.
  EXPECT_NE(text.find("pool_task_ns_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("pool_task_ns_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("pool_task_ns_bucket{le=\"3\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("pool_task_ns_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("pool_task_ns_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("pool_task_ns_count 4\n"), std::string::npos);
}

// --- cross-process metrics merge ------------------------------------------

TEST(MetricsMerge, CountersAddGaugesMaxHistogramsFoldExactly) {
  metrics::Registry worker;
  worker.counter("rid.trees_ok").add(5);
  worker.gauge("shard.rss_peak_kb").set(1000.0);
  worker.histogram("pool.task_ns").observe(3);
  worker.histogram("pool.task_ns").observe(100);

  metrics::Registry parent;
  parent.counter("rid.trees_ok").add(2);
  parent.gauge("shard.rss_peak_kb").set(4000.0);
  parent.histogram("pool.task_ns").observe(3);

  parent.merge(worker.snapshot());
  const metrics::MetricsSnapshot merged = parent.snapshot();
  ASSERT_EQ(merged.counters.size(), 1u);
  EXPECT_EQ(merged.counters[0].value, 7u);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].value, 4000.0);  // max, not sum or last
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 3u);
  EXPECT_EQ(merged.histograms[0].sum, 106u);
  EXPECT_EQ(merged.histograms[0].min, 3u);
  EXPECT_EQ(merged.histograms[0].max, 100u);
  // Bucket-exact fold: the merged distribution equals observing every
  // sample in one registry.
  metrics::Registry oracle;
  for (const std::uint64_t v : {3u, 100u, 3u})
    oracle.histogram("pool.task_ns").observe(v);
  EXPECT_EQ(merged.histograms[0].buckets,
            oracle.snapshot().histograms[0].buckets);
}

// --- telemetry codec ------------------------------------------------------

telemetry::WorkerTelemetry sample_telemetry() {
  telemetry::WorkerTelemetry t;
  t.trace_id = 42;
  t.spans.pid = 777;
  t.spans.name = "worker shard 0 attempt 1";
  t.spans.spans_dropped = 2;
  trace::RemoteSpan span;
  span.name = "solve_tree";
  span.start_ns = 1000;
  span.end_ns = 5000;
  span.tid = 1;
  span.tags.push_back({"tree_index", false, "", 7});
  span.tags.push_back({"status", true, "ok", 0});
  t.spans.spans.push_back(span);
  t.metrics.counters.push_back({"rid.trees_ok", 9});
  t.metrics.gauges.push_back({"shard.rss_peak_kb", 512.0});
  metrics::HistogramSample h;
  h.name = "pool.task_ns";
  h.count = 2;
  h.sum = 4;
  h.min = 1;
  h.max = 3;
  h.buckets = {{1, 1}, {3, 1}};
  t.metrics.histograms.push_back(h);
  return t;
}

TEST(TelemetryCodec, RoundTripsSpansAndMetrics) {
  const telemetry::WorkerTelemetry want = sample_telemetry();
  const telemetry::WorkerTelemetry got = telemetry::decode(telemetry::encode(want));
  EXPECT_EQ(got.trace_id, want.trace_id);
  EXPECT_EQ(got.spans.pid, want.spans.pid);
  EXPECT_EQ(got.spans.name, want.spans.name);
  EXPECT_EQ(got.spans.spans_dropped, want.spans.spans_dropped);
  ASSERT_EQ(got.spans.spans.size(), 1u);
  EXPECT_EQ(got.spans.spans[0].name, "solve_tree");
  EXPECT_EQ(got.spans.spans[0].start_ns, 1000u);
  EXPECT_EQ(got.spans.spans[0].end_ns, 5000u);
  ASSERT_EQ(got.spans.spans[0].tags.size(), 2u);
  EXPECT_EQ(got.spans.spans[0].tags[0].key, "tree_index");
  EXPECT_FALSE(got.spans.spans[0].tags[0].is_string);
  EXPECT_EQ(got.spans.spans[0].tags[0].ival, 7);
  EXPECT_TRUE(got.spans.spans[0].tags[1].is_string);
  EXPECT_EQ(got.spans.spans[0].tags[1].sval, "ok");
  ASSERT_EQ(got.metrics.counters.size(), 1u);
  EXPECT_EQ(got.metrics.counters[0].value, 9u);
  ASSERT_EQ(got.metrics.histograms.size(), 1u);
  EXPECT_EQ(got.metrics.histograms[0].buckets,
            want.metrics.histograms[0].buckets);
}

TEST(TelemetryCodec, RejectsTruncationTrailingBytesAndVersionSkew) {
  const std::string payload = telemetry::encode(sample_telemetry());
  EXPECT_THROW(telemetry::decode(payload.substr(0, payload.size() / 2)),
               util::InputError);
  EXPECT_THROW(telemetry::decode(payload + "x"), util::InputError);
  std::string skewed = payload;
  skewed[0] = char(0x7f);  // version field
  EXPECT_THROW(telemetry::decode(skewed), util::InputError);
}

TEST(TelemetryCodec, RejectsCountsBeyondThePayload) {
  // A count decoded from the bytes must be checked against the bytes left
  // before anything is sized by it: 0xFFFFFFFF spans in a 40-byte payload
  // is damage (InputError), never a multi-gigabyte reserve().
  std::string payload;
  wire::put_u32(payload, telemetry::kTelemetryVersion);
  wire::put_u64(payload, 1);  // trace id
  wire::put_u64(payload, 2);  // pid
  wire::put_bytes(payload, "w");
  wire::put_u64(payload, 0);  // spans dropped
  wire::put_u32(payload, 0xFFFFFFFFu);
  EXPECT_THROW(telemetry::decode(payload), util::InputError);
}

TEST(TelemetryCodec, DamagedPayloadsDecodeOrThrowInputError) {
  const std::string payload = telemetry::encode(sample_telemetry());
  for (std::size_t cut = 0; cut < payload.size(); ++cut)
    EXPECT_THROW(telemetry::decode(std::string_view(payload).substr(0, cut)),
                 util::InputError)
        << "prefix of " << cut << " bytes";
  // Seeded bit flips: any outcome but a decode or an InputError (a crash,
  // another exception type, an unbounded allocation) fails the test.
  Rng rng(20261019);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string damaged = payload;
    const std::int64_t flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.next_below(damaged.size() * 8);
      damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
    }
    try {
      telemetry::decode(damaged);
      ++decoded;
    } catch (const util::InputError&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- merged multi-process trace -------------------------------------------

TEST(MergedTrace, RemoteProcessesGetTheirOwnPidLanes) {
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  trace::start();
  {
    trace::TraceSpan span("local_work");
  }
  trace::stop();

  trace::ProcessSpans remote;
  remote.pid = 424242;
  remote.name = "worker shard 0 attempt 1";
  trace::RemoteSpan span;
  span.name = "solve_tree";
  span.start_ns = trace::snapshot().start_ns + 100;
  span.end_ns = span.start_ns + 50;
  span.tags.push_back({"tree_index", false, "", 3});
  remote.spans.push_back(span);
  trace::add_remote_process(remote);

  const std::string json = trace::chrome_trace_json();
  EXPECT_NE(json.find("\"pid\": 424242"), std::string::npos);
  EXPECT_NE(json.find("\"worker shard 0 attempt 1\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"local_work\""), std::string::npos);
  EXPECT_NE(json.find("\"solve_tree\""), std::string::npos);
  // The local process no longer hides behind the legacy pid 1.
  EXPECT_EQ(json.find("\"pid\": 1,"), std::string::npos);

  trace::clear_remote_processes();
}

TEST(MergedTrace, NoRemoteProcessesKeepsLegacySingleProcessFormat) {
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  trace::clear_remote_processes();
  trace::start();
  {
    trace::TraceSpan span("solo");
  }
  trace::stop();
  const std::string json = trace::chrome_trace_json();
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_EQ(json.find("\"process_name\""), std::string::npos);
}

TEST(MergedTrace, RemoteDropAccountingSumsIntoSnapshot) {
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  trace::start();
  trace::stop();
  trace::ProcessSpans remote;
  remote.pid = 99;
  remote.name = "worker";
  remote.spans_dropped = 11;
  trace::RemoteSpan span;
  span.name = "s";
  remote.spans.push_back(span);
  trace::add_remote_process(remote);
  EXPECT_EQ(trace::remote_spans_dropped(), 11u);
  EXPECT_NE(trace::chrome_trace_json().find("\"droppedSpans\": 11"),
            std::string::npos);
  // start() clears staged remotes: the next run begins clean.
  trace::start();
  trace::stop();
  EXPECT_EQ(trace::remote_spans_dropped(), 0u);
  EXPECT_TRUE(trace::remote_processes().empty());
}

// --- end-to-end: socket workers under crashes and frame damage ------------

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

struct Scenario {
  core::RidConfig config;
  std::string ridg_path;
};

const Scenario& scenario() {
  static const Scenario instance = [] {
    Scenario s;
    util::Rng rng(11);
    const auto el = gen::erdos_renyi(200, 420, rng);
    graph::SignedGraph g =
        gen::assign_signs_uniform(el, {.positive_probability = 0.8}, rng);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
      g.set_edge_weight(e, rng.uniform(0.02, 0.25));
    diffusion::SeedSet seeds;
    for (graph::NodeId v = 0; v < 12; ++v) {
      seeds.nodes.push_back(v * 16);
      seeds.states.push_back(v % 2 ? graph::NodeState::kNegative
                                   : graph::NodeState::kPositive);
    }
    const diffusion::Cascade cascade =
        diffusion::simulate_mfc(g, seeds, diffusion::MfcConfig{}, rng);
    s.config.beta = 0.1;
    // One file per test process: ctest runs these tests in parallel
    // processes, and two writers of one path share its temp file.
    s.ridg_path =
        (fs::path(::testing::TempDir()) /
         ("telemetry_scenario_p" + std::to_string(own_pid()) + ".ridg"))
            .string();
    graph::write_columnar_file(g, cascade.state, s.ridg_path,
                               graph::kRidgFlagDiffusion);
    return s;
  }();
  return instance;
}

void expect_identical(const core::DetectionResult& got,
                      const core::DetectionResult& want) {
  EXPECT_EQ(got.initiators, want.initiators);
  EXPECT_EQ(got.states, want.states);
  EXPECT_EQ(double_bits(got.total_opt), double_bits(want.total_opt));
  EXPECT_EQ(double_bits(got.total_objective),
            double_bits(want.total_objective));
}

class TelemetryE2ETest : public ::testing::Test {
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

  core::ShardedConfig sharded(const std::string& name,
                              core::ShardTransport transport) {
    core::ShardedConfig config;
    config.num_shards = 2;
    // One directory per transport: ctest runs the fork and socket cases
    // concurrently.
    const char* leg =
        transport == core::ShardTransport::kFork ? "_fork" : "";
    config.run_dir = (fs::path(::testing::TempDir()) /
                      ("telemetry_" + name + leg))
                         .string();
    fs::remove_all(config.run_dir);
    config.resume = false;
    config.transport = transport;
    config.worker_command = RIDNET_CLI_PATH;
    config.supervisor.backoff_initial_ms = 1.0;
    config.supervisor.backoff_max_ms = 20.0;
    return config;
  }

  /// A crashed worker's shard still yields one merged multi-pid trace.
  void crashed_worker_yields_merged_trace(core::ShardTransport transport) {
    const Scenario& s = scenario();
    const auto view = graph::ColumnarGraphView::open(s.ridg_path);
    const core::DetectionResult want =
        core::run_rid(view, view.states(), s.config);

    // The first worker attempt dies at its 5th tree (SIGABRT — same wait
    // status shape as a SIGKILL for the supervisor); the requeued attempt
    // finishes and its telemetry still reaches the parent. Forked workers
    // inherit the parent's arming; exec'd ones read $RID_FAILPOINTS.
    const char* crash = "shard.worker_tree=abort@5";
    if (transport == core::ShardTransport::kFork)
      util::failpoint::arm(crash);
    else
      ::setenv("RID_FAILPOINTS", crash, 1);
    trace::start();
    const core::DetectionResult got = core::run_rid_sharded(
        view, view.states(), s.config, sharded("crash", transport));
    trace::stop();
    util::failpoint::disarm_all();
    ::unsetenv("RID_FAILPOINTS");

    expect_identical(got, want);
    EXPECT_TRUE(got.diagnostics.all_ok());
    EXPECT_GE(got.diagnostics.shard_crashes, 1u);

    const std::vector<trace::ProcessSpans> remote = trace::remote_processes();
    ASSERT_GE(remote.size(), 1u) << "no worker telemetry reached the parent";
    std::set<std::uint64_t> pids;
    std::size_t remote_solves = 0;
    for (const trace::ProcessSpans& p : remote) {
      EXPECT_NE(p.pid, 0u);
      pids.insert(p.pid);
      for (const trace::RemoteSpan& span : p.spans)
        if (span.name == "solve_tree") ++remote_solves;
    }
    EXPECT_GT(remote_solves, 0u);

    const std::string json = trace::chrome_trace_json();
    std::set<std::uint64_t> json_pids = pids;
    json_pids.insert(static_cast<std::uint64_t>(::getpid()));
    EXPECT_GE(json_pids.size(), 2u);
    for (const std::uint64_t pid : json_pids)
      EXPECT_NE(json.find("\"pid\": " + std::to_string(pid)),
                std::string::npos)
          << "pid " << pid << " missing from merged trace";
    trace::clear_remote_processes();
  }

  /// Every kTelemetry frame the dispatcher receives is "damaged" (decode
  /// throws inside the stream phase). The stream continues, results match.
  void torn_telemetry_is_counted_not_fatal(core::ShardTransport transport) {
    const Scenario& s = scenario();
    const auto view = graph::ColumnarGraphView::open(s.ridg_path);
    const core::DetectionResult want =
        core::run_rid(view, view.states(), s.config);

    metrics::Counter& damaged =
        metrics::global().counter("telemetry.damaged");
    const std::uint64_t before = damaged.value();
    util::failpoint::arm("net.telemetry_frame=throw");
    const core::DetectionResult got = core::run_rid_sharded(
        view, view.states(), s.config, sharded("torn", transport));
    util::failpoint::disarm_all();

    expect_identical(got, want);
    EXPECT_TRUE(got.diagnostics.all_ok());
    EXPECT_GE(damaged.value(), before + 2) << "2 shards -> 2 damaged frames";
  }
};

TEST_F(TelemetryE2ETest, CrashedWorkerStillYieldsMergedMultiPidTrace) {
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  crashed_worker_yields_merged_trace(core::ShardTransport::kSocket);
}

TEST_F(TelemetryE2ETest, ForkCrashedWorkerStillYieldsMergedMultiPidTrace) {
  if (!trace::compiled()) GTEST_SKIP() << "built with RID_TRACING=OFF";
  crashed_worker_yields_merged_trace(core::ShardTransport::kFork);
}

TEST_F(TelemetryE2ETest, TornTelemetryFrameIsCountedNotFatal) {
  torn_telemetry_is_counted_not_fatal(core::ShardTransport::kSocket);
}

TEST_F(TelemetryE2ETest, ForkTornTelemetryFrameIsCountedNotFatal) {
  torn_telemetry_is_counted_not_fatal(core::ShardTransport::kFork);
}

}  // namespace
}  // namespace rid::util
