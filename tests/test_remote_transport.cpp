// Remote-worker robustness (DESIGN.md §16): handshake v2 with typed
// rejects, HMAC challenge/response (verified against the RFC 4231 vectors),
// content-addressed graph shipping, network chaos shapes
// (partition/delay/drop/half-open), the degraded-transport fork fallback,
// and the serve client's bounded connect retry. Workers really fork+exec
// the built ridnet_cli here; raw-socket tests speak the wire grammar by
// hand so a skewed or unauthorized peer is proven to be refused *on the
// wire*, not just in-process.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rid.hpp"
#include "core/serve.hpp"
#include "core/shard_transport.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/columnar.hpp"
#include "util/errors.hpp"
#include "util/failpoint.hpp"
#include "util/hmac.hpp"
#include "util/metrics.hpp"
#include "util/net.hpp"
#include "util/proc_supervisor.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

#ifndef RIDNET_CLI_PATH
#define RIDNET_CLI_PATH ""
#endif

namespace rid::core {
namespace {

namespace fs = std::filesystem;
namespace net = util::net;
namespace wire = util::wire;
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

/// Same multi-tree snapshot as test_sharded_rid: ~12 cascade trees on a
/// sparse 250-node ER signed graph.
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

/// Scoped environment variable: set on construction, restored on scope
/// exit, so a failed test cannot leak a skew override into its neighbors.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value)
      : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    ::setenv(name_.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_.has_value())
      ::setenv(name_.c_str(), old_->c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

std::uint64_t counter_value(const char* name) {
  return util::metrics::global().counter(name).value();
}

class RemoteTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::process_isolation_supported())
      GTEST_SKIP() << "no fork() on this platform";
    util::failpoint::disarm_all();
  }
  void TearDown() override { util::failpoint::disarm_all(); }

  std::string run_dir(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("remote_" + name);
    fs::remove_all(dir);
    return dir.string();
  }

  /// The scenario snapshot as a .ridg with embedded states (written once).
  const std::string& ridg() {
    static const std::string path = [] {
      const Scenario& s = scenario();
      const std::string p =
          (fs::path(::testing::TempDir()) / "remote_transport.ridg").string();
      graph::write_columnar_file(s.graph, s.states, p,
                                 graph::kRidgFlagDiffusion);
      return p;
    }();
    return path;
  }

  /// Socket-transport sharded config with fast test supervision knobs.
  ShardedConfig socket_config(std::size_t shards, const std::string& dir) {
    ShardedConfig config;
    config.num_shards = shards;
    config.run_dir = dir;
    config.resume = false;
    config.transport = ShardTransport::kSocket;
    config.worker_command = RIDNET_CLI_PATH;
    config.graph_path = ridg();
    config.supervisor.backoff_initial_ms = 1.0;
    config.supervisor.backoff_max_ms = 20.0;
    config.supervisor.poll_interval_ms = 2.0;
    return config;
  }

  void require_cli() {
    if (std::string(RIDNET_CLI_PATH).empty())
      GTEST_SKIP() << "ridnet_cli path not wired into this build";
  }
};

// --- crypto primitives ----------------------------------------------------

std::string hex(const std::array<std::uint8_t, util::kSha256DigestSize>& d) {
  return util::digest_hex(d);
}

TEST_F(RemoteTransportTest, Sha256MatchesKnownVectors) {
  EXPECT_EQ(hex(util::sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(util::sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // One block-straddling input (> 55 bytes forces the two-block pad path).
  EXPECT_EQ(hex(util::sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_F(RemoteTransportTest, HmacSha256MatchesRfc4231Vectors) {
  // RFC 4231 test case 1.
  EXPECT_EQ(hex(util::hmac_sha256(std::string(20, '\x0b'), "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2: a key shorter than the block size.
  EXPECT_EQ(hex(util::hmac_sha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 3: 0xaa*20 key, 0xdd*50 data.
  EXPECT_EQ(hex(util::hmac_sha256(std::string(20, '\xaa'),
                                  std::string(50, '\xdd'))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST_F(RemoteTransportTest, ConstantTimeEqualComparesContentNotIdentity) {
  EXPECT_TRUE(util::constant_time_equal("same-bytes", "same-bytes"));
  EXPECT_FALSE(util::constant_time_equal("same-bytes", "same-bytez"));
  EXPECT_FALSE(util::constant_time_equal("short", "longer-input"));
  EXPECT_TRUE(util::constant_time_equal("", ""));
}

// --- assignment codec -------------------------------------------------------

TEST_F(RemoteTransportTest, AssignmentDecodeRejectsCountsBeyondThePayload) {
  WorkerAssignment assignment;
  assignment.items = {3, 1, 4};
  const std::string body = encode_assignment(assignment);
  EXPECT_EQ(decode_assignment(body).items, assignment.items);
  // The item count is the payload's last u64 before the items: claim 2^62
  // items with 24 bytes left. Damage, never a reserve() of the claim.
  std::string huge = body.substr(0, body.size() - 3 * 8 - 8);
  wire::put_u64(huge, std::uint64_t{1} << 62);
  for (const std::size_t item : assignment.items) wire::put_u64(huge, item);
  EXPECT_THROW(decode_assignment(huge), util::InputError);
}

// --- failpoint chaos shapes -----------------------------------------------

TEST_F(RemoteTransportTest, WindowActionOpensThrowsThenHealsForever) {
  util::failpoint::arm("unit.window=window(80)@2");
  EXPECT_NO_THROW(util::failpoint::hit("unit.window"));  // before trigger
  EXPECT_THROW(util::failpoint::hit("unit.window"),
               util::failpoint::FailpointError);  // window opens at hit 2
  EXPECT_THROW(util::failpoint::hit("unit.window"),
               util::failpoint::FailpointError);  // still inside the window
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_NO_THROW(util::failpoint::hit("unit.window"));  // healed
  EXPECT_NO_THROW(util::failpoint::hit("unit.window"));  // and stays healed
}

TEST_F(RemoteTransportTest, DropActionIsDeterministicAndProportional) {
  util::failpoint::arm("unit.drop=drop(30)");
  std::vector<bool> first;
  for (int i = 0; i < 400; ++i)
    first.push_back(util::failpoint::should_drop("unit.drop"));
  const std::size_t dropped =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, 400u);
  // Re-arming resets the hit counter: the same schedule replays exactly.
  util::failpoint::arm("unit.drop=drop(30)");
  for (int i = 0; i < 400; ++i)
    EXPECT_EQ(util::failpoint::should_drop("unit.drop"), first[i]) << i;
  // drop() never fires through the throwing hit() path.
  EXPECT_NO_THROW(util::failpoint::hit("unit.drop"));
  EXPECT_THROW(util::failpoint::arm("unit.bad=drop(101)"),
               std::invalid_argument);
}

// --- raw-socket handshake gates -------------------------------------------

#if !defined(_WIN32)

/// One wire frame: u8 message type + body.
std::string frame(WireMessage type, std::string_view body) {
  std::string out;
  wire::put_u8(out, static_cast<std::uint8_t>(type));
  out += body;
  return out;
}

/// A hello body that passes every capability gate of a same-build
/// dispatcher (wide protocol range, this build's fingerprint).
std::string good_hello(std::size_t shard_id) {
  std::string body;
  wire::put_u32(body, 1);    // protocol_min
  wire::put_u32(body, 999);  // protocol_max
  wire::put_u64(body, protocol_binary_fingerprint());
  wire::put_u8(body, kDeliveryShared);
  wire::put_u32(body, static_cast<std::uint32_t>(shard_id));
  wire::put_u32(body, 1);  // attempt
  wire::put_u64(body, 4242);  // pid (cosmetic)
  return body;
}

struct RejectReply {
  bool got_reject = false;
  RejectCode code{};
  std::string detail;
};

RejectReply read_reject(net::Socket& socket) {
  RejectReply reply;
  std::string payload;
  const net::FrameStatus status = socket.read_frame(payload, 5.0);
  if (status != net::FrameStatus::kOk || payload.empty()) return reply;
  EXPECT_NE(static_cast<WireMessage>(payload[0]), WireMessage::kAssign)
      << "a gated peer must never see an assignment";
  if (static_cast<WireMessage>(payload[0]) != WireMessage::kReject)
    return reply;
  wire::Reader in(std::string_view(payload).substr(1), "reject");
  reply.got_reject = true;
  reply.code = static_cast<RejectCode>(in.u8());
  reply.detail = in.str();
  return reply;
}

TEST_F(RemoteTransportTest, RawSocketSkewAndAuthGatesRejectTyped) {
  const std::string dir = run_dir("raw_gates");
  fs::create_directories(dir);
  DispatcherOptions options;
  options.auth_token = "sesame";
  SocketDispatcher dispatcher(net::Endpoint::unix_path(dir + "/d.sock"), dir,
                              WorkerAssignment{}, options);
  const std::uint64_t rejected_before = counter_value("net.handshakes_rejected");

  // Protocol version skew: the range [99, 99] excludes this build.
  {
    net::Socket socket = net::connect(dispatcher.endpoint(), 5.0);
    std::string body;
    wire::put_u32(body, 99);
    wire::put_u32(body, 99);
    wire::put_u64(body, protocol_binary_fingerprint());
    wire::put_u8(body, kDeliveryShared);
    wire::put_u32(body, 0);
    wire::put_u32(body, 1);
    wire::put_u64(body, 1);
    ASSERT_TRUE(socket.write_frame(frame(WireMessage::kHello, body)));
    const RejectReply reply = read_reject(socket);
    ASSERT_TRUE(reply.got_reject);
    EXPECT_EQ(reply.code, RejectCode::kVersionSkew) << reply.detail;
  }

  // Binary fingerprint skew: right protocol, wrong wire constants.
  {
    net::Socket socket = net::connect(dispatcher.endpoint(), 5.0);
    std::string body;
    wire::put_u32(body, 1);
    wire::put_u32(body, 999);
    wire::put_u64(body, protocol_binary_fingerprint() ^ 0xdeadbeefull);
    wire::put_u8(body, kDeliveryShared);
    wire::put_u32(body, 0);
    wire::put_u32(body, 1);
    wire::put_u64(body, 1);
    ASSERT_TRUE(socket.write_frame(frame(WireMessage::kHello, body)));
    const RejectReply reply = read_reject(socket);
    ASSERT_TRUE(reply.got_reject);
    EXPECT_EQ(reply.code, RejectCode::kBinarySkew) << reply.detail;
  }

  // Wrong shared secret: the challenge comes, the MAC does not verify.
  {
    net::Socket socket = net::connect(dispatcher.endpoint(), 5.0);
    const std::string hello = good_hello(0);
    ASSERT_TRUE(socket.write_frame(frame(WireMessage::kHello, hello)));
    std::string payload;
    ASSERT_EQ(socket.read_frame(payload, 5.0), net::FrameStatus::kOk);
    ASSERT_FALSE(payload.empty());
    ASSERT_EQ(static_cast<WireMessage>(payload[0]), WireMessage::kChallenge);
    const std::string nonce(std::string_view(payload).substr(1));
    const auto mac = util::hmac_sha256("wrong-token", nonce + hello);
    ASSERT_TRUE(socket.write_frame(frame(
        WireMessage::kAuth,
        std::string_view(reinterpret_cast<const char*>(mac.data()),
                         mac.size()))));
    const RejectReply reply = read_reject(socket);
    ASSERT_TRUE(reply.got_reject);
    EXPECT_EQ(reply.code, RejectCode::kAuthFailed) << reply.detail;
  }

  // Correct secret: the MAC verifies, so the next gate (unknown shard —
  // nothing was ever registered on this dispatcher) speaks, proving the
  // auth gate passed.
  {
    net::Socket socket = net::connect(dispatcher.endpoint(), 5.0);
    const std::string hello = good_hello(7);
    ASSERT_TRUE(socket.write_frame(frame(WireMessage::kHello, hello)));
    std::string payload;
    ASSERT_EQ(socket.read_frame(payload, 5.0), net::FrameStatus::kOk);
    ASSERT_EQ(static_cast<WireMessage>(payload[0]), WireMessage::kChallenge);
    const std::string nonce(std::string_view(payload).substr(1));
    const auto mac = util::hmac_sha256("sesame", nonce + hello);
    ASSERT_TRUE(socket.write_frame(frame(
        WireMessage::kAuth,
        std::string_view(reinterpret_cast<const char*>(mac.data()),
                         mac.size()))));
    const RejectReply reply = read_reject(socket);
    ASSERT_TRUE(reply.got_reject);
    EXPECT_EQ(reply.code, RejectCode::kUnknownShard) << reply.detail;
  }

  EXPECT_GE(counter_value("net.handshakes_rejected"), rejected_before + 4);
  EXPECT_EQ(dispatcher.handshakes_completed(), 0u);
}

// --- fork+exec'd worker exit codes ----------------------------------------

/// Spawns `RIDNET_CLI_PATH worker` against `endpoint` with extra
/// environment overrides and returns its exit code (-1 on harness failure).
int spawn_worker(const std::string& endpoint,
                 const std::vector<std::pair<std::string, std::string>>& env) {
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    for (const auto& [name, value] : env)
      ::setenv(name.c_str(), value.c_str(), 1);
    // Keep a stuck handshake from wedging the test run.
    ::setenv("RID_CONNECT_DEADLINE", "5", 1);
    ::setenv("RID_HANDSHAKE_TIMEOUT", "5", 1);
    const char* argv[] = {RIDNET_CLI_PATH, "worker",
                          "--connect",    endpoint.c_str(),
                          "--shard",      "0",
                          "--attempt",    "1",
                          nullptr};
    ::execv(RIDNET_CLI_PATH, const_cast<char* const*>(argv));
    _exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

TEST_F(RemoteTransportTest, SkewedWorkersExitWithHandshakeRejectedCode) {
  require_cli();
  const std::string dir = run_dir("exec_skew");
  fs::create_directories(dir);
  SocketDispatcher dispatcher(net::Endpoint::unix_path(dir + "/d.sock"), dir,
                              WorkerAssignment{}, DispatcherOptions{});
  const std::string endpoint = dispatcher.endpoint().to_string();

  // A worker "built from a different commit": forced fingerprint mismatch.
  EXPECT_EQ(spawn_worker(endpoint,
                         {{"RID_WORKER_BINARY_FINGERPRINT", "0x1badc0de"}}),
            kExitHandshakeRejected);
  // A worker speaking a future protocol only.
  EXPECT_EQ(spawn_worker(endpoint, {{"RID_WORKER_PROTOCOL", "99:99"}}),
            kExitHandshakeRejected);
  EXPECT_EQ(dispatcher.handshakes_completed(), 0u);
  bool saw_reject_event = false;
  for (const std::string& event : dispatcher.take_events())
    if (event.find("rejected worker") != std::string::npos)
      saw_reject_event = true;
  EXPECT_TRUE(saw_reject_event);
}

TEST_F(RemoteTransportTest, WrongTokenWorkerExitsRejectedDispatcherSurvives) {
  require_cli();
  const std::string dir = run_dir("exec_auth");
  fs::create_directories(dir);
  DispatcherOptions options;
  options.auth_token = "right-token";
  SocketDispatcher dispatcher(net::Endpoint::unix_path(dir + "/d.sock"), dir,
                              WorkerAssignment{}, options);
  const std::string endpoint = dispatcher.endpoint().to_string();

  EXPECT_EQ(spawn_worker(endpoint, {{"RID_AUTH_TOKEN", "wrong-token"}}),
            kExitHandshakeRejected);
  // A worker with no token at all also fails closed when challenged.
  EXPECT_EQ(spawn_worker(endpoint, {}), kExitHandshakeRejected);
  EXPECT_EQ(dispatcher.handshakes_completed(), 0u);

  // The dispatcher is still alive and still gating: a raw probe with the
  // right hello gets a challenge, not silence.
  net::Socket socket = net::connect(dispatcher.endpoint(), 5.0);
  ASSERT_TRUE(socket.write_frame(frame(WireMessage::kHello, good_hello(0))));
  std::string payload;
  ASSERT_EQ(socket.read_frame(payload, 5.0), net::FrameStatus::kOk);
  EXPECT_EQ(static_cast<WireMessage>(payload[0]), WireMessage::kChallenge);
}

// --- end-to-end: auth + streamed graph delivery ---------------------------

TEST_F(RemoteTransportTest, AuthStreamedDeliveryBitIdenticalAndCached) {
  require_cli();
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(ridg());
  const DetectionResult want = run_rid(view, view.states(), s.config);

  const std::string cache =
      (fs::path(::testing::TempDir()) / "remote_graph_cache").string();
  fs::remove_all(cache);

  // Workers advertise streamed delivery only, so the dispatcher must ship.
  ScopedEnv delivery("RID_GRAPH_DELIVERY", "stream");
  ShardedConfig config = socket_config(2, run_dir("stream1"));
  config.auth_token = "open-sesame";
  config.graph_cache_dir = cache;
  const std::uint64_t ships_before = counter_value("net.graph_ship_requests");
  const std::uint64_t hits_before = counter_value("net.graph_cache_hits");
  const DetectionResult got =
      run_rid_sharded(view, view.states(), s.config, config);
  expect_identical(got, want);
  EXPECT_TRUE(got.diagnostics.all_ok());

  // The graph landed in the content-addressed cache under its fingerprint.
  bool cache_entry = false;
  for (const fs::directory_entry& entry : fs::directory_iterator(cache))
    if (entry.path().extension() == ".ridg") cache_entry = true;
  EXPECT_TRUE(cache_entry) << "no cached .ridg after streamed delivery";

  // Second run: same fingerprint, so workers reuse the cache (no re-ship
  // needed for every worker — at least one cache hit must land).
  ShardedConfig again = socket_config(2, run_dir("stream2"));
  again.auth_token = "open-sesame";
  again.graph_cache_dir = cache;
  const DetectionResult got2 =
      run_rid_sharded(view, view.states(), s.config, again);
  expect_identical(got2, want);
  EXPECT_GT(counter_value("net.graph_ship_requests"), ships_before);
  EXPECT_GT(counter_value("net.graph_cache_hits"), hits_before);
}

TEST_F(RemoteTransportTest, CorruptedCacheEntryIsReVerifiedAndReShipped) {
  require_cli();
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(ridg());
  const DetectionResult want = run_rid(view, view.states(), s.config);

  const std::string cache =
      (fs::path(::testing::TempDir()) / "remote_bad_cache").string();
  fs::remove_all(cache);
  ScopedEnv delivery("RID_GRAPH_DELIVERY", "stream");

  ShardedConfig config = socket_config(1, run_dir("cache_seed"));
  config.graph_cache_dir = cache;
  expect_identical(run_rid_sharded(view, view.states(), s.config, config),
                   want);

  // Flip one payload byte in the cached entry: the fingerprint check must
  // treat it as a miss and re-ship instead of computing on damaged data.
  std::string cached;
  for (const fs::directory_entry& entry : fs::directory_iterator(cache))
    if (entry.path().extension() == ".ridg") cached = entry.path().string();
  ASSERT_FALSE(cached.empty());
  {
    std::fstream f(cached, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    char byte = 0;
    f.seekg(100);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(100);
    f.write(&byte, 1);
  }

  const std::uint64_t ships_before = counter_value("net.graph_ship_requests");
  ShardedConfig again = socket_config(1, run_dir("cache_repair"));
  again.graph_cache_dir = cache;
  expect_identical(run_rid_sharded(view, view.states(), s.config, again),
                   want);
  EXPECT_GT(counter_value("net.graph_ship_requests"), ships_before)
      << "damaged cache entry was trusted instead of re-shipped";
}

// --- chaos soak -----------------------------------------------------------

TEST_F(RemoteTransportTest, ChaosSoakStaysBitIdenticalAcrossWorkerCounts) {
  require_cli();
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(ridg());
  const DetectionResult want = run_rid(view, view.states(), s.config);

  // Deterministic fault schedules, armed both in this process (dispatcher
  // side) and — via RID_FAILPOINTS — inside every exec'd worker. Short
  // per-phase deadlines keep injected stalls from dominating wall clock.
  ScopedEnv handshake("RID_HANDSHAKE_TIMEOUT", "2");
  ScopedEnv connect_deadline("RID_CONNECT_DEADLINE", "5");
  const std::vector<std::string> schedules = {
      "net.delay=sleep(2)",
      "net.drop_rate=drop(15)",
      "net.partition=window(120)@6",
      "net.half_open=sleep(300)@1;net.drop_rate=drop(10)",
  };
  for (const std::size_t workers : {std::size_t(1), std::size_t(2),
                                    std::size_t(4)}) {
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      const std::string& schedule = schedules[i];
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " schedule=" + schedule);
      util::failpoint::arm(schedule);
      ScopedEnv worker_faults("RID_FAILPOINTS", schedule);
      ShardedConfig config = socket_config(
          workers,
          run_dir("chaos_" + std::to_string(workers) + "_" +
                  std::to_string(i)));
      config.supervisor.max_shard_attempts = 10;
      // Injected transport noise kills attempts, not trees: with the
      // default threshold a tree whose worker dies twice to a partition
      // would be demoted as a poison pill. The soak asserts full
      // recovery, so poison detection is out of scope here.
      config.supervisor.poison_threshold = 100;
      const DetectionResult got =
          run_rid_sharded(view, view.states(), s.config, config);
      util::failpoint::disarm_all();
      expect_identical(got, want);
      EXPECT_TRUE(got.diagnostics.all_ok())
          << "chaos must cost retries, never answers";
    }
  }
}

// --- degraded-transport fork fallback -------------------------------------

TEST_F(RemoteTransportTest, UnreachableTransportFallsBackToForkBitIdentical) {
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(ridg());
  const DetectionResult want = run_rid(view, view.states(), s.config);

  // Workers that can never handshake: /bin/false exits before connecting.
  ShardedConfig config = socket_config(2, run_dir("fallback"));
  config.worker_command = "/bin/false";
  config.supervisor.max_shard_attempts = 2;
  config.remote_grace_seconds = 0.5;
  const std::uint64_t fallbacks_before =
      counter_value("net.transport_fallbacks");
  const DetectionResult got =
      run_rid_sharded(view, view.states(), s.config, config);
  expect_identical(got, want);
  EXPECT_TRUE(got.diagnostics.all_ok())
      << "fallback must recompute, not demote";
  EXPECT_EQ(counter_value("net.transport_fallbacks"), fallbacks_before + 1);
  bool degraded_event = false;
  for (const std::string& event : got.diagnostics.shard_events)
    if (event.find("degraded transport") != std::string::npos)
      degraded_event = true;
  EXPECT_TRUE(degraded_event) << "fallback must be surfaced in diagnostics";
}

TEST_F(RemoteTransportTest, WithoutGraceUnreachableTransportDegrades) {
  const Scenario& s = scenario();
  const auto view = graph::ColumnarGraphView::open(ridg());
  // remote_grace_seconds = 0 keeps the historical contract: no fallback,
  // the attempts ladder runs dry, trees degrade to root-only verdicts.
  ShardedConfig config = socket_config(2, run_dir("no_grace"));
  config.worker_command = "/bin/false";
  config.supervisor.max_shard_attempts = 2;
  const DetectionResult got =
      run_rid_sharded(view, view.states(), s.config, config);
  EXPECT_FALSE(got.diagnostics.all_ok());
  EXPECT_EQ(got.diagnostics.trees.size(), got.num_trees);
}

// --- serve client connect retry -------------------------------------------

TEST_F(RemoteTransportTest, ClientRetriesConnectThenFailsPermanently) {
  const std::string missing =
      (fs::path(::testing::TempDir()) / "nobody-listens.sock").string();
  fs::remove(missing);
  const std::uint64_t retries_before =
      counter_value("net.client_connect_retries");
  EXPECT_THROW(query_stats("unix:" + missing, false, false),
               util::InputError);
  // 5 attempts = 4 retries before the permanent-failure throw.
  EXPECT_EQ(counter_value("net.client_connect_retries"), retries_before + 4);
}

TEST_F(RemoteTransportTest, ClientRidesOutTransientConnectFailures) {
  // A stats server that starts listening only after the client's first
  // connect attempts have already failed: the bounded retry ladder
  // (50 ms, 100 ms, ...) must ride out the gap and land the request.
  const std::string path =
      (fs::path(::testing::TempDir()) / "late-stats.sock").string();
  fs::remove(path);
  std::thread server([&path] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    net::Listener listener =
        net::Listener::listen(net::Endpoint::unix_path(path));
    for (int i = 0; i < 100; ++i) {
      net::Socket client = listener.accept(0.1);
      if (!client.valid()) continue;
      std::string request;
      if (client.read_frame(request, 2.0) != net::FrameStatus::kOk) return;
      std::string reply;
      wire::put_u8(reply, 9);  // kStatsReply
      wire::put_bytes(reply, std::string("{\"ok\": true}"));
      wire::put_bytes(reply, std::string());
      client.write_frame(reply);
      return;
    }
  });
  const std::uint64_t retries_before =
      counter_value("net.client_connect_retries");
  DaemonStats stats;
  try {
    stats = query_stats("unix:" + path, false, false);
  } catch (...) {
    server.join();
    throw;
  }
  server.join();
  EXPECT_EQ(stats.stats_json, "{\"ok\": true}");
  EXPECT_GT(counter_value("net.client_connect_retries"), retries_before);
}

#endif  // !_WIN32

}  // namespace
}  // namespace rid::core
