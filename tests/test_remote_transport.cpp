// Remote-worker robustness (DESIGN.md §16): handshake v2 with typed
// rejects, HMAC challenge/response (verified against the RFC 4231 vectors),
// the assignment codec that ships each worker its trees (and its decoder
// under damage), network chaos shapes (partition/delay/drop/half-open), the
// degraded-transport fork fallback, dispatcher teardown, and the serve
// client's bounded connect retry. Workers really fork+exec
// the built ridnet_cli here; raw-socket tests speak the wire grammar by
// hand so a skewed or unauthorized peer is proven to be refused *on the
// wire*, not just in-process.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
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
      // One file per test process: ctest runs these tests in parallel
      // processes, and two writers of one path share its temp file.
      const std::string p =
          (fs::path(::testing::TempDir()) /
           ("remote_transport_p" + std::to_string(util::own_pid()) + ".ridg"))
              .string();
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
    config.supervisor.backoff_initial_ms = 1.0;
    config.supervisor.backoff_max_ms = 20.0;
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

/// An `n`-node tree in parent-first order with distinct per-node values
/// (`salt` keeps two trees apart), masked when `masked`.
CascadeTree test_tree(std::size_t n, bool masked, std::uint32_t salt) {
  CascadeTree tree;
  for (std::size_t v = 0; v < n; ++v) {
    const auto id = static_cast<std::uint32_t>(v);
    tree.global.push_back(salt * 100 + id);
    tree.parent.push_back(v == 0 ? graph::kInvalidNode : (id - 1) / 2);
    tree.parent_edge.push_back(v == 0 ? graph::kInvalidEdge
                                      : salt * 1000 + id);
    tree.in_g.push_back(v == 0 ? 1.0 : 1.0 / static_cast<double>(v + salt));
    tree.state.push_back(v % 3 == 0 ? NodeState::kPositive
                                    : NodeState::kNegative);
    tree.side_q.push_back(0.5 + 0.25 / static_cast<double>(v + salt));
    if (masked) tree.can_initiate.push_back(v % 2 == 0);
  }
  return tree;
}

void expect_same_tree(const CascadeTree& got, const CascadeTree& want) {
  EXPECT_EQ(got.global, want.global);
  EXPECT_EQ(got.parent, want.parent);
  EXPECT_EQ(got.parent_edge, want.parent_edge);
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.can_initiate, want.can_initiate);
  EXPECT_EQ(got.root, want.root);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(double_bits(got.in_g[v]), double_bits(want.in_g[v])) << v;
    EXPECT_EQ(double_bits(got.side_q[v]), double_bits(want.side_q[v])) << v;
  }
}

/// Offset of the item count: the fixed fields are everything of an empty
/// assignment but its two trailing counts (items, trees).
std::size_t item_count_offset() {
  return encode_assignment(WorkerAssignment{}).size() - 16;
}

TEST_F(RemoteTransportTest, AssignmentDecodeRejectsCountsBeyondThePayload) {
  WorkerAssignment assignment;
  assignment.items = {3, 1, 4};
  assignment.trees = {test_tree(1, false, 1), test_tree(1, false, 2),
                      test_tree(2, false, 3)};
  const std::string body = encode_assignment(assignment);
  EXPECT_EQ(decode_assignment(body).items, assignment.items);
  // Each count claims 2^62 elements with far fewer bytes left: damage,
  // never a reserve() of the claim.
  const auto claim = [&body](std::size_t at) {
    std::string huge = body;
    std::string count;
    wire::put_u64(count, std::uint64_t{1} << 62);
    huge.replace(at, count.size(), count);
    return huge;
  };
  const std::size_t items_at = item_count_offset();
  const std::size_t trees_at = items_at + 8 + 3 * 8;
  const std::size_t last_nodes_at = body.size() - (8 + 2 * 29 + 1);
  EXPECT_THROW(decode_assignment(claim(items_at)), util::InputError);
  EXPECT_THROW(decode_assignment(claim(trees_at)), util::InputError);
  EXPECT_THROW(decode_assignment(claim(last_nodes_at)), util::InputError);
}

/// Checks that every field the assignment codec carries decodes equal, the
/// trees bit for bit. Not carried: the budget pointer and the cancel token
/// (re-armed or kept parent-side) and TreeDpOptions::num_threads (a
/// worker's single-beta solves never read it).
void expect_round_trip(const WorkerAssignment& want) {
  const WorkerAssignment got = decode_assignment(encode_assignment(want));
  EXPECT_EQ(got.trace_id, want.trace_id);
  EXPECT_EQ(got.collect_trace, want.collect_trace);
  EXPECT_EQ(got.beta, want.beta);
  EXPECT_EQ(got.dp.max_reach, want.dp.max_reach);
  EXPECT_EQ(got.dp.hard_k_cap, want.dp.hard_k_cap);
  EXPECT_EQ(got.dp.greedy_stop, want.dp.greedy_stop);
  EXPECT_EQ(got.dp.rank_initiators, want.dp.rank_initiators);
  EXPECT_EQ(got.dp.num_threads, 0u);
  EXPECT_EQ(got.budget.deadline_seconds, want.budget.deadline_seconds);
  EXPECT_EQ(got.budget.max_tree_nodes, want.budget.max_tree_nodes);
  EXPECT_EQ(got.budget.max_k, want.budget.max_k);
  EXPECT_EQ(got.items, want.items);
  ASSERT_EQ(got.trees.size(), want.trees.size());
  for (std::size_t t = 0; t < want.trees.size(); ++t)
    expect_same_tree(got.trees[t], want.trees[t]);
}

TEST_F(RemoteTransportTest, AssignmentRoundTripsEveryCarriedField) {
  // Distinct non-default values, so two same-typed fields that trade places
  // in the codec decode unequal.
  WorkerAssignment a;
  a.trace_id = 0x99aabbccddeeff01ull;
  a.collect_trace = true;
  a.beta = 0.375;
  a.dp.max_reach = 5;
  a.dp.hard_k_cap = 7;
  a.dp.greedy_stop = false;
  a.dp.rank_initiators = true;
  a.dp.num_threads = 6;  // not carried
  a.budget.deadline_seconds = 42.5;
  a.budget.max_tree_nodes = 11;
  a.budget.max_k = 13;
  a.items = {5, 0, 17};
  a.trees = {test_tree(6, false, 1), test_tree(1, true, 2),
             test_tree(9, true, 3)};
  expect_round_trip(a);
  // The DP's two flags are adjacent bytes: flip each alone from the
  // defaults, so a swap between them cannot hide behind equal values.
  for (bool TreeDpOptions::*flag :
       {&TreeDpOptions::greedy_stop, &TreeDpOptions::rank_initiators}) {
    WorkerAssignment one;
    one.dp.*flag = !(one.dp.*flag);
    expect_round_trip(one);
  }
}

TEST_F(RemoteTransportTest, AssignmentDecodeRejectsAnotherVersion) {
  std::string body = encode_assignment(WorkerAssignment{});
  std::string v5;
  wire::put_u32(v5, 5);
  body.replace(0, v5.size(), v5);
  try {
    decode_assignment(body);
    FAIL() << "a version-5 assignment decoded";
  } catch (const util::InputError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 5"), std::string::npos) << what;
    EXPECT_NE(what.find("speaks 6"), std::string::npos) << what;
  }
}

TEST_F(RemoteTransportTest, AssignmentDecodeRejectsMalformedTrees) {
  struct Case {
    const char* name;
    void (*damage)(WorkerAssignment&);
  };
  const Case cases[] = {
      {"no nodes", [](WorkerAssignment& a) { a.trees[0] = CascadeTree{}; }},
      {"root with a parent",
       [](WorkerAssignment& a) { a.trees[0].parent[0] = 1; }},
      {"own parent", [](WorkerAssignment& a) { a.trees[0].parent[2] = 2; }},
      {"parent after its child",
       [](WorkerAssignment& a) { a.trees[0].parent[1] = 3; }},
      {"unknown state",
       [](WorkerAssignment& a) {
         a.trees[0].state[1] = NodeState::kUnknown;
       }},
      {"NaN in_g",
       [](WorkerAssignment& a) {
         a.trees[0].in_g[2] = std::numeric_limits<double>::quiet_NaN();
       }},
      {"side_q above 1",
       [](WorkerAssignment& a) { a.trees[0].side_q[3] = 1.5; }},
      {"tree count != item count",
       [](WorkerAssignment& a) { a.items.push_back(7); }},
  };
  const auto good = [] {
    WorkerAssignment a;
    a.items = {2};
    a.trees = {test_tree(4, false, 1)};
    return a;
  };
  EXPECT_NO_THROW(decode_assignment(encode_assignment(good())));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    WorkerAssignment a = good();
    c.damage(a);
    EXPECT_THROW(decode_assignment(encode_assignment(a)), util::InputError);
  }
  // A mask byte other than 0 or 1 (the body's last byte is the last node's).
  WorkerAssignment masked = good();
  masked.trees[0] = test_tree(4, true, 1);
  std::string body = encode_assignment(masked);
  EXPECT_NO_THROW(decode_assignment(body));
  body.back() = 2;
  EXPECT_THROW(decode_assignment(body), util::InputError);
}

TEST_F(RemoteTransportTest, DamagedAssignmentsDecodeOrThrowInputError) {
  WorkerAssignment a;
  a.trace_id = 77;
  a.beta = 2.0;
  a.items = {4, 9};
  a.trees = {test_tree(5, false, 1), test_tree(3, true, 2)};
  const std::string body = encode_assignment(a);
  for (std::size_t cut = 0; cut < body.size(); ++cut)
    EXPECT_THROW(decode_assignment(std::string_view(body).substr(0, cut)),
                 util::InputError)
        << "prefix of " << cut << " bytes";
  // Seeded bit flips: any outcome but a decode or an InputError (a crash,
  // another exception type, an unbounded allocation) fails the test.
  util::Rng rng(20261017);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string damaged = body;
    const std::int64_t flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.next_below(damaged.size() * 8);
      damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
    }
    try {
      decode_assignment(damaged);
      ++decoded;
    } catch (const util::InputError&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
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
  SocketDispatcher dispatcher(net::Endpoint::unix_path(dir + "/d.sock"), dir,
                              0, WorkerAssignment{}, "sesame");
  const std::uint64_t rejected_before = counter_value("net.handshakes_rejected");

  // Protocol version skew: the range [99, 99] excludes this build.
  {
    net::Socket socket = net::connect(dispatcher.endpoint(), 5.0);
    std::string body;
    wire::put_u32(body, 99);
    wire::put_u32(body, 99);
    wire::put_u64(body, protocol_binary_fingerprint());
    wire::put_u32(body, 0);
    wire::put_u32(body, 1);
    wire::put_u64(body, 1);
    ASSERT_TRUE(socket.write_frame(frame(WireMessage::kHello, body)));
    const RejectReply reply = read_reject(socket);
    ASSERT_TRUE(reply.got_reject);
    EXPECT_EQ(reply.code, RejectCode::kVersionSkew) << reply.detail;
  }

  // A protocol-5 worker: its hello still carries the delivery byte, so
  // the body does not decode in this build's layout. The range alone must
  // turn it away with the typed verdict.
  {
    net::Socket socket = net::connect(dispatcher.endpoint(), 5.0);
    std::string body;
    wire::put_u32(body, 5);
    wire::put_u32(body, 5);
    wire::put_u64(body, protocol_binary_fingerprint());
    wire::put_u8(body, 1);  // delivery modes: shared
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

  EXPECT_GE(counter_value("net.handshakes_rejected"), rejected_before + 5);
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
                              0, WorkerAssignment{});
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
  SocketDispatcher dispatcher(net::Endpoint::unix_path(dir + "/d.sock"), dir,
                              0, WorkerAssignment{}, "right-token");
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

// --- end-to-end: authenticated workers, no graph file ---------------------

TEST_F(RemoteTransportTest, AuthenticatedWorkersSolveTreesWithoutAGraphFile) {
  require_cli();
  const Scenario& s = scenario();
  const DetectionResult want = run_rid(s.graph, s.states, s.config);

  // An in-RAM graph leaves no file a worker could open: every tree it
  // solves arrives in its assignment.
  ShardedConfig config = socket_config(2, run_dir("in_ram"));
  config.auth_token = "open-sesame";
  const std::uint64_t handshakes_before = counter_value("net.handshakes");
  const DetectionResult got =
      run_rid_sharded(s.graph, s.states, s.config, config);
  expect_identical(got, want);
  EXPECT_TRUE(got.diagnostics.all_ok());
  EXPECT_EQ(got.diagnostics.shard_crashes, 0u);
  EXPECT_GE(counter_value("net.handshakes"), handshakes_before + 2);
}

// --- dispatcher teardown --------------------------------------------------

TEST_F(RemoteTransportTest, DispatcherTeardownDoesNotWaitOutTheAcceptPoll) {
  const std::string dir = run_dir("teardown");
  fs::create_directories(dir);
  auto dispatcher = std::make_unique<SocketDispatcher>(
      net::Endpoint::unix_path(dir + "/d.sock"), dir, 0, WorkerAssignment{});
  // Let the acceptor settle into its accept poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  dispatcher.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
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
