#include "core/shard_transport.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/rid_internal.hpp"
#include "util/errors.hpp"
#include "util/failpoint.hpp"
#include "util/flight_recorder.hpp"
#include "util/fnv.hpp"
#include "util/hmac.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"
#include "util/wire.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace rid::core {

namespace {

namespace net = util::net;
namespace wire = util::wire;

/// Bumped on any change to the assignment body layout. v2 added the
/// trace id + collect_trace flag (and the hello frame gained the worker
/// pid); v3 added the graph data fingerprint + negotiated delivery mode
/// (and moved version gating into the hello handshake proper); v4 dropped
/// the DP's growth-mode, thread-count and task-grain fields and the
/// extraction's solver switch (a worker's single-beta DP is serial); v5
/// dropped the first k cap, force_root and the spill threshold from the DP
/// and the arc score, side-evidence switch and score floor from the
/// extraction (all now constants); v6 ships the attempt's trees and drops
/// the forest fingerprint, the graph path, its data fingerprint, the
/// delivery mode and the extraction config (workers no longer extract).
constexpr std::uint32_t kAssignmentVersion = 6;

/// The conversation version advertised in the hello. Bumped together with
/// kAssignmentVersion — any change to any frame layout is a new protocol.
constexpr std::uint32_t kProtocolVersion = 6;

/// Bytes per tree node in an assignment: global, parent and parent_edge
/// (u32 each), in_g (f64), state (i8) and side_q (f64).
constexpr std::size_t kTreeNodeBytes = 4 + 4 + 4 + 8 + 1 + 8;

constexpr double kDispatcherPollSeconds = 0.25;

/// Exit code of a forked worker whose per-tree loop let an exception escape
/// (a "soft" failure, still a worker loss to the supervisor).
constexpr int kWorkerExceptionExit = 99;

/// Environment override for a timing knob (seconds); tests shrink the
/// handshake deadlines so injected stalls resolve in milliseconds.
double env_seconds(const char* name, double fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || value <= 0.0) return fallback;
  return value;
}

/// Deadline for each handshake frame, on both sides (hello and auth at the
/// dispatcher; challenge, reject or kAssign at the worker). A connection
/// that stalls inside the handshake is dropped, not parked.
double handshake_seconds() {
  return env_seconds("RID_HANDSHAKE_TIMEOUT", 30.0);
}

std::string message_frame(WireMessage type, std::string_view body) {
  std::string payload;
  payload.reserve(1 + body.size());
  wire::put_u8(payload, static_cast<std::uint8_t>(type));
  payload.append(body);
  return payload;
}

struct TransportMetrics {
  util::metrics::Counter& workers_launched =
      util::metrics::global().counter("net.workers_launched");
  util::metrics::Counter& records_streamed =
      util::metrics::global().counter("net.records_streamed");
  util::metrics::Counter& handshakes =
      util::metrics::global().counter("net.handshakes");
  util::metrics::Counter& rejected =
      util::metrics::global().counter("net.handshakes_rejected");
  util::metrics::Counter& dropped =
      util::metrics::global().counter("net.connections_dropped");
  util::metrics::Counter& connect_retries =
      util::metrics::global().counter("net.connect_retries");
};

TransportMetrics& transport_metrics() {
  static TransportMetrics instance;
  return instance;
}

/// Checkpoint file for one worker attempt. The worker's pid keeps names
/// unique across runs sharing a resumed directory and across launchers
/// (each attempt gets a fresh file: appending to an old file after a crash
/// could land records after a partial trailing record, hiding them behind
/// the damaged prefix).
std::string attempt_file(const std::string& run_dir, std::size_t shard_id,
                         std::uint64_t worker_pid, std::uint32_t attempt) {
  std::ostringstream name;
  name << run_dir << "/shard-" << shard_id << "-p" << worker_pid << "-a"
       << attempt << kCheckpointExtension;
  return name.str();
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[fingerprint & 0xf];
    fingerprint >>= 4;
  }
  return out;
}

/// The worker's half of the handshake — everything the dispatcher needs to
/// decide compatible/authorized before any work flows.
struct HelloV2 {
  std::uint32_t protocol_min = kProtocolVersion;
  std::uint32_t protocol_max = kProtocolVersion;
  std::uint64_t binary_fingerprint = 0;
  std::uint32_t shard_id = 0;
  std::uint32_t attempt = 0;
  std::uint64_t worker_pid = 0;
};

bool speaks_this_protocol(const HelloV2& hello) {
  return hello.protocol_min <= kProtocolVersion &&
         kProtocolVersion <= hello.protocol_max;
}

std::string encode_hello(const HelloV2& hello) {
  std::string out;
  wire::put_u32(out, hello.protocol_min);
  wire::put_u32(out, hello.protocol_max);
  wire::put_u64(out, hello.binary_fingerprint);
  wire::put_u32(out, hello.shard_id);
  wire::put_u32(out, hello.attempt);
  wire::put_u64(out, hello.worker_pid);
  return out;
}

/// Stops after the version range when it excludes this build: the rest of
/// another protocol's hello need not decode here, and the version gate must
/// still answer it with a typed reject.
HelloV2 decode_hello(std::string_view body) {
  wire::Reader in(body, "hello");
  HelloV2 hello;
  hello.protocol_min = in.u32();
  hello.protocol_max = in.u32();
  if (!speaks_this_protocol(hello)) return hello;
  hello.binary_fingerprint = in.u64();
  hello.shard_id = in.u32();
  hello.attempt = in.u32();
  hello.worker_pid = in.u64();
  in.expect_done();
  return hello;
}

std::string reject_frame(RejectCode code, const std::string& message) {
  std::string body;
  wire::put_u8(body, static_cast<std::uint8_t>(code));
  wire::put_bytes(body, message);
  return message_frame(WireMessage::kReject, body);
}

/// 32 bytes of per-connection challenge material. Cryptographic-grade
/// unpredictability is not required (the MAC key is the secret; the nonce
/// only prevents replay), but std::random_device gives it anyway on the
/// platforms this transport compiles for.
std::string make_nonce() {
  std::random_device rd;
  std::string nonce(32, '\0');
  for (std::size_t i = 0; i < nonce.size(); i += 4) {
    const std::uint32_t word = rd();
    std::memcpy(nonce.data() + i, &word,
                std::min<std::size_t>(4, nonce.size() - i));
  }
  return nonce;
}

std::uint64_t env_u64(const char* name, bool* present = nullptr) {
  const char* text = std::getenv(name);
  if (present != nullptr) *present = text != nullptr && text[0] != '\0';
  if (text == nullptr || text[0] == '\0') return 0;
  return std::strtoull(text, nullptr, 0);
}

}  // namespace

const char* to_string(RejectCode code) noexcept {
  switch (code) {
    case RejectCode::kVersionSkew:
      return "protocol version skew";
    case RejectCode::kBinarySkew:
      return "binary fingerprint skew";
    case RejectCode::kAuthFailed:
      return "authentication failed";
    case RejectCode::kUnknownShard:
      return "unknown shard";
  }
  return "?";
}

std::uint64_t protocol_binary_fingerprint() {
  // A digest of the wire-protocol constants this translation unit was
  // compiled with: two binaries that hash alike agree about every byte the
  // conversation can produce. (Intentionally NOT a hash of the executable
  // file — a relinked but protocol-identical build must still pair.)
  std::uint64_t hash = util::kFnv64Basis;
  hash = util::fnv1a64_step(hash, kProtocolVersion);
  hash = util::fnv1a64_step(hash, kAssignmentVersion);
  hash = util::fnv1a64_step(hash,
                            static_cast<std::uint64_t>(WireMessage::kReject));
  hash = util::fnv1a64_step(hash, kTreeNodeBytes);
  return hash;
}

namespace {

void encode_tree(std::string& out, const CascadeTree& tree) {
  wire::put_u64(out, tree.size());
  for (std::size_t v = 0; v < tree.size(); ++v) {
    wire::put_u32(out, tree.global[v]);
    wire::put_u32(out, tree.parent[v]);
    wire::put_u32(out, tree.parent_edge[v]);
    wire::put_f64(out, tree.in_g[v]);
    wire::put_u8(out, static_cast<std::uint8_t>(tree.state[v]));
    wire::put_f64(out, tree.side_q[v]);
  }
  wire::put_u8(out, tree.can_initiate.empty() ? 0 : 1);
  for (const bool can : tree.can_initiate) wire::put_u8(out, can ? 1 : 0);
}

/// Decodes one tree and refuses any the solver could not trust: no nodes,
/// a root with a parent, a parent that does not precede its child, an
/// unimputed state, a factor outside [0, 1] (NaN included), a mask byte
/// other than 0 or 1.
CascadeTree decode_tree(wire::Reader& in, std::size_t index) {
  const auto fail = [index](const std::string& what) {
    throw util::InputError("worker assignment: tree " +
                           std::to_string(index) + ": " + what);
  };
  const auto unit = [&fail](double value, const char* name, std::size_t v) {
    if (!(value >= 0.0 && value <= 1.0))
      fail("node " + std::to_string(v) + " " + name + " outside [0, 1]");
    return value;
  };
  const std::size_t n = in.count(in.u64(), kTreeNodeBytes);
  if (n == 0) fail("no nodes");
  CascadeTree tree;
  tree.global.resize(n);
  tree.parent.resize(n);
  tree.parent_edge.resize(n);
  tree.in_g.resize(n);
  tree.state.resize(n);
  tree.side_q.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    tree.global[v] = in.u32();
    tree.parent[v] = in.u32();
    if (v == 0 ? tree.parent[v] != graph::kInvalidNode : tree.parent[v] >= v)
      fail("node " + std::to_string(v) + " has parent " +
           std::to_string(tree.parent[v]));
    tree.parent_edge[v] = in.u32();
    tree.in_g[v] = unit(in.f64(), "in_g", v);
    tree.state[v] = static_cast<graph::NodeState>(
        static_cast<std::int8_t>(in.u8()));
    if (!graph::is_opinion(tree.state[v]))
      fail("node " + std::to_string(v) + " state is not +1/-1");
    tree.side_q[v] = unit(in.f64(), "side_q", v);
  }
  const std::uint8_t masked = in.u8();
  if (masked > 1) fail("mask flag " + std::to_string(masked));
  if (masked == 1) {
    in.count(n, 1);
    tree.can_initiate.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint8_t can = in.u8();
      if (can > 1) fail("mask byte " + std::to_string(can));
      tree.can_initiate[v] = can == 1;
    }
  }
  return tree;
}

}  // namespace

std::string encode_assignment(const WorkerAssignment& assignment) {
  std::string out;
  wire::put_u32(out, kAssignmentVersion);
  wire::put_u64(out, assignment.trace_id);
  wire::put_u8(out, assignment.collect_trace ? 1 : 0);
  wire::put_f64(out, assignment.beta);
  // TreeDpOptions (num_threads stays home: a worker's single-beta solves
  // never read it; the budget pointer travels as the WorkBudget fields
  // below and is re-armed worker-side).
  wire::put_u32(out, assignment.dp.max_reach);
  wire::put_u32(out, assignment.dp.hard_k_cap);
  wire::put_u8(out, assignment.dp.greedy_stop ? 1 : 0);
  wire::put_u8(out, assignment.dp.rank_initiators ? 1 : 0);
  // WorkBudget (cancellation stays parent-side: the supervisor kills).
  wire::put_f64(out, assignment.budget.deadline_seconds);
  wire::put_u32(out, assignment.budget.max_tree_nodes);
  wire::put_u32(out, assignment.budget.max_k);
  wire::put_u64(out, assignment.items.size());
  for (const std::size_t item : assignment.items)
    wire::put_u64(out, static_cast<std::uint64_t>(item));
  wire::put_u64(out, assignment.trees.size());
  for (const CascadeTree& tree : assignment.trees) encode_tree(out, tree);
  return out;
}

WorkerAssignment decode_assignment(std::string_view body) {
  wire::Reader in(body, "worker assignment");
  const std::uint32_t version = in.u32();
  if (version != kAssignmentVersion)
    throw util::InputError("worker assignment: version " +
                           std::to_string(version) + " (this build speaks " +
                           std::to_string(kAssignmentVersion) + ")");
  WorkerAssignment a;
  a.trace_id = in.u64();
  a.collect_trace = in.u8() != 0;
  a.beta = in.f64();
  a.dp.max_reach = in.u32();
  a.dp.hard_k_cap = in.u32();
  a.dp.greedy_stop = in.u8() != 0;
  a.dp.rank_initiators = in.u8() != 0;
  a.budget.deadline_seconds = in.f64();
  a.budget.max_tree_nodes = in.u32();
  a.budget.max_k = in.u32();
  const std::size_t num_items = in.count(in.u64(), 8);
  a.items.reserve(num_items);
  for (std::size_t i = 0; i < num_items; ++i)
    a.items.push_back(static_cast<std::size_t>(in.u64()));
  // Each tree takes at least its node count, one node and the mask flag.
  const std::size_t num_trees = in.count(in.u64(), 8 + kTreeNodeBytes + 1);
  if (num_trees != num_items)
    throw util::InputError("worker assignment: " + std::to_string(num_trees) +
                           " trees for " + std::to_string(num_items) +
                           " items");
  a.trees.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t)
    a.trees.push_back(decode_tree(in, t));
  in.expect_done();
  return a;
}

#if !defined(_WIN32)

namespace {

/// Live fork-worker stream fds: every parent end, and every child end until
/// the parent closes it right after fork(). A forked worker closes all of
/// them but its own, so a stream has exactly two holders, the parent and
/// its worker: the worker's writes fail (not block) once the parent closes
/// its end, just as they do for exec'd workers. The lock is held across
/// fork() (like the metrics, trace, failpoint and log locks), so a launch
/// racing on another thread (serve's runners) never leaves a child with a
/// half-updated list.
struct StreamFds {
  std::mutex mutex;
  std::vector<int> fds;
};

StreamFds& stream_fds() {
  static StreamFds instance;
  return instance;
}

[[maybe_unused]] const int kForkHandlers = ::pthread_atfork(
    [] { stream_fds().mutex.lock(); }, [] { stream_fds().mutex.unlock(); },
    [] { stream_fds().mutex.unlock(); });

/// A connected (parent end, child end) pair for one fork worker. Both ends
/// are close-on-exec, so exec'd workers never inherit them.
std::pair<net::Socket, net::Socket> open_stream_pair() {
  StreamFds& registry = stream_fds();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw util::InputError(std::string("socketpair() failed: ") +
                           std::strerror(errno));
  for (const int fd : fds) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    registry.fds.push_back(fd);
  }
  return {net::Socket(fds[0]), net::Socket(fds[1])};
}

/// Closes a stream end, dropping it from the list first (under the lock, so
/// a concurrent socketpair() cannot reuse the number while it is listed).
void close_stream(net::Socket& socket) {
  StreamFds& registry = stream_fds();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  std::erase(registry.fds, socket.fd());
  socket.close();
}

/// Sends kError (best effort) and returns the worker exit code.
int worker_fail(net::Socket& socket, const std::string& message, int code) {
  std::string body;
  wire::put_bytes(body, message);
  socket.write_frame(message_frame(WireMessage::kError, body));
  util::log_warn("socket worker: ", message);
  return code;
}

/// The per-tree loop every worker runs once it holds its trees (`trees[i]`
/// is forest tree `assignment.items[i]`), forked or exec'd: solve them
/// serially in shard order (the supervisor's poison suspect, "first
/// incomplete item", depends on it) with run_rid_on_forest's per-tree
/// isolation ladder, send one kRecord frame per tree as soon as it is
/// solved (a crash loses at most the tree in flight), then kTelemetry and
/// kDone. Returns the exit code.
int stream_trees(net::Socket& socket,
                 const std::vector<const CascadeTree*>& trees,
                 const WorkerAssignment& assignment, std::size_t shard_id,
                 std::uint32_t attempt, std::uint64_t worker_start_ns) {
  const util::BudgetScope scope(assignment.budget);
  TreeDpOptions dp = assignment.dp;
  if (!assignment.budget.unlimited()) dp.budget = &scope;

  std::uint64_t streamed = 0;
  for (std::size_t i = 0; i < assignment.items.size(); ++i) {
    RID_FAILPOINT("shard.worker_tree");
    const std::size_t item = assignment.items[i];
    const CascadeTree& cascade = *trees[i];
    TreeCheckpointRecord record;
    record.tree_index = item;
    TreeDiagnostics tree;
    const std::uint64_t start_ns = util::trace::now_ns();
    internal::solve_tree_guarded(cascade, assignment.beta, dp,
                                 record.solution, tree);
    const std::uint64_t end_ns = util::trace::now_ns();
    record.seconds = static_cast<double>(end_ns - start_ns) * 1e-9;
    record.status = tree.status;
    record.budget_hit = tree.budget_hit;
    record.fallback_root_only = tree.fallback_root_only;
    record.error = std::move(tree.error);
    {
      // Same span shape as the in-process path (rid.cpp) so merged traces
      // read uniformly.
      const util::trace::TagValue tags[] = {
          {"tree_index", nullptr, static_cast<std::int64_t>(item)},
          {"nodes", nullptr, static_cast<std::int64_t>(cascade.size())},
          {"status", status_name(tree.status), 0},
      };
      util::trace::emit_span("solve_tree", start_ns, end_ns,
                             util::trace::current_tid(), tags);
    }
    if (!socket.write_frame(
            message_frame(WireMessage::kRecord, encode_record(record))))
      return 1;  // dispatcher gone; nothing durable happens without it
    ++streamed;
  }
  {
    const util::trace::TagValue tags[] = {
        {"shard", nullptr, static_cast<std::int64_t>(shard_id)},
        {"attempt", nullptr, static_cast<std::int64_t>(attempt)},
        {"job", nullptr, static_cast<std::int64_t>(assignment.trace_id)},
    };
    util::trace::emit_span("worker_shard", worker_start_ns,
                           util::trace::now_ns(), util::trace::current_tid(),
                           tags);
  }
  // Telemetry before kDone, strictly best-effort: a failed send is the
  // dispatcher's loss to count, never the worker's failure. The frame
  // always flows (the metrics half is always compiled); span content rides
  // along only when the dispatcher asked for a trace.
  try {
    if (assignment.collect_trace && util::trace::compiled())
      util::trace::stop();
    const util::telemetry::WorkerTelemetry telemetry =
        util::telemetry::collect(assignment.trace_id,
                                 "worker shard " + std::to_string(shard_id) +
                                     " attempt " + std::to_string(attempt));
    socket.write_frame(message_frame(WireMessage::kTelemetry,
                                     util::telemetry::encode(telemetry)));
  } catch (const std::exception&) {
  }
  std::string done;
  wire::put_u64(done, streamed);
  socket.write_frame(message_frame(WireMessage::kDone, done));
  return 0;
}

/// Body of a forked worker: it inherits the forest and the resolved
/// assignment, so it skips the handshake and the tree decode, and runs the
/// per-tree loop straight into its stream end.
/// Leaves only through _exit: no atexit handlers, no flushing of stdio
/// buffers duplicated from the parent.
[[noreturn]] void run_fork_worker(net::Socket& socket,
                                  const CascadeForest& forest,
                                  const WorkerAssignment& assignment,
                                  std::size_t shard_id, std::uint32_t attempt,
                                  const util::SupervisorOptions& options) {
  for (const int fd : stream_fds().fds)
    if (fd != socket.fd()) ::close(fd);
  util::apply_worker_rlimits(options);
  int code = kWorkerExceptionExit;
  try {
    // The child inherits the parent's metrics values and span rings
    // copy-on-write; reset both so its telemetry carries only this
    // attempt's deltas (merging them back would otherwise double-count
    // everything recorded before the fork).
    util::metrics::global().reset();
    if (assignment.collect_trace && util::trace::compiled())
      util::trace::start();
    std::vector<const CascadeTree*> trees;
    trees.reserve(assignment.items.size());
    for (const std::size_t item : assignment.items)
      trees.push_back(&forest.trees[item]);
    code = stream_trees(socket, trees, assignment, shard_id, attempt,
                        util::trace::now_ns());
  } catch (...) {
  }
  _exit(code);
}

}  // namespace

struct SocketDispatcher::Impl {
  /// One attempt's stream phase, as the supervisor's drain sees it.
  struct Stream {
    bool drain = false;  // worker reaped: end at the first idle read
    bool ended = false;  // the stream phase returned
  };

  std::string run_dir;
  std::uint64_t fingerprint = 0;  // stamped into every checkpoint file
  WorkerAssignment assignment_template;
  std::string auth_token;
  net::Listener listener;  // bound only for the exec launcher
  const CascadeForest* forest = nullptr;  // the exec launcher's trees

  std::mutex mutex;
  // shard_id -> items of the currently-launching attempt. A worker from a
  // superseded attempt still finds its items here (same shard, items only
  // shrink as records land), and its records are adopted first-wins anyway.
  std::unordered_map<std::size_t, std::vector<std::size_t>> assignments;
  std::unordered_map<std::uint64_t, std::shared_ptr<Stream>> streams;  // pid
  std::map<std::uint64_t, TreeCheckpointRecord> published;  // appended
  std::condition_variable stream_ended;
  std::vector<std::string> events;
  std::vector<std::thread> handlers;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> handshakes_completed{0};
  std::thread acceptor;

  void log_event(std::string text) {
    std::lock_guard<std::mutex> lock(mutex);
    events.push_back(std::move(text));
  }

  /// Registers a worker's stream before the worker can send a record.
  std::shared_ptr<Stream> open_stream(std::uint64_t worker_pid) {
    auto stream = std::make_shared<Stream>();
    std::lock_guard<std::mutex> lock(mutex);
    streams[worker_pid] = stream;
    return stream;
  }

  /// Drain before durable: returns once the stream of the reaped worker
  /// `pid` has consumed every frame the worker wrote. Those frames already
  /// sit in the socket buffer, so this never waits for EOF (a sibling
  /// forked on another thread may briefly hold the worker's end): the
  /// stream ends at its first idle read after the request.
  void drain(pid_t pid) {
    std::unique_lock<std::mutex> lock(mutex);
    const auto found = streams.find(static_cast<std::uint64_t>(pid));
    if (found == streams.end()) return;  // never got past the handshake
    const std::shared_ptr<Stream> stream = found->second;
    stream->drain = true;
    stream_ended.wait(lock, [&] { return stream->ended; });
    streams.erase(found);
  }

  /// Both launchers' durability probe: a record for `item` is on disk.
  bool durable(std::size_t item) {
    std::lock_guard<std::mutex> lock(mutex);
    return published.count(item) > 0;
  }

  /// Refuses a handshake with a typed verdict: one kReject frame (best
  /// effort), a counter bump, and an event line. The worker maps this to
  /// kExitHandshakeRejected; the connection ends here either way.
  void reject(net::Socket& socket, RejectCode code,
              const std::string& detail) {
    transport_metrics().rejected.add(1);
    socket.write_frame(reject_frame(code, detail));
    util::flight::record("net.reject",
                         std::string(to_string(code)) + ": " + detail);
    log_event("dispatcher: rejected worker (" +
              std::string(to_string(code)) + "): " + detail);
  }

  void accept_loop() {
    while (!stop.load()) {
      net::Socket socket;
      try {
        socket = listener.accept(kDispatcherPollSeconds);
      } catch (const std::exception& e) {
        // An armed net.accept failpoint (or a transient accept error):
        // the worker sees a dead connection and exits; the supervisor
        // requeues.
        transport_metrics().dropped.add(1);
        log_event(std::string("dispatcher: accept failed: ") + e.what());
        continue;
      }
      // A connection that lands after stop (the destructor's wake-up among
      // them) is dropped unread.
      if (!socket.valid() || stop.load()) continue;
      std::lock_guard<std::mutex> lock(mutex);
      handlers.emplace_back(&Impl::handle_connection, this,
                            std::move(socket));
    }
  }

  /// The exec'd worker's handshake; a worker that passes it gets kAssign
  /// and continues in the stream phase on this thread.
  void handle_connection(net::Socket socket) {
    TransportMetrics& tm = transport_metrics();
    std::string payload;
    std::size_t shard_id = 0;
    std::uint32_t attempt = 0;
    std::uint64_t worker_pid = 0;
    std::string assign_frame;
    try {
      // The half-open fault shape: armed with sleep(MS), the dispatcher
      // accepts and then stalls before speaking — the worker's handshake
      // deadline must convert the stall into a clean retry/requeue.
      RID_FAILPOINT("net.half_open");
      const double handshake_timeout = handshake_seconds();
      // Handshake: one Hello frame names the (shard, attempt) this
      // connection carries and advertises the worker's capabilities.
      const net::FrameStatus status =
          socket.read_frame(payload, handshake_timeout);
      if (status != net::FrameStatus::kOk || payload.empty() ||
          static_cast<WireMessage>(payload[0]) != WireMessage::kHello) {
        tm.rejected.add(1);
        log_event("dispatcher: connection without a valid hello (" +
                  std::string(net::to_string(status)) + ")");
        return;
      }
      const std::string hello_body(std::string_view(payload).substr(1));
      const HelloV2 hello = decode_hello(hello_body);
      shard_id = hello.shard_id;
      attempt = hello.attempt;
      worker_pid = hello.worker_pid;

      // Capability gates, most specific verdict first. Version and binary
      // skew are configuration errors the supervisor cannot retry away, so
      // they fail closed with a typed reject.
      if (!speaks_this_protocol(hello)) {
        reject(socket, RejectCode::kVersionSkew,
               "worker speaks protocol [" +
                   std::to_string(hello.protocol_min) + ", " +
                   std::to_string(hello.protocol_max) +
                   "], dispatcher speaks " +
                   std::to_string(kProtocolVersion));
        return;
      }
      if (hello.binary_fingerprint != protocol_binary_fingerprint()) {
        reject(socket, RejectCode::kBinarySkew,
               "worker wire fingerprint " +
                   fingerprint_hex(hello.binary_fingerprint) +
                   " != dispatcher " +
                   fingerprint_hex(protocol_binary_fingerprint()));
        return;
      }

      // Challenge/response when a shared secret is configured: the worker
      // proves possession of the token by MACing nonce || hello (binding
      // the hello stops a relay from swapping capabilities mid-handshake).
      if (!auth_token.empty()) {
        std::string nonce = make_nonce();
        if (!socket.write_frame(
                message_frame(WireMessage::kChallenge, nonce))) {
          tm.dropped.add(1);
          return;
        }
        const net::FrameStatus auth_status =
            socket.read_frame(payload, handshake_timeout);
        if (auth_status != net::FrameStatus::kOk || payload.empty() ||
            static_cast<WireMessage>(payload[0]) != WireMessage::kAuth) {
          reject(socket, RejectCode::kAuthFailed,
                 "shard " + std::to_string(shard_id) +
                     ": no auth response (" +
                     std::string(net::to_string(auth_status)) + ")");
          return;
        }
        const auto expected =
            util::hmac_sha256(auth_token, nonce + hello_body);
        const std::string_view got = std::string_view(payload).substr(1);
        if (!util::constant_time_equal(
                got, std::string_view(
                         reinterpret_cast<const char*>(expected.data()),
                         expected.size()))) {
          reject(socket, RejectCode::kAuthFailed,
                 "shard " + std::to_string(shard_id) + " pid " +
                     std::to_string(worker_pid) + ": bad MAC");
          return;
        }
      }

      WorkerAssignment assignment = assignment_template;
      bool shard_known = false;
      {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = assignments.find(shard_id);
        if (it != assignments.end()) {
          shard_known = true;
          assignment.items = it->second;
        }
      }
      // reject() logs an event, which takes the same mutex: it must run
      // outside the assignments critical section.
      if (!shard_known) {
        reject(socket, RejectCode::kUnknownShard,
               "hello for unknown shard " + std::to_string(shard_id));
        return;
      }
      assignment.trees.reserve(assignment.items.size());
      for (const std::size_t item : assignment.items)
        assignment.trees.push_back(forest->trees[item]);
      tm.handshakes.add(1);
      handshakes_completed.fetch_add(1, std::memory_order_relaxed);
      assign_frame =
          message_frame(WireMessage::kAssign, encode_assignment(assignment));
    } catch (const std::exception& e) {
      tm.dropped.add(1);
      log_event(std::string("dispatcher: connection handler failed: ") +
                e.what());
      return;
    }
    // Registered before kAssign goes out: no record can precede it.
    const std::shared_ptr<Stream> stream = open_stream(worker_pid);
    run_stream(socket, shard_id, attempt, worker_pid, *stream, assign_frame);
  }

  /// The stream phase both launchers share: the only code that turns
  /// worker bytes into checkpoint records, and the only way worker
  /// telemetry comes in. `greeting` (an exec'd worker's kAssign) goes out
  /// first. Ends on kDone, kError, loss, damage, or an idle read once the
  /// supervisor asked for a drain; then closes the socket and marks the
  /// stream ended.
  void run_stream(net::Socket& socket, std::size_t shard_id,
                  std::uint32_t attempt, std::uint64_t worker_pid,
                  Stream& stream, std::string_view greeting) {
    try {
      stream_records(socket, shard_id, attempt, worker_pid, stream, greeting);
    } catch (const std::exception& e) {
      transport_metrics().dropped.add(1);
      log_event(std::string("dispatcher: connection handler failed: ") +
                e.what());
    }
    close_stream(socket);
    std::lock_guard<std::mutex> lock(mutex);
    stream.ended = true;
    stream_ended.notify_all();
  }

  void stream_records(net::Socket& socket, std::size_t shard_id,
                      std::uint32_t attempt, std::uint64_t worker_pid,
                      Stream& stream, std::string_view greeting) {
    TransportMetrics& tm = transport_metrics();
    const std::string where = "shard " + std::to_string(shard_id) +
                              " attempt " + std::to_string(attempt) +
                              " pid " + std::to_string(worker_pid);
    // Loss or damage ends the attempt: the connection is dropped, the
    // worker's next write fails (or the heartbeat kills it), and the shard
    // requeues.
    const auto drop = [&](const std::string& why) {
      tm.dropped.add(1);
      util::flight::record("net.conn", where + ": " + why);
      log_event("dispatcher: " + where + ": " + why);
    };
    if (!greeting.empty() && !socket.write_frame(greeting))
      return drop("worker vanished before assignment");
    // Every record frame is appended (and flushed) to this attempt's
    // checkpoint file immediately and then published, so the supervisor's
    // durable() probe and heartbeat see progress with per-tree granularity
    // and never see a record that is not on disk.
    CheckpointWriter writer(
        attempt_file(run_dir, shard_id, worker_pid, attempt), fingerprint);
    std::string payload;
    while (true) {
      const net::FrameStatus frame =
          socket.read_frame(payload, kDispatcherPollSeconds);
      if (frame == net::FrameStatus::kTimeout) {
        // Nothing arrived for a whole poll: when the worker has been
        // reaped, everything it wrote has been consumed.
        if (stop.load(std::memory_order_relaxed)) return;
        std::lock_guard<std::mutex> lock(mutex);
        if (stream.drain) return;
        continue;
      }
      if (frame == net::FrameStatus::kClosed)
        return drop("connection lost mid-stream");
      if (frame == net::FrameStatus::kChecksumError)
        return drop("damaged frame - dropping connection");
      if (payload.empty()) continue;
      const auto type = static_cast<WireMessage>(payload[0]);
      const std::string_view body = std::string_view(payload).substr(1);
      if (type == WireMessage::kRecord) {
        // Decode before append: a structurally-broken record must not
        // reach the durable store (the frame checksum only covers
        // transport damage).
        TreeCheckpointRecord record = decode_record(body);
        writer.append(record);
        tm.records_streamed.add(1);
        std::lock_guard<std::mutex> lock(mutex);
        published.try_emplace(record.tree_index, std::move(record));
        continue;
      }
      if (type == WireMessage::kTelemetry) {
        // Best-effort observability: damage here must never end the
        // attempt (the records already streamed are the result; spans
        // and metrics are garnish). The failpoint models a frame that
        // passed the transport checksum but carries a garbled payload.
        try {
          RID_FAILPOINT("net.telemetry_frame");
          util::telemetry::WorkerTelemetry telemetry =
              util::telemetry::decode(body);
          if (telemetry.trace_id != assignment_template.trace_id)
            throw util::InputError(
                "telemetry trace id " + std::to_string(telemetry.trace_id) +
                " does not match assignment " +
                std::to_string(assignment_template.trace_id));
          util::telemetry::merge_into_process(std::move(telemetry));
        } catch (const std::exception& e) {
          util::metrics::global().counter("telemetry.damaged").add(1);
          util::flight::record("net.frame", "telemetry damaged: " + where +
                                                ": " + e.what());
          log_event("dispatcher: " + where +
                    ": telemetry damaged (ignored): " + e.what());
        }
        continue;
      }
      if (type == WireMessage::kDone) return;
      if (type == WireMessage::kError) {
        wire::Reader err(body, "worker error");
        log_event("dispatcher: " + where + ": worker error: " + err.str());
        return;
      }
      log_event("dispatcher: shard " + std::to_string(shard_id) +
                ": unexpected message type " +
                std::to_string(static_cast<int>(type)) + " - dropping");
      return;
    }
  }
};

SocketDispatcher::SocketDispatcher(std::string run_dir,
                                   std::uint64_t fingerprint,
                                   WorkerAssignment assignment_template)
    : impl_(std::make_unique<Impl>()) {
  impl_->run_dir = std::move(run_dir);
  impl_->fingerprint = fingerprint;
  impl_->assignment_template = std::move(assignment_template);
}

SocketDispatcher::SocketDispatcher(const util::net::Endpoint& endpoint,
                                   std::string run_dir,
                                   std::uint64_t fingerprint,
                                   WorkerAssignment assignment_template,
                                   std::string auth_token)
    : SocketDispatcher(std::move(run_dir), fingerprint,
                       std::move(assignment_template)) {
  impl_->auth_token = std::move(auth_token);
  impl_->listener = net::Listener::listen(endpoint);
  impl_->acceptor = std::thread(&Impl::accept_loop, impl_.get());
}

SocketDispatcher::~SocketDispatcher() {
  impl_->stop.store(true);
  if (impl_->acceptor.joinable()) {
    // Wake the acceptor out of its accept poll with a connection of our own,
    // which it drops; should the connect fail, the poll ends on its own.
    try {
      net::connect(impl_->listener.endpoint(), kDispatcherPollSeconds);
    } catch (const std::exception&) {
    }
    impl_->acceptor.join();
  }
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    handlers.swap(impl_->handlers);
  }
  for (std::thread& handler : handlers)
    if (handler.joinable()) handler.join();
}

const util::net::Endpoint& SocketDispatcher::endpoint() const {
  return impl_->listener.endpoint();
}

std::uint64_t SocketDispatcher::handshakes_completed() const {
  return impl_->handshakes_completed.load(std::memory_order_relaxed);
}

util::ShardLauncher SocketDispatcher::launcher(
    const CascadeForest& forest, std::string worker_command,
    const util::SupervisorOptions& options) {
  Impl* impl = impl_.get();
  impl->forest = &forest;
  const std::string endpoint_text = impl->listener.endpoint().to_string();
  util::ShardLauncher launcher;
  launcher.launch = [impl, options,
                     worker_command = std::move(worker_command),
                     endpoint_text](std::size_t shard_id,
                                    const std::vector<std::size_t>& items,
                                    std::uint32_t attempt) -> pid_t {
    try {
      RID_FAILPOINT("net.worker_exec");
      {
        std::lock_guard<std::mutex> lock(impl->mutex);
        impl->assignments[shard_id] = items;
      }
      const std::string shard_text = std::to_string(shard_id);
      const std::string attempt_text = std::to_string(attempt);
      // The shared secret travels by environment, never argv: worker
      // command lines are world-readable through ps/procfs. The child's
      // environment is built here, before fork: the child of a multithreaded
      // parent may only make async-signal-safe calls, and setenv takes
      // glibc's environment lock and may allocate.
      const std::string& token = impl->auth_token;
      std::string token_entry = "RID_AUTH_TOKEN=" + token;
      std::vector<char*> envp;
      for (char** entry = environ; *entry != nullptr; ++entry)
        if (token.empty() ||
            !std::string_view(*entry).starts_with("RID_AUTH_TOKEN="))
          envp.push_back(*entry);
      if (!token.empty()) envp.push_back(token_entry.data());
      envp.push_back(nullptr);
      const pid_t pid = fork();
      if (pid == 0) {
        util::apply_worker_rlimits(options);
        const char* argv[] = {worker_command.c_str(),
                              "worker",
                              "--connect",
                              endpoint_text.c_str(),
                              "--shard",
                              shard_text.c_str(),
                              "--attempt",
                              attempt_text.c_str(),
                              nullptr};
        ::execve(worker_command.c_str(), const_cast<char* const*>(argv),
                 envp.data());
        _exit(127);  // exec failure = a crash to the supervisor
      }
      if (pid > 0) transport_metrics().workers_launched.add(1);
      return pid;
    } catch (const std::exception& e) {
      impl->log_event(std::string("dispatcher: worker launch failed: ") +
                      e.what());
      return -1;
    }
  };
  launcher.drain = [impl](pid_t pid) { impl->drain(pid); };
  launcher.durable = [impl](std::size_t item) { return impl->durable(item); };
  return launcher;
}

util::ShardLauncher SocketDispatcher::fork_launcher(
    const CascadeForest& forest, const util::SupervisorOptions& options) {
  Impl* impl = impl_.get();
  util::ShardLauncher launcher;
  launcher.launch = [impl, &forest, options](
                        std::size_t shard_id,
                        const std::vector<std::size_t>& items,
                        std::uint32_t attempt) -> pid_t {
    WorkerAssignment assignment = impl->assignment_template;
    assignment.items = items;
    net::Socket parent_end;
    net::Socket child_end;
    try {
      std::tie(parent_end, child_end) = open_stream_pair();
    } catch (const std::exception& e) {
      impl->log_event(std::string("dispatcher: worker launch failed: ") +
                      e.what());
      return -1;
    }
    TransportMetrics& tm = transport_metrics();
    const pid_t pid = fork();
    if (pid == 0)
      run_fork_worker(child_end, forest, assignment, shard_id, attempt,
                      options);
    close_stream(child_end);
    if (pid < 0) {
      close_stream(parent_end);
      return -1;
    }
    tm.workers_launched.add(1);
    const auto worker_pid = static_cast<std::uint64_t>(pid);
    std::shared_ptr<Impl::Stream> stream = impl->open_stream(worker_pid);
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->handlers.emplace_back([impl, socket = std::move(parent_end),
                                 shard_id, attempt, worker_pid,
                                 stream]() mutable {
      impl->run_stream(socket, shard_id, attempt, worker_pid, *stream, {});
    });
    return pid;
  };
  launcher.drain = [impl](pid_t pid) { impl->drain(pid); };
  launcher.durable = [impl](std::size_t item) { return impl->durable(item); };
  return launcher;
}

std::vector<std::string> SocketDispatcher::take_events() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return std::exchange(impl_->events, {});
}

std::map<std::uint64_t, TreeCheckpointRecord> SocketDispatcher::take_records() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return std::exchange(impl_->published, {});
}

namespace {

/// Connect with capped exponential backoff + deterministic jitter under
/// `deadline_seconds`, each try bounded by `timeout_seconds`. Jitter
/// derives from (shard, attempt, try) so a replayed chaos schedule sleeps
/// identically; determinism of the *result* never depends on it. Invalid
/// socket = deadline exhausted (`*error` holds the last failure).
net::Socket connect_with_retry(const net::Endpoint& endpoint,
                               std::size_t shard_id, std::uint32_t attempt,
                               double deadline_seconds, double timeout_seconds,
                               std::string* error) {
  const auto start = std::chrono::steady_clock::now();
  double backoff_ms = 50.0;
  std::uint64_t tries = 0;
  while (true) {
    try {
      return net::connect(endpoint, timeout_seconds);
    } catch (const std::exception& e) {
      ++tries;
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= deadline_seconds) {
        *error = e.what();
        return net::Socket();
      }
      transport_metrics().connect_retries.add(1);
      std::uint64_t mix = util::fnv1a64_step(util::kFnv64Basis, shard_id);
      mix = util::fnv1a64_step(mix, attempt);
      mix = util::fnv1a64_step(mix, tries);
      const double jitter_ms = backoff_ms * 0.25 * double(mix % 1024) / 1024.0;
      const double remaining_ms = (deadline_seconds - elapsed) * 1000.0;
      const double sleep_ms =
          std::min(backoff_ms + jitter_ms, std::max(remaining_ms, 1.0));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
      backoff_ms = std::min(backoff_ms * 2.0, 1000.0);
    }
  }
}

}  // namespace

int run_socket_worker(const std::string& endpoint_text, std::size_t shard_id,
                      std::uint32_t attempt) {
  try {
    // Per-phase deadlines are env-tunable so chaos tests (and operators
    // debugging a slow link) can shrink or stretch them without new flags.
    const double connect_deadline = env_seconds("RID_CONNECT_DEADLINE", 15.0);
    const double handshake_timeout = handshake_seconds();
    const char* token_env = std::getenv("RID_AUTH_TOKEN");
    const std::string auth_token = token_env != nullptr ? token_env : "";

    const net::Endpoint endpoint = net::Endpoint::parse(endpoint_text);
    std::string connect_error;
    net::Socket socket =
        connect_with_retry(endpoint, shard_id, attempt, connect_deadline,
                           handshake_timeout, &connect_error);
    if (!socket.valid()) {
      util::log_warn("socket worker: connect deadline exhausted: ",
                     connect_error);
      return 1;
    }

    // Handshake. The RID_WORKER_* overrides exist for skew drills: they
    // force this side's advertisement only, so tests can manufacture a
    // worker "built from a different commit" out of the same binary.
    HelloV2 hello;
    hello.binary_fingerprint = protocol_binary_fingerprint();
    bool forced = false;
    const std::uint64_t forced_fingerprint =
        env_u64("RID_WORKER_BINARY_FINGERPRINT", &forced);
    if (forced) hello.binary_fingerprint = forced_fingerprint;
    if (const char* proto = std::getenv("RID_WORKER_PROTOCOL")) {
      char* end = nullptr;
      hello.protocol_min =
          static_cast<std::uint32_t>(std::strtoul(proto, &end, 10));
      hello.protocol_max = (end != nullptr && *end == ':')
                               ? static_cast<std::uint32_t>(
                                     std::strtoul(end + 1, nullptr, 10))
                               : hello.protocol_min;
    }
    hello.shard_id = static_cast<std::uint32_t>(shard_id);
    hello.attempt = attempt;
    hello.worker_pid = util::own_pid();
    const std::string hello_body = encode_hello(hello);
    if (!socket.write_frame(message_frame(WireMessage::kHello, hello_body)))
      return 1;

    // Reply ladder: kChallenge (answer and keep reading), kReject (typed
    // fail-closed verdict), kAssign (proceed).
    std::string payload;
    WorkerAssignment assignment;
    while (true) {
      const net::FrameStatus status =
          socket.read_frame(payload, handshake_timeout);
      if (status != net::FrameStatus::kOk || payload.empty()) {
        util::log_warn("socket worker: no assignment (",
                       net::to_string(status), ")");
        return 1;
      }
      const auto type = static_cast<WireMessage>(payload[0]);
      const std::string_view body = std::string_view(payload).substr(1);
      if (type == WireMessage::kChallenge) {
        if (auth_token.empty()) {
          util::log_warn(
              "socket worker: dispatcher demands authentication but no "
              "RID_AUTH_TOKEN is set");
          return kExitHandshakeRejected;
        }
        const auto mac =
            util::hmac_sha256(auth_token, std::string(body) + hello_body);
        if (!socket.write_frame(message_frame(
                WireMessage::kAuth,
                std::string_view(reinterpret_cast<const char*>(mac.data()),
                                 mac.size()))))
          return 1;
        continue;
      }
      if (type == WireMessage::kReject) {
        wire::Reader reject(body, "reject");
        const auto code = static_cast<RejectCode>(reject.u8());
        const std::string detail = reject.str();
        util::log_warn("socket worker: rejected by dispatcher (",
                       to_string(code), "): ", detail);
        // Unknown shard is a stale/duplicate worker, not a misconfigured
        // one — exit as an ordinary loss so the supervisor's ladder owns
        // the retry decision.
        return code == RejectCode::kUnknownShard ? 1
                                                 : kExitHandshakeRejected;
      }
      if (type == WireMessage::kAssign) {
        try {
          assignment = decode_assignment(body);
        } catch (const util::InputError& e) {
          return worker_fail(socket, e.what(), 3);
        }
        break;
      }
      util::log_warn("socket worker: unexpected handshake frame type ",
                     static_cast<int>(type));
      return 1;
    }

    // The worker's own observability: span recording starts here and
    // drains back to the dispatcher as one kTelemetry frame before kDone. A
    // RID_TRACING=OFF worker records nothing; the metrics half still flows.
    if (assignment.collect_trace && util::trace::compiled())
      util::trace::start();
    std::vector<const CascadeTree*> trees;
    trees.reserve(assignment.trees.size());
    for (const CascadeTree& tree : assignment.trees) trees.push_back(&tree);
    return stream_trees(socket, trees, assignment, shard_id, attempt,
                        util::trace::now_ns());
  } catch (const std::exception& e) {
    util::log_warn("socket worker: ", e.what());
    return 1;
  } catch (...) {
    return 1;
  }
}

#else  // _WIN32

struct SocketDispatcher::Impl {};

SocketDispatcher::SocketDispatcher(std::string, std::uint64_t,
                                   WorkerAssignment) {
  throw util::InputError("process isolation unsupported on this platform");
}
SocketDispatcher::SocketDispatcher(const util::net::Endpoint&, std::string,
                                   std::uint64_t, WorkerAssignment,
                                   std::string) {
  throw util::InputError("socket transport unsupported on this platform");
}
SocketDispatcher::~SocketDispatcher() = default;
const util::net::Endpoint& SocketDispatcher::endpoint() const {
  static util::net::Endpoint endpoint;
  return endpoint;
}
util::ShardLauncher SocketDispatcher::launcher(const CascadeForest&,
                                               std::string,
                                               const util::SupervisorOptions&) {
  return {};
}
util::ShardLauncher SocketDispatcher::fork_launcher(
    const CascadeForest&, const util::SupervisorOptions&) {
  return {};
}
std::vector<std::string> SocketDispatcher::take_events() { return {}; }
std::map<std::uint64_t, TreeCheckpointRecord> SocketDispatcher::take_records() {
  return {};
}
std::uint64_t SocketDispatcher::handshakes_completed() const { return 0; }

int run_socket_worker(const std::string&, std::size_t, std::uint32_t) {
  return 1;
}

#endif

}  // namespace rid::core
